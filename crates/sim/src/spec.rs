#![doc = "tracer-invariant: deterministic"]
//! Declarative array construction: one spec type from scenario file to sim.
//!
//! [`ArraySpec`] is the single builder both code and scenario files share:
//! a named device model ([`DeviceSpec`]), a [`Layout`], a disk count, the
//! enclosure constants, and a [`PowerPolicy`]. The named constructors
//! ([`ArraySpec::hdd_raid5`], [`ArraySpec::ssd_raid5`], …) are the paper's
//! Table II testbeds and the device zoo:
//!
//! * HDD array: RAID-5 over up to six Seagate 7200.12 500 GB drives,
//!   128 KB strip, controller cache disabled, 4 Gbps fibre channel.
//! * SSD array: RAID-5 over four Memoright 32 GB SLC drives, 128 KB strip.
//!
//! Chassis power is a spec-derived constant (controller + fan + backplane);
//! see DESIGN.md for the calibration notes, including the deliberate deviation
//! from the paper's reported 195.8 W SSD-array idle figure.
//!
//! Everything validates with `Result`, never panics, so the scenario parser
//! can surface configuration mistakes as [`tracer-core`] errors; the
//! panicking [`ArraySpec::build`]/[`ArraySpec::parts`] wrappers serve code
//! paths whose inputs are static.

use crate::array::{ArrayConfig, ArraySim, QueueDiscipline};
use crate::cache::CacheConfig;
use crate::device::Device;
use crate::hdd::{HddModel, HddParams};
use crate::nvme::{NvmeModel, NvmeParams};
use crate::power::PowerPolicy;
use crate::raid::{Geometry, Redundancy};
use crate::ssd::{SsdModel, SsdParams};
use crate::tier::{TierConfig, TieredModel};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Non-disk ("chassis") power of the simulated enclosure, watts. Chosen so
/// that disk power overtakes chassis power once the array holds more than
/// three drives, as the paper observes in §VI-A.
const CHASSIS_WATTS: f64 = 16.0;

/// Payload rate of the 4 Gbps fibre-channel host link, MB/s.
const FC_LINK_MBPS: f64 = 400.0;

/// Controller command overhead per request, microseconds.
const CONTROLLER_OVERHEAD_US: f64 = 120.0;

/// Controller XOR engine rate, MB/s.
const XOR_MBPS: f64 = 1500.0;

/// Striping layout of an array, the scenario-facing face of
/// [`Redundancy`] with validation instead of panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Plain striping, no redundancy.
    Raid0,
    /// N-way mirror.
    Raid1,
    /// Left-symmetric rotating parity.
    Raid5,
    /// Rotated P+Q double parity.
    Raid6,
    /// Mirrored striping over pairs.
    Raid10,
}

impl Layout {
    /// Parse the scenario-file keyword (`raid0`, `raid1`, `raid5`, `raid6`,
    /// `raid10`).
    pub fn parse(s: &str) -> Option<Layout> {
        match s {
            "raid0" => Some(Layout::Raid0),
            "raid1" => Some(Layout::Raid1),
            "raid5" => Some(Layout::Raid5),
            "raid6" => Some(Layout::Raid6),
            "raid10" => Some(Layout::Raid10),
            _ => None,
        }
    }

    /// The scenario-file keyword for this layout.
    pub fn keyword(&self) -> &'static str {
        match self {
            Layout::Raid0 => "raid0",
            Layout::Raid1 => "raid1",
            Layout::Raid5 => "raid5",
            Layout::Raid6 => "raid6",
            Layout::Raid10 => "raid10",
        }
    }

    /// Validate `disks` for this layout and produce the geometry.
    pub fn geometry(self, disks: usize, strip_sectors: u64) -> Result<Geometry, String> {
        if strip_sectors == 0 {
            return Err("strip size must be positive".to_string());
        }
        let redundancy = match self {
            Layout::Raid0 => Redundancy::Raid0,
            Layout::Raid1 => {
                if disks < 2 {
                    return Err(format!("raid1 needs at least 2 disks, got {disks}"));
                }
                Redundancy::Raid1
            }
            Layout::Raid5 => {
                if disks < 3 {
                    return Err(format!("raid5 needs at least 3 disks, got {disks}"));
                }
                Redundancy::Raid5
            }
            Layout::Raid6 => {
                if disks < 4 {
                    return Err(format!("raid6 needs at least 4 disks, got {disks}"));
                }
                Redundancy::Raid6
            }
            Layout::Raid10 => {
                if disks < 2 || disks % 2 != 0 {
                    return Err(format!("raid10 needs an even disk count >= 2, got {disks}"));
                }
                Redundancy::Raid10
            }
        };
        Ok(Geometry { disks, strip_sectors, redundancy })
    }
}

/// A named member-device model from the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeviceSpec {
    /// Seagate 7200.12 500 GB desktop drive (the paper's testbed HDD).
    HddSeagate7200,
    /// 15 000 rpm enterprise SAS drive.
    HddEnterprise15k,
    /// 5 400 rpm power-economy drive.
    HddEco5400,
    /// Memoright 32 GB SLC drive (the paper's testbed SSD).
    SsdMemorightSlc,
    /// Consumer MLC drive of the following generation.
    SsdMlcConsumer,
    /// Datacenter NVMe drive with 8-channel internal parallelism.
    NvmeDatacenter,
    /// SLC flash cache over a Seagate 7200.12 backing store.
    TieredHybrid(TierConfig),
}

impl DeviceSpec {
    /// Parse the scenario-file keyword. `tiered-hybrid` uses the default
    /// [`TierConfig`]; scenario files tune it via dedicated keys.
    pub fn parse(s: &str) -> Option<DeviceSpec> {
        match s {
            "seagate-7200" => Some(DeviceSpec::HddSeagate7200),
            "enterprise-15k" => Some(DeviceSpec::HddEnterprise15k),
            "eco-5400" => Some(DeviceSpec::HddEco5400),
            "memoright-slc" => Some(DeviceSpec::SsdMemorightSlc),
            "mlc-consumer" => Some(DeviceSpec::SsdMlcConsumer),
            "nvme-datacenter" => Some(DeviceSpec::NvmeDatacenter),
            "tiered-hybrid" => Some(DeviceSpec::TieredHybrid(TierConfig::default())),
            _ => None,
        }
    }

    /// The scenario-file keyword for this device.
    pub fn keyword(&self) -> &'static str {
        match self {
            DeviceSpec::HddSeagate7200 => "seagate-7200",
            DeviceSpec::HddEnterprise15k => "enterprise-15k",
            DeviceSpec::HddEco5400 => "eco-5400",
            DeviceSpec::SsdMemorightSlc => "memoright-slc",
            DeviceSpec::SsdMlcConsumer => "mlc-consumer",
            DeviceSpec::NvmeDatacenter => "nvme-datacenter",
            DeviceSpec::TieredHybrid(_) => "tiered-hybrid",
        }
    }

    /// Every keyword [`DeviceSpec::parse`] accepts, for error messages.
    pub const KEYWORDS: &'static [&'static str] = &[
        "seagate-7200",
        "enterprise-15k",
        "eco-5400",
        "memoright-slc",
        "mlc-consumer",
        "nvme-datacenter",
        "tiered-hybrid",
    ];

    /// Instantiate one member device.
    pub fn build(&self) -> Device {
        match self {
            DeviceSpec::HddSeagate7200 => {
                Device::Hdd(HddModel::new(HddParams::seagate_7200_12_500gb()))
            }
            DeviceSpec::HddEnterprise15k => {
                Device::Hdd(HddModel::new(HddParams::enterprise_15k_600gb()))
            }
            DeviceSpec::HddEco5400 => Device::Hdd(HddModel::new(HddParams::eco_5400_2tb())),
            DeviceSpec::SsdMemorightSlc => {
                Device::Ssd(SsdModel::new(SsdParams::memoright_slc_32gb()))
            }
            DeviceSpec::SsdMlcConsumer => {
                Device::Ssd(SsdModel::new(SsdParams::mlc_consumer_128gb()))
            }
            DeviceSpec::NvmeDatacenter => {
                Device::Nvme(NvmeModel::new(NvmeParams::datacenter_960gb()))
            }
            DeviceSpec::TieredHybrid(cfg) => Device::Tiered(TieredModel::new(
                "hybrid-slc-7200",
                SsdModel::new(SsdParams::memoright_slc_32gb()),
                HddModel::new(HddParams::seagate_7200_12_500gb()),
                *cfg,
            )),
        }
    }

    /// `(idle_w, standby_w, spinup_w, spinup_s)` of the spindle behind this
    /// device, if it has one — the inputs [`PowerPolicy::BreakEven`] needs.
    fn power_figures(&self) -> Option<(f64, f64, f64, f64)> {
        let hdd = match self {
            DeviceSpec::HddSeagate7200 | DeviceSpec::TieredHybrid(_) => {
                HddParams::seagate_7200_12_500gb()
            }
            DeviceSpec::HddEnterprise15k => HddParams::enterprise_15k_600gb(),
            DeviceSpec::HddEco5400 => HddParams::eco_5400_2tb(),
            DeviceSpec::SsdMemorightSlc
            | DeviceSpec::SsdMlcConsumer
            | DeviceSpec::NvmeDatacenter => return None,
        };
        Some((hdd.idle_w, hdd.standby_w, hdd.spinup_w, hdd.spinup_s))
    }
}

/// Declarative description of a whole array: the one builder shared by
/// scenario files, code and tests.
///
/// ```
/// use tracer_sim::{ArraySpec, DeviceSpec, Layout};
///
/// // The paper's testbed, exactly as `ArraySpec::hdd_raid5(6).build()` built it.
/// let sim = ArraySpec::new("raid5-hdd6", Layout::Raid5, 6, DeviceSpec::HddSeagate7200)
///     .build();
/// assert_eq!(sim.config().name, "raid5-hdd6");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArraySpec {
    /// Array name, used in reports and power channels.
    pub name: String,
    /// Striping layout.
    pub layout: Layout,
    /// Member count.
    pub disks: usize,
    /// Strip size, sectors.
    pub strip_sectors: u64,
    /// Member device model.
    pub device: DeviceSpec,
    /// Non-disk enclosure power, watts.
    pub chassis_watts: f64,
    /// Host link payload rate, MB/s.
    pub link_mbps: f64,
    /// Controller command overhead, microseconds.
    pub controller_overhead_us: f64,
    /// Controller XOR engine rate, MB/s.
    pub xor_mbps: f64,
    /// Per-device queue discipline.
    pub queue: QueueDiscipline,
    /// Spin-down policy for the members.
    pub power: PowerPolicy,
    /// Controller cache, if any.
    pub cache: Option<CacheConfig>,
}

impl ArraySpec {
    /// A spec with the enclosure constants of the paper's testbed
    /// (chassis 16 W, 4 Gbps FC, 120 µs controller overhead, 1.5 GB/s XOR,
    /// FIFO queues, always-on power, no cache, 128 KB strip).
    pub fn new(name: impl Into<String>, layout: Layout, disks: usize, device: DeviceSpec) -> Self {
        Self {
            name: name.into(),
            layout,
            disks,
            strip_sectors: 256,
            device,
            chassis_watts: CHASSIS_WATTS,
            link_mbps: FC_LINK_MBPS,
            controller_overhead_us: CONTROLLER_OVERHEAD_US,
            xor_mbps: XOR_MBPS,
            queue: QueueDiscipline::Fifo,
            power: PowerPolicy::AlwaysOn,
            cache: None,
        }
    }

    /// Set the strip size in sectors.
    pub fn strip_sectors(mut self, sectors: u64) -> Self {
        self.strip_sectors = sectors;
        self
    }

    /// Set the queue discipline.
    pub fn queue(mut self, queue: QueueDiscipline) -> Self {
        self.queue = queue;
        self
    }

    /// Set the spin-down policy.
    pub fn power(mut self, power: PowerPolicy) -> Self {
        self.power = power;
        self
    }

    /// Set the controller cache.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Set the chassis power, watts.
    pub fn chassis_watts(mut self, watts: f64) -> Self {
        self.chassis_watts = watts;
        self
    }

    /// Set the host link rate, MB/s.
    pub fn link_mbps(mut self, mbps: f64) -> Self {
        self.link_mbps = mbps;
        self
    }

    /// The spin-down timeout this spec resolves to, if any: the policy
    /// applied to the member device's spindle figures. Devices without a
    /// spindle never spin down under [`PowerPolicy::BreakEven`].
    pub fn resolved_spin_down(&self) -> Option<SimDuration> {
        match (self.power, self.device.power_figures()) {
            (PowerPolicy::AlwaysOn, _) => None,
            (PowerPolicy::FixedTimeout { idle }, _) => Some(idle),
            (PowerPolicy::BreakEven, Some((idle_w, standby_w, spinup_w, spinup_s))) => {
                PowerPolicy::BreakEven.spin_down_after(idle_w, standby_w, spinup_w, spinup_s)
            }
            (PowerPolicy::BreakEven, None) => None,
        }
    }

    /// Validate and produce the array config plus member devices.
    pub fn try_parts(&self) -> Result<(ArrayConfig, Vec<Device>), String> {
        let geometry = self.layout.geometry(self.disks, self.strip_sectors)?;
        if !(self.chassis_watts.is_finite() && self.chassis_watts >= 0.0) {
            return Err(format!(
                "chassis watts must be finite and >= 0, got {}",
                self.chassis_watts
            ));
        }
        if !(self.link_mbps.is_finite() && self.link_mbps > 0.0) {
            return Err(format!("link rate must be positive, got {}", self.link_mbps));
        }
        if !(self.xor_mbps.is_finite() && self.xor_mbps > 0.0) {
            return Err(format!("xor rate must be positive, got {}", self.xor_mbps));
        }
        let cfg = ArrayConfig {
            name: self.name.clone(),
            geometry,
            chassis_watts: self.chassis_watts,
            link_mbps: self.link_mbps,
            controller_overhead_us: self.controller_overhead_us,
            xor_mbps: self.xor_mbps,
            queue_discipline: self.queue,
            spin_down_after: self.resolved_spin_down(),
            cache: self.cache,
        };
        let devices = (0..self.disks).map(|_| self.device.build()).collect();
        Ok((cfg, devices))
    }

    /// Validate and build the simulator.
    pub fn try_build(&self) -> Result<ArraySim, String> {
        let (cfg, devices) = self.try_parts()?;
        Ok(ArraySim::new(cfg, devices))
    }

    /// [`ArraySpec::try_parts`] for static configurations.
    ///
    /// # Panics
    /// Panics if the spec is invalid.
    pub fn parts(&self) -> (ArrayConfig, Vec<Device>) {
        match self.try_parts() {
            Ok(parts) => parts,
            Err(e) => panic!("invalid array spec `{}`: {e}", self.name),
        }
    }

    /// [`ArraySpec::try_build`] for static configurations.
    ///
    /// # Panics
    /// Panics if the spec is invalid.
    pub fn build(&self) -> ArraySim {
        let (cfg, devices) = self.parts();
        ArraySim::new(cfg, devices)
    }

    // ---- The testbed configurations of the paper (Table II) and the zoo ----

    /// The paper's HDD testbed: RAID-5 over `disks` Seagate 7200.12 drives.
    pub fn hdd_raid5(disks: usize) -> Self {
        Self::new(format!("raid5-hdd{disks}"), Layout::Raid5, disks, DeviceSpec::HddSeagate7200)
    }

    /// The paper's SSD testbed: RAID-5 over `disks` Memoright SLC drives.
    pub fn ssd_raid5(disks: usize) -> Self {
        Self::new(format!("raid5-ssd{disks}"), Layout::Raid5, disks, DeviceSpec::SsdMemorightSlc)
    }

    /// `disks` idle HDDs, no redundancy (the Fig. 7 idle-power enclosure).
    pub fn hdd_idle(disks: usize) -> Self {
        Self::new(format!("idle-hdd{disks}"), Layout::Raid0, disks, DeviceSpec::HddSeagate7200)
    }

    /// RAID-10 over `disks` desktop HDDs.
    pub fn hdd_raid10(disks: usize) -> Self {
        Self::new(format!("raid10-hdd{disks}"), Layout::Raid10, disks, DeviceSpec::HddSeagate7200)
    }

    /// RAID-0 over `disks` desktop HDDs.
    pub fn hdd_raid0(disks: usize) -> Self {
        Self::new(format!("raid0-hdd{disks}"), Layout::Raid0, disks, DeviceSpec::HddSeagate7200)
    }

    /// RAID-5 over `disks` 15 000 rpm enterprise drives.
    pub fn enterprise15k_raid5(disks: usize) -> Self {
        Self::new(format!("raid5-15k{disks}"), Layout::Raid5, disks, DeviceSpec::HddEnterprise15k)
    }

    /// RAID-5 over `disks` 5 400 rpm economy drives.
    pub fn eco_raid5(disks: usize) -> Self {
        Self::new(format!("raid5-eco{disks}"), Layout::Raid5, disks, DeviceSpec::HddEco5400)
    }

    /// RAID-5 over `disks` consumer MLC SSDs.
    pub fn mlc_raid5(disks: usize) -> Self {
        Self::new(format!("raid5-mlc{disks}"), Layout::Raid5, disks, DeviceSpec::SsdMlcConsumer)
    }

    /// RAID-5 over `disks` datacenter NVMe drives.
    pub fn nvme_raid5(disks: usize) -> Self {
        Self::new(format!("raid5-nvme{disks}"), Layout::Raid5, disks, DeviceSpec::NvmeDatacenter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use crate::time::SimTime;

    #[test]
    fn idle_power_grows_linearly_with_disks() {
        let mut previous = 0.0;
        for n in 0..=6 {
            let sim = ArraySpec::hdd_idle(n).build();
            let w = sim.power_log().total_watts_at(SimTime::from_secs(1));
            assert!((w - (CHASSIS_WATTS + n as f64 * 5.0)).abs() < 1e-9);
            assert!(w > previous);
            previous = w;
        }
    }

    #[test]
    fn disks_dominate_beyond_three() {
        // The paper: "when the number of disks exceeds three, power
        // consumption of disks dominates the total power dissipation".
        let disk_w = |n: usize| n as f64 * 5.0;
        assert!(disk_w(3) < CHASSIS_WATTS);
        assert!(disk_w(4) > CHASSIS_WATTS);
    }

    #[test]
    fn ssd_array_idle_power() {
        let sim = ArraySpec::ssd_raid5(4).build();
        let w = sim.power_log().total_watts_at(SimTime::ZERO);
        assert!((w - (CHASSIS_WATTS + 4.0 * 3.5)).abs() < 1e-9);
    }

    #[test]
    fn generation_presets_build_and_idle_in_order() {
        let idle = |spec: ArraySpec| spec.build().power_log().total_watts_at(SimTime::ZERO);
        let eco = idle(ArraySpec::eco_raid5(4));
        let desktop = idle(ArraySpec::hdd_raid5(4));
        let fast = idle(ArraySpec::enterprise15k_raid5(4));
        let mlc = idle(ArraySpec::mlc_raid5(4));
        assert!(mlc < eco && eco < desktop && desktop < fast);
    }

    #[test]
    fn single_hdd_capacity() {
        let sim =
            ArraySpec::new("single-hdd", Layout::Raid0, 1, DeviceSpec::HddSeagate7200).build();
        assert_eq!(sim.devices().len(), 1);
        assert!(sim.data_capacity_sectors() <= sim.devices()[0].capacity_sectors());
        assert!(sim.data_capacity_sectors() > 900_000_000);
    }

    #[test]
    fn layout_keywords_round_trip() {
        for layout in [Layout::Raid0, Layout::Raid1, Layout::Raid5, Layout::Raid6, Layout::Raid10] {
            assert_eq!(Layout::parse(layout.keyword()), Some(layout));
        }
        assert_eq!(Layout::parse("raid7"), None);
    }

    #[test]
    fn device_keywords_round_trip() {
        for kw in DeviceSpec::KEYWORDS {
            let spec = DeviceSpec::parse(kw).unwrap();
            assert_eq!(spec.keyword(), *kw);
            // Every zoo member actually instantiates.
            let _ = spec.build();
        }
        assert_eq!(DeviceSpec::parse("floppy"), None);
    }

    #[test]
    fn invalid_layouts_error_instead_of_panicking() {
        for (layout, disks) in
            [(Layout::Raid5, 2), (Layout::Raid6, 3), (Layout::Raid10, 5), (Layout::Raid1, 1)]
        {
            let spec = ArraySpec::new("bad", layout, disks, DeviceSpec::HddSeagate7200);
            assert!(spec.try_parts().is_err(), "{layout:?} over {disks} disks must fail");
        }
        let zero_strip =
            ArraySpec::new("bad", Layout::Raid0, 2, DeviceSpec::HddSeagate7200).strip_sectors(0);
        assert!(zero_strip.try_build().is_err());
    }

    #[test]
    fn power_policy_resolves_against_member_spindle() {
        let spec = ArraySpec::hdd_raid5(4)
            .power(PowerPolicy::FixedTimeout { idle: SimDuration::from_secs(30) });
        assert_eq!(spec.resolved_spin_down(), Some(SimDuration::from_secs(30)));
        let spec = ArraySpec::hdd_raid5(4).power(PowerPolicy::BreakEven);
        let t = spec.resolved_spin_down().unwrap().as_secs_f64();
        assert!((t - 114.0 / 4.2).abs() < 1e-9, "Seagate break-even = {t}s");
        // Flash has no spindle: break-even degrades to always-on.
        let spec = ArraySpec::ssd_raid5(4).power(PowerPolicy::BreakEven);
        assert_eq!(spec.resolved_spin_down(), None);
    }

    #[test]
    fn zoo_configurations_build_and_idle_sanely() {
        let raid6 =
            ArraySpec::new("raid6-hdd6", Layout::Raid6, 6, DeviceSpec::HddSeagate7200).build();
        assert_eq!(raid6.config().geometry.redundancy, Redundancy::Raid6);
        let nvme = ArraySpec::nvme_raid5(4).build();
        assert!(nvme.power_log().total_watts_at(SimTime::ZERO) > 16.0);
        let tier = DeviceSpec::TieredHybrid(TierConfig::default());
        let tiered = ArraySpec::new("raid0-tier2", Layout::Raid0, 2, tier).build();
        assert_eq!(tiered.devices().len(), 2);
        assert!(tiered.devices()[0].capacity_sectors() > 900_000_000);
    }
}
