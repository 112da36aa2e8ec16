//! Rotating hard-disk model.
//!
//! The mechanical model follows the classic Ruemmler–Wilkes decomposition:
//! per-op firmware overhead, a seek whose time grows with the square root of
//! short distances and linearly with long ones, half-a-revolution expected
//! rotational latency, and a zoned media transfer whose rate falls linearly
//! from the outer to the inner diameter. Sequential continuations (an op
//! starting exactly where the previous one ended) skip seek and rotation —
//! this is the mechanism behind the paper's random-ratio results (§VI-D):
//! random I/O burns seek time *and* seek power ("voice-coil actuators …
//! consume additional energy to perform seek operations").
//!
//! Power states: standby (spun down), idle (spinning, heads parked),
//! rotation/overhead at idle power, seek at seek power, transfer at transfer
//! power, spin-up at spin-up power. Spin-down support exists so that
//! MAID-style energy-conservation policies can be evaluated on top of TRACER.
#![doc = "tracer-invariant: deterministic"]

use crate::device::{DeviceModel, DiskOp, Phase, PhaseLabel};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Static parameters of an HDD model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HddParams {
    /// Model name for reports.
    pub name: String,
    /// Capacity in 512-byte sectors.
    pub capacity_sectors: u64,
    /// Number of (logical) cylinders used for seek-distance mapping.
    pub cylinders: u64,
    /// Spindle speed, revolutions per minute.
    pub rpm: f64,
    /// Track-to-track (single-cylinder) seek, milliseconds.
    pub track_to_track_ms: f64,
    /// Full-stroke seek, milliseconds.
    pub full_stroke_ms: f64,
    /// Extra head-settle time applied to writes that seek, milliseconds.
    pub write_settle_ms: f64,
    /// Media rate at the outer diameter, MB/s.
    pub outer_mbps: f64,
    /// Media rate at the inner diameter, MB/s.
    pub inner_mbps: f64,
    /// Per-op firmware/command overhead, microseconds.
    pub overhead_us: f64,
    /// Power, watts: spun-down standby.
    pub standby_w: f64,
    /// Power, watts: idle (spinning).
    pub idle_w: f64,
    /// Power, watts: seeking.
    pub seek_w: f64,
    /// Power, watts: media transfer.
    pub transfer_w: f64,
    /// Power, watts: during spin-up.
    pub spinup_w: f64,
    /// Spin-up time from standby, seconds.
    pub spinup_s: f64,
}

impl HddParams {
    /// Derive a multi-speed variant of this drive running at
    /// `factor` × nominal RPM — the mechanism behind DRPM-style
    /// ("dynamic rotations per minute") conservation techniques.
    ///
    /// Scaling rules: rotation time and media rate scale linearly with RPM;
    /// spindle power scales with ~RPM^2.8 (windage dominates), so the idle
    /// level drops steeply while the seek/transfer *increments* over idle
    /// (actuator and channel electronics) stay fixed. Seek time is
    /// unaffected. `factor` must be in (0, 1].
    pub fn derated(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "RPM factor must be in (0, 1]");
        let spindle_scale = factor.powf(2.8);
        let idle_w = self.idle_w * spindle_scale;
        Self {
            name: format!("{}@{:.0}rpm", self.name, self.rpm * factor),
            rpm: self.rpm * factor,
            outer_mbps: self.outer_mbps * factor,
            inner_mbps: self.inner_mbps * factor,
            idle_w,
            seek_w: idle_w + (self.seek_w - self.idle_w),
            transfer_w: idle_w + (self.transfer_w - self.idle_w),
            ..self.clone()
        }
    }

    /// Parameters approximating the paper's data disks (Table II): Seagate
    /// Barracuda 7200.12, 500 GB, 7200 rpm. Spec-sheet derived; see DESIGN.md
    /// for the calibration notes.
    pub fn seagate_7200_12_500gb() -> Self {
        Self {
            name: "Seagate-7200.12-500GB".to_string(),
            capacity_sectors: 976_773_168, // 500 GB / 512 B
            cylinders: 152_000,
            rpm: 7200.0,
            track_to_track_ms: 1.0,
            full_stroke_ms: 18.0,
            write_settle_ms: 0.5,
            outer_mbps: 125.0,
            inner_mbps: 60.0,
            overhead_us: 100.0,
            standby_w: 0.8,
            idle_w: 5.0,
            seek_w: 11.5,
            transfer_w: 8.0,
            spinup_w: 24.0,
            spinup_s: 6.0,
        }
    }

    /// A 15 000 rpm enterprise SAS drive (Cheetah-class, 600 GB): short
    /// seeks, fast rotation, power-hungry spindle.
    pub fn enterprise_15k_600gb() -> Self {
        Self {
            name: "Enterprise-15k-600GB".to_string(),
            capacity_sectors: 1_172_123_568, // 600 GB / 512 B
            cylinders: 120_000,
            rpm: 15_000.0,
            track_to_track_ms: 0.4,
            full_stroke_ms: 7.0,
            write_settle_ms: 0.3,
            outer_mbps: 200.0,
            inner_mbps: 120.0,
            overhead_us: 60.0,
            standby_w: 1.5,
            idle_w: 9.5,
            seek_w: 17.0,
            transfer_w: 13.5,
            spinup_w: 30.0,
            spinup_s: 8.0,
        }
    }

    /// A 5 400 rpm power-economy drive (2 TB archive class): slow mechanics,
    /// low spindle power.
    pub fn eco_5400_2tb() -> Self {
        Self {
            name: "Eco-5400-2TB".to_string(),
            capacity_sectors: 3_907_029_168, // 2 TB / 512 B
            cylinders: 280_000,
            rpm: 5_400.0,
            track_to_track_ms: 1.5,
            full_stroke_ms: 24.0,
            write_settle_ms: 0.7,
            outer_mbps: 110.0,
            inner_mbps: 55.0,
            overhead_us: 120.0,
            standby_w: 0.6,
            idle_w: 3.2,
            seek_w: 7.5,
            transfer_w: 5.4,
            spinup_w: 18.0,
            spinup_s: 8.0,
        }
    }
}

/// A stateful HDD: parameters plus head position and spin state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HddModel {
    params: HddParams,
    /// Cylinder the head currently sits on.
    head_cylinder: u64,
    /// End sector of the last op, for sequential-run detection.
    last_end_sector: Option<u64>,
    standby: bool,
    /// Cumulative seek count (diagnostics).
    seeks: u64,
    /// Per-op constants derived from `params` once, by [`HddModel::new`]:
    /// the same expressions the service path would evaluate per op.
    overhead: SimDuration,
    write_settle: SimDuration,
    half_rotation: SimDuration,
    /// Seek curve `t(d) = seek_a + seek_b·√d` milliseconds.
    seek_a: f64,
    seek_b: f64,
}

impl HddModel {
    /// New spun-up drive with the head at cylinder 0.
    pub fn new(params: HddParams) -> Self {
        // t(1) = track_to_track and t(cylinders) = full_stroke.
        let span = (params.cylinders as f64).sqrt() - 1.0;
        let seek_b = if span > 0.0 {
            (params.full_stroke_ms - params.track_to_track_ms) / span
        } else {
            0.0
        };
        let mut model = Self {
            overhead: SimDuration::from_micros_f64(params.overhead_us),
            write_settle: SimDuration::from_millis_f64(params.write_settle_ms),
            half_rotation: SimDuration::ZERO,
            seek_a: params.track_to_track_ms - seek_b,
            seek_b,
            params,
            head_cylinder: 0,
            last_end_sector: None,
            standby: false,
            seeks: 0,
        };
        model.half_rotation = SimDuration::from_nanos(model.rotation_time().as_nanos() / 2);
        model
    }

    /// The drive's static parameters.
    pub fn params(&self) -> &HddParams {
        &self.params
    }

    /// Number of seeks performed so far.
    pub fn seek_count(&self) -> u64 {
        self.seeks
    }

    fn cylinder_of(&self, sector: u64) -> u64 {
        // Linear LBA → cylinder mapping; widen to u128 only when the product
        // overflows (the quotient is the same either way).
        let capacity = self.params.capacity_sectors.max(1);
        match sector.checked_mul(self.params.cylinders) {
            Some(product) => product / capacity,
            None => ((sector as u128 * self.params.cylinders as u128) / capacity as u128) as u64,
        }
    }

    /// Seek time for a distance of `d` cylinders.
    ///
    /// `t(d) = a + b·√d` with `t(1) = track_to_track` and
    /// `t(cylinders) = full_stroke`; `t(0) = 0`.
    pub fn seek_time(&self, d: u64) -> SimDuration {
        if d == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_millis_f64(self.seek_a + self.seek_b * (d as f64).sqrt())
    }

    /// One full revolution.
    pub fn rotation_time(&self) -> SimDuration {
        SimDuration::from_secs_f64(60.0 / self.params.rpm)
    }

    /// Media rate at `sector`, bytes per second. Outer tracks (low LBAs) are
    /// faster.
    pub fn media_rate(&self, sector: u64) -> f64 {
        let p = &self.params;
        let frac = sector as f64 / p.capacity_sectors.max(1) as f64;
        (p.outer_mbps + (p.inner_mbps - p.outer_mbps) * frac) * 1e6
    }

    /// Expected service time of a uniformly random 4 KiB op (diagnostic used
    /// by calibration tests).
    pub fn expected_random_service_ms(&self) -> f64 {
        // E[sqrt(d)] for |X−Y| of two uniform cylinders is (8/15)·sqrt(C).
        let p = &self.params;
        let seek = self.seek_a + self.seek_b * (8.0 / 15.0) * (p.cylinders as f64).sqrt();
        let rot = 0.5 * 60_000.0 / p.rpm;
        let transfer = 4096.0 / ((p.outer_mbps + p.inner_mbps) / 2.0 * 1e6) * 1e3;
        seek + rot + transfer + p.overhead_us / 1e3
    }
}

impl DeviceModel for HddModel {
    fn capacity_sectors(&self) -> u64 {
        self.params.capacity_sectors
    }

    fn idle_watts(&self) -> f64 {
        self.params.idle_w
    }

    fn standby_watts(&self) -> f64 {
        self.params.standby_w
    }

    fn service_into(&mut self, op: &DiskOp, phases: &mut Vec<Phase>) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let p = &self.params;

        if self.standby {
            phases.push(Phase {
                duration: SimDuration::from_secs_f64(p.spinup_s),
                watts: p.spinup_w,
                label: PhaseLabel::SpinUp,
            });
            self.standby = false;
        }

        phases.push(Phase {
            duration: self.overhead,
            watts: p.idle_w,
            label: PhaseLabel::Overhead,
        });

        let sequential = self.last_end_sector == Some(op.sector);
        if !sequential {
            let target = self.cylinder_of(op.sector);
            let dist = target.abs_diff(self.head_cylinder);
            let mut seek = self.seek_time(dist);
            if !seek.is_zero() {
                if !op.kind.is_read() {
                    seek += self.write_settle;
                }
                self.seeks += 1;
                phases.push(Phase { duration: seek, watts: p.seek_w, label: PhaseLabel::Seek });
            }
            // Expected rotational latency: half a revolution. Applied to any
            // non-sequential access, including same-cylinder jumps.
            phases.push(Phase {
                duration: self.half_rotation,
                watts: p.idle_w,
                label: PhaseLabel::Rotation,
            });
        }

        let rate = self.media_rate(op.sector);
        let transfer = SimDuration::from_secs_f64(op.bytes() as f64 / rate);
        phases.push(Phase { duration: transfer, watts: p.transfer_w, label: PhaseLabel::Transfer });

        self.head_cylinder = self.cylinder_of(op.sector + op.sectors.saturating_sub(1));
        self.last_end_sector = Some(op.sector + op.sectors);
    }

    fn enter_standby(&mut self) {
        self.standby = true;
        self.last_end_sector = None;
    }

    fn in_standby(&self) -> bool {
        self.standby
    }

    fn name(&self) -> &str {
        &self.params.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tracer_trace::OpKind;

    fn drive() -> HddModel {
        HddModel::new(HddParams::seagate_7200_12_500gb())
    }

    #[test]
    fn seek_curve_endpoints() {
        let d = drive();
        assert_eq!(d.seek_time(0), SimDuration::ZERO);
        let tt = d.seek_time(1).as_millis_f64();
        assert!((tt - 1.0).abs() < 0.01, "track-to-track = {tt}");
        let fs = d.seek_time(d.params().cylinders).as_millis_f64();
        assert!((fs - 18.0).abs() < 0.01, "full stroke = {fs}");
    }

    #[test]
    fn hoisted_constants_match_their_expressions() {
        for params in [
            HddParams::seagate_7200_12_500gb(),
            HddParams::enterprise_15k_600gb(),
            HddParams::eco_5400_2tb(),
            HddParams::seagate_7200_12_500gb().derated(0.6),
        ] {
            let d = HddModel::new(params.clone());
            let p = &params;
            assert_eq!(d.overhead, SimDuration::from_micros_f64(p.overhead_us));
            assert_eq!(d.write_settle, SimDuration::from_millis_f64(p.write_settle_ms));
            assert_eq!(d.half_rotation.as_nanos(), d.rotation_time().as_nanos() / 2);
            let span = (p.cylinders as f64).sqrt() - 1.0;
            let b = (p.full_stroke_ms - p.track_to_track_ms) / span;
            assert_eq!(d.seek_b.to_bits(), b.to_bits());
            assert_eq!(d.seek_a.to_bits(), (p.track_to_track_ms - b).to_bits());
        }
    }

    #[test]
    fn seek_curve_is_monotone() {
        let d = drive();
        let mut last = SimDuration::ZERO;
        for dist in [0u64, 1, 10, 100, 1_000, 10_000, 100_000, 152_000] {
            let t = d.seek_time(dist);
            assert!(t >= last, "seek({dist}) regressed");
            last = t;
        }
    }

    #[test]
    fn rotation_matches_rpm() {
        let d = drive();
        let rot = d.rotation_time().as_millis_f64();
        assert!((rot - 8.333).abs() < 0.01, "7200 rpm rotation = {rot}ms");
    }

    #[test]
    fn expected_random_service_is_realistic() {
        // Sanity check against the spec sheet: a random 4 KiB op on a 7200 rpm
        // desktop drive takes roughly 12–17 ms (avg seek + half rotation).
        let ms = drive().expected_random_service_ms();
        assert!((10.0..20.0).contains(&ms), "random service {ms}ms");
    }

    #[test]
    fn sequential_skips_seek_and_rotation() {
        let mut d = drive();
        let first = d.service(&DiskOp::new(1000, 8, OpKind::Read));
        assert!(!first.time_in(PhaseLabel::Rotation).is_zero());
        let second = d.service(&DiskOp::new(1008, 8, OpKind::Read));
        assert!(second.time_in(PhaseLabel::Seek).is_zero());
        assert!(second.time_in(PhaseLabel::Rotation).is_zero());
        assert!(second.total_duration() < first.total_duration());
    }

    #[test]
    fn random_op_costs_seek_power() {
        let mut d = drive();
        d.service(&DiskOp::new(0, 8, OpKind::Read));
        let far = d.service(&DiskOp::new(900_000_000, 8, OpKind::Read));
        let seek_t = far.time_in(PhaseLabel::Seek);
        assert!(seek_t.as_millis_f64() > 10.0, "far seek = {seek_t}");
        assert!(far.energy_joules() > 0.0);
        // First op starts at cylinder 0 where the head already is: no seek.
        assert_eq!(d.seek_count(), 1);
    }

    #[test]
    fn writes_pay_settle_time() {
        let mut d1 = drive();
        d1.service(&DiskOp::new(0, 8, OpKind::Read));
        let r = d1.service(&DiskOp::new(500_000_000, 8, OpKind::Read));
        let mut d2 = drive();
        d2.service(&DiskOp::new(0, 8, OpKind::Read));
        let w = d2.service(&DiskOp::new(500_000_000, 8, OpKind::Write));
        let diff = w.time_in(PhaseLabel::Seek).as_millis_f64()
            - r.time_in(PhaseLabel::Seek).as_millis_f64();
        assert!((diff - 0.5).abs() < 0.01, "write settle = {diff}ms");
    }

    #[test]
    fn zoned_transfer_rate() {
        let d = drive();
        let outer = d.media_rate(0);
        let inner = d.media_rate(d.capacity_sectors() - 1);
        assert!((outer - 125e6).abs() < 1e3);
        assert!((inner - 60e6).abs() / 60e6 < 0.01);
    }

    #[test]
    fn standby_and_spinup() {
        let mut d = drive();
        assert!(!d.in_standby());
        d.enter_standby();
        assert!(d.in_standby());
        assert!(d.standby_watts() < d.idle_watts());
        let plan = d.service(&DiskOp::new(0, 8, OpKind::Read));
        assert_eq!(plan.time_in(PhaseLabel::SpinUp), SimDuration::from_secs(6));
        assert!(!d.in_standby());
    }

    #[test]
    fn large_transfer_dominates() {
        let mut d = drive();
        let plan = d.service(&DiskOp::new(0, 2048, OpKind::Read)); // 1 MiB at outer edge
        let t = plan.time_in(PhaseLabel::Transfer).as_millis_f64();
        assert!((t - 1048576.0 / 125e6 * 1e3).abs() < 0.05, "1MiB transfer = {t}ms");
    }

    #[test]
    fn derated_drive_is_slower_and_cooler() {
        let full = HddParams::seagate_7200_12_500gb();
        let low = full.derated(0.5); // 3600 rpm gear
        assert!((low.rpm - 3600.0).abs() < 1e-9);
        assert!((low.outer_mbps - 62.5).abs() < 1e-9);
        assert!(low.idle_w < full.idle_w * 0.2, "windage scaling: {}", low.idle_w);
        // Actuator increment preserved.
        assert!((low.seek_w - low.idle_w - (full.seek_w - full.idle_w)).abs() < 1e-9);
        assert!(low.name.contains("3600"));
        // Rotation takes twice as long.
        let mut d = HddModel::new(low);
        assert!((d.rotation_time().as_millis_f64() - 16.667).abs() < 0.01);
        // A random op is slower on the low gear.
        let mut f = HddModel::new(HddParams::seagate_7200_12_500gb());
        f.service(&DiskOp::new(0, 8, OpKind::Read));
        d.service(&DiskOp::new(0, 8, OpKind::Read));
        let slow = d.service(&DiskOp::new(500_000_000, 8, OpKind::Read)).total_duration();
        let fast = f.service(&DiskOp::new(500_000_000, 8, OpKind::Read)).total_duration();
        assert!(slow > fast);
    }

    #[test]
    fn preset_generations_are_ordered_sensibly() {
        let eco = HddParams::eco_5400_2tb();
        let desktop = HddParams::seagate_7200_12_500gb();
        let enterprise = HddParams::enterprise_15k_600gb();
        // Faster spindle -> shorter rotation, higher power.
        assert!(eco.rpm < desktop.rpm && desktop.rpm < enterprise.rpm);
        assert!(eco.idle_w < desktop.idle_w && desktop.idle_w < enterprise.idle_w);
        // Expected random service ordering (ms): 15k << 7200 << 5400.
        let ms = |p: HddParams| HddModel::new(p).expected_random_service_ms();
        assert!(ms(HddParams::enterprise_15k_600gb()) < ms(HddParams::seagate_7200_12_500gb()));
        assert!(ms(HddParams::seagate_7200_12_500gb()) < ms(HddParams::eco_5400_2tb()));
        // Absolute sanity: enterprise random op ~5-8ms, eco ~15-25ms.
        assert!((4.0..9.0).contains(&ms(HddParams::enterprise_15k_600gb())));
        assert!((14.0..28.0).contains(&ms(HddParams::eco_5400_2tb())));
    }

    #[test]
    #[should_panic(expected = "RPM factor")]
    fn derated_rejects_overspeed() {
        HddParams::seagate_7200_12_500gb().derated(1.5);
    }

    proptest! {
        #[test]
        fn prop_derated_monotone_in_factor(f1 in 0.2f64..1.0, df in 0.01f64..0.5) {
            let base = HddParams::seagate_7200_12_500gb();
            let f2 = (f1 + df).min(1.0);
            let a = base.derated(f1);
            let b = base.derated(f2);
            prop_assert!(a.idle_w <= b.idle_w);
            prop_assert!(a.outer_mbps <= b.outer_mbps);
            prop_assert!(a.rpm <= b.rpm);
        }

        #[test]
        fn prop_service_time_positive_and_bounded(
            sector in 0u64..976_000_000,
            sectors in 1u64..4096,
            write in proptest::bool::ANY,
        ) {
            let mut d = drive();
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let plan = d.service(&DiskOp::new(sector, sectors, kind));
            let ms = plan.total_duration().as_millis_f64();
            // Upper bound: full stroke + settle + rotation + worst transfer + overhead.
            prop_assert!(ms > 0.0 && ms < 18.0 + 0.5 + 8.4 + 35.0 + 1.0, "service {ms}ms");
        }

        #[test]
        fn prop_cylinder_of_matches_the_wide_product(sector in any::<u64>(), shift in 0u32..64) {
            // Small sectors take the u64 path, huge ones overflow into u128:
            // both must give the u128 quotient.
            let d = drive();
            let sector = sector >> shift;
            let wide = (sector as u128 * d.params.cylinders as u128
                / d.params.capacity_sectors as u128) as u64;
            prop_assert_eq!(d.cylinder_of(sector), wide);
        }

        #[test]
        fn prop_head_state_makes_repeat_sequential(sector in 0u64..900_000_000) {
            let mut d = drive();
            d.service(&DiskOp::new(sector, 8, OpKind::Read));
            let again = d.service(&DiskOp::new(sector + 8, 8, OpKind::Read));
            prop_assert!(again.time_in(PhaseLabel::Seek).is_zero());
        }
    }
}
