#![doc = "tracer-invariant: deterministic"]
//! Tiered hybrid device: an SSD cache in front of an HDD backing store.
//!
//! The hybrid serves hot regions from flash and cold regions from the disk,
//! the classic energy trade the MAID/PDC literature the paper cites builds
//! on: flash absorbs the random traffic that would otherwise keep the spindle
//! seeking, while the HDD provides the capacity. The model composes the two
//! existing device models rather than re-deriving their physics — the
//! members append their phases straight into the caller's buffer, so a
//! service plan is the concatenation of the sub-device phases involved and
//! power accounting stays exact.
//!
//! Placement policy (deterministic, no clocks, no randomness):
//!
//! * the device is tracked in fixed-size **regions** (default 256 KiB);
//! * a region is **promoted** into flash once it has been touched
//!   `promote_after` times; the promotion charges the migration cost (HDD
//!   read + SSD write of the whole region) to the op that triggered it;
//! * when flash is full the least-recently-used resident region is
//!   **demoted**; a dirty region charges SSD read + HDD write-back.
//!
//! Hit-count state is bounded: counts reset whenever the tracked set grows
//! past four times the cache capacity, which keeps the model O(cache) while
//! remaining a pure function of the op sequence.

use crate::device::{DeviceModel, DiskOp, OpKind, Phase};
use crate::hdd::HddModel;
use crate::ssd::SsdModel;
use serde::{Deserialize, Serialize};

/// Placement-policy parameters of a tiered hybrid device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Region granularity, sectors (default 512 = 256 KiB).
    pub region_sectors: u64,
    /// Accesses to a region before it is promoted into flash.
    pub promote_after: u32,
    /// Flash capacity, regions.
    pub cache_regions: usize,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self { region_sectors: 512, promote_after: 3, cache_regions: 256 }
    }
}

/// A resident flash region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Resident {
    region: u64,
    /// Flash slot the region occupies (stable for its residency).
    slot: usize,
    dirty: bool,
}

/// SSD cache over an HDD backing store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TieredModel {
    name: String,
    ssd: SsdModel,
    hdd: HddModel,
    cfg: TierConfig,
    /// Resident regions, most-recently-used first.
    resident: Vec<Resident>,
    /// `(region, touches)` for non-resident regions (bounded; see module
    /// docs). A plain vector keeps the model serialisable and deterministic.
    heat: Vec<(u64, u32)>,
    promotions: u64,
    demotions: u64,
}

impl TieredModel {
    /// Build a hybrid from its two member models.
    ///
    /// # Panics
    /// Panics if the flash cannot hold `cache_regions` regions.
    pub fn new(name: impl Into<String>, ssd: SsdModel, hdd: HddModel, cfg: TierConfig) -> Self {
        assert!(cfg.region_sectors > 0, "zero region size");
        assert!(cfg.cache_regions > 0, "zero cache capacity");
        assert!(
            ssd.capacity_sectors() >= cfg.cache_regions as u64 * cfg.region_sectors,
            "flash smaller than the configured cache"
        );
        Self {
            name: name.into(),
            ssd,
            hdd,
            cfg,
            resident: Vec::new(),
            heat: Vec::new(),
            promotions: 0,
            demotions: 0,
        }
    }

    /// Promotions performed so far (diagnostics).
    pub fn promotion_count(&self) -> u64 {
        self.promotions
    }

    /// Demotions performed so far (diagnostics).
    pub fn demotion_count(&self) -> u64 {
        self.demotions
    }

    /// Flash-resident sector address of `op` within `slot`.
    fn flash_op(&self, slot: usize, op: &DiskOp) -> DiskOp {
        let offset = op.sector % self.cfg.region_sectors;
        DiskOp::new(slot as u64 * self.cfg.region_sectors + offset, op.sectors, op.kind)
    }

    /// Position of `region` in the residency list.
    fn resident_pos(&self, region: u64) -> Option<usize> {
        self.resident.iter().position(|r| r.region == region)
    }

    /// Evict the LRU resident region, returning the freed slot and appending
    /// the write-back cost to `phases` if the region was dirty.
    fn demote_lru(&mut self, phases: &mut Vec<Phase>) -> usize {
        let victim = self.resident.pop().expect("cache not empty");
        self.demotions += 1;
        if victim.dirty {
            let sectors = self.cfg.region_sectors;
            let flash = DiskOp::new(victim.slot as u64 * sectors, sectors, OpKind::Read);
            self.ssd.service_into(&flash, phases);
            let disk = DiskOp::new(victim.region * sectors, sectors, OpKind::Write);
            self.hdd.service_into(&disk, phases);
        }
        victim.slot
    }
}

impl DeviceModel for TieredModel {
    fn capacity_sectors(&self) -> u64 {
        self.hdd.capacity_sectors()
    }

    fn idle_watts(&self) -> f64 {
        self.ssd.idle_watts() + self.hdd.idle_watts()
    }

    fn standby_watts(&self) -> f64 {
        self.ssd.idle_watts() + self.hdd.standby_watts()
    }

    fn service_into(&mut self, op: &DiskOp, phases: &mut Vec<Phase>) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        let region = op.sector / self.cfg.region_sectors;

        if let Some(pos) = self.resident_pos(region) {
            // Hit: serve from flash and refresh recency.
            let mut entry = self.resident.remove(pos);
            entry.dirty |= !op.kind.is_read();
            let flash = self.flash_op(entry.slot, op);
            self.resident.insert(0, entry);
            self.ssd.service_into(&flash, phases);
            return;
        }

        // Miss: count the touch and decide on promotion.
        let heat_pos = self.heat.iter().position(|&(r, _)| r == region);
        let touches = heat_pos.map_or(0, |i| self.heat[i].1) + 1;
        if touches >= self.cfg.promote_after {
            if let Some(i) = heat_pos {
                self.heat.swap_remove(i);
            }
            let slot = if self.resident.len() >= self.cfg.cache_regions {
                self.demote_lru(phases)
            } else {
                self.resident.len()
            };
            // Migrate the whole region disk → flash, then serve from flash.
            let sectors = self.cfg.region_sectors;
            let fill = DiskOp::new(region * sectors, sectors, OpKind::Read);
            self.hdd.service_into(&fill, phases);
            let store = DiskOp::new(slot as u64 * sectors, sectors, OpKind::Write);
            self.ssd.service_into(&store, phases);
            self.promotions += 1;
            let entry = Resident { region, slot, dirty: !op.kind.is_read() };
            let flash = self.flash_op(slot, op);
            self.resident.insert(0, entry);
            self.ssd.service_into(&flash, phases);
            return;
        }

        match heat_pos {
            Some(i) => self.heat[i].1 = touches,
            None => self.heat.push((region, touches)),
        }
        if self.heat.len() > 4 * self.cfg.cache_regions {
            // Bound the tracking state; a cold sweep simply restarts the
            // counting epoch (deterministically).
            self.heat.clear();
        }
        self.hdd.service_into(op, phases);
    }

    fn enter_standby(&mut self) {
        self.hdd.enter_standby();
    }

    fn in_standby(&self) -> bool {
        self.hdd.in_standby()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::HddParams;
    use crate::ssd::SsdParams;
    use tracer_trace::OpKind;

    fn hybrid(cfg: TierConfig) -> TieredModel {
        TieredModel::new(
            "hybrid-test",
            SsdModel::new(SsdParams::memoright_slc_32gb()),
            HddModel::new(HddParams::seagate_7200_12_500gb()),
            cfg,
        )
    }

    #[test]
    fn cold_reads_hit_the_disk_then_promote() {
        let cfg = TierConfig { promote_after: 3, ..TierConfig::default() };
        let mut d = hybrid(cfg);
        let op = DiskOp::new(0, 8, OpKind::Read);
        // First two touches: pure HDD service (mechanical latency).
        let cold = d.service(&op).total_duration();
        d.service(&op);
        assert_eq!(d.promotion_count(), 0);
        // Third touch promotes (pays migration) …
        d.service(&op);
        assert_eq!(d.promotion_count(), 1);
        // … and the region then serves from flash, faster than the disk.
        let hot = d.service(&op).total_duration();
        assert!(hot < cold, "flash hit {hot:?} must beat disk {cold:?}");
    }

    #[test]
    fn full_cache_demotes_lru_and_writes_back_dirty() {
        let cfg = TierConfig { region_sectors: 512, promote_after: 1, cache_regions: 2 };
        let mut d = hybrid(cfg);
        // Promote regions 0 (via a write: dirty) and 1.
        d.service(&DiskOp::new(0, 8, OpKind::Write));
        d.service(&DiskOp::new(512, 8, OpKind::Read));
        assert_eq!(d.promotion_count(), 2);
        // Touch region 0 so region 1 becomes LRU, then promote region 2.
        d.service(&DiskOp::new(16, 8, OpKind::Read));
        d.service(&DiskOp::new(1024, 8, OpKind::Read));
        assert_eq!(d.demotion_count(), 1);
        // Region 1 was clean: evicted silently. Promote region 3 — region 0
        // is now LRU and dirty, so its demotion charges a write-back.
        let dirty_evict = d.service(&DiskOp::new(1536, 8, OpKind::Read));
        assert_eq!(d.demotion_count(), 2);
        // The op that evicted dirty region 0 carries strictly more phases
        // than a promotion with no eviction would.
        let base = hybrid(cfg).service(&DiskOp::new(1536, 8, OpKind::Read)).phases.len();
        assert!(dirty_evict.phases.len() > base, "dirty write-back adds phases");
    }

    #[test]
    fn heat_tracking_stays_bounded() {
        let cfg = TierConfig { region_sectors: 512, promote_after: 100, cache_regions: 2 };
        let mut d = hybrid(cfg);
        for i in 0..1_000u64 {
            d.service(&DiskOp::new(i * 512, 8, OpKind::Read));
        }
        assert!(d.heat.len() <= 4 * cfg.cache_regions, "heat map must stay bounded");
        assert_eq!(d.promotion_count(), 0);
    }

    #[test]
    fn identical_op_sequences_yield_identical_plans() {
        let cfg = TierConfig::default();
        let ops: Vec<DiskOp> = (0..200u64)
            .map(|i| {
                let sector = (i * 7919) % 100_000;
                let kind = if i % 3 == 0 { OpKind::Write } else { OpKind::Read };
                DiskOp::new(sector, 8, kind)
            })
            .collect();
        let mut a = hybrid(cfg);
        let mut b = hybrid(cfg);
        for op in &ops {
            assert_eq!(a.service(op), b.service(op));
        }
    }

    #[test]
    fn idle_power_is_the_sum_of_members() {
        let d = hybrid(TierConfig::default());
        assert!((d.idle_watts() - (3.5 + 5.0)).abs() < 1e-12);
        // Standby spins the disk down but keeps the flash powered.
        assert!((d.standby_watts() - (3.5 + 0.8)).abs() < 1e-12);
    }
}
