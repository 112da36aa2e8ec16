#![doc = "tracer-invariant: deterministic"]
//! Array geometry: striping, mirroring and rotated-parity placement.
//!
//! The paper's testbed is a RAID-5 array with a 128 KB strip (§VI); writes on
//! such an array pay the classic small-write penalty (read-modify-write)
//! unless they cover a full stripe. The geometry module is pure address
//! arithmetic: it turns a logical request into per-disk extents and, for
//! parity-RAID writes, into a two-phase plan (old-data/parity reads, then
//! data/parity writes) choosing between read-modify-write and
//! reconstruct-write by which needs fewer disk reads.
//!
//! RAID-5 and RAID-6 are one planner: the level is only the number `k` of
//! parity strips per stripe ([`StripeLayout::parity_strips`], 1 or 2), so
//! the same stripe walk plans both. RAID-1 and RAID-10 are one planner over
//! a mirror group (every member, or a pair).

use crate::stripe::StripeLayout;
use serde::{Deserialize, Serialize};
use tracer_trace::OpKind;

/// Redundancy scheme of the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Redundancy {
    /// Plain striping (RAID-0); a single-disk "array" is RAID-0 with 1 disk.
    Raid0,
    /// N-way mirroring (RAID-1): every member holds a full copy; reads
    /// alternate over the members, writes go to all of them.
    Raid1,
    /// Left-symmetric rotating parity (RAID-5).
    Raid5,
    /// Double rotated parity (RAID-6): P rotates left-symmetrically like
    /// RAID-5, Q sits cyclically adjacent to P, data strips fill the
    /// remaining members after Q.
    Raid6,
    /// Mirrored striping (RAID-10): strips round-robin over mirror pairs;
    /// reads alternate between the two copies, writes go to both.
    Raid10,
}

/// Striping geometry of an array.
///
/// ```
/// use tracer_sim::Geometry;
/// use tracer_sim::device::OpKind;
///
/// // The paper's testbed: RAID-5 over six disks, 128 KB strip.
/// let g = Geometry::raid5(6);
/// // A 4 KiB write is a small write: read old data + parity, write both.
/// let plan = g.plan(0, 8, OpKind::Write);
/// assert_eq!(plan.pre_reads.len(), 2);
/// assert_eq!(plan.ops.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of member disks.
    pub disks: usize,
    /// Strip (chunk) size in sectors. The paper uses 128 KB = 256 sectors.
    pub strip_sectors: u64,
    /// Redundancy scheme.
    pub redundancy: Redundancy,
}

/// A contiguous operation on one member disk, in disk-local sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskExtent {
    /// Member disk index.
    pub disk: usize,
    /// Starting disk-local sector.
    pub sector: u64,
    /// Length in sectors.
    pub sectors: u64,
    /// Read or write.
    pub kind: OpKind,
}

/// A request decomposed into disk operations.
///
/// `pre_reads` must complete before `ops` may issue (the parity-RAID write
/// two-phase); for reads `pre_reads` is empty.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoPlan {
    /// Phase 1: old data / parity / peer reads needed to compute parity.
    pub pre_reads: Vec<DiskExtent>,
    /// Phase 2: the data transfers (plus parity writes for parity-RAID
    /// writes).
    pub ops: Vec<DiskExtent>,
    /// Bytes passed through the controller's XOR engine for this request.
    pub parity_xor_bytes: u64,
}

impl IoPlan {
    /// Total disk operations across both phases.
    pub fn op_count(&self) -> usize {
        self.pre_reads.len() + self.ops.len()
    }
}

impl Geometry {
    /// RAID-5 geometry with the paper's 128 KB strip.
    pub fn raid5(disks: usize) -> Self {
        assert!(disks >= 3, "RAID-5 needs at least 3 disks");
        Self { disks, strip_sectors: 256, redundancy: Redundancy::Raid5 }
    }

    /// RAID-0 geometry with the paper's 128 KB strip. A zero-disk geometry is
    /// permitted so that the chassis-only idle measurement of the paper's
    /// Fig. 7 can be expressed; such an array cannot serve requests.
    pub fn raid0(disks: usize) -> Self {
        Self { disks, strip_sectors: 256, redundancy: Redundancy::Raid0 }
    }

    /// A single-disk pass-through geometry.
    pub fn single() -> Self {
        Self::raid0(1)
    }

    /// RAID-10 geometry (mirrored striping) with the paper's 128 KB strip.
    pub fn raid10(disks: usize) -> Self {
        assert!(disks >= 2 && disks % 2 == 0, "RAID-10 needs an even disk count >= 2");
        Self { disks, strip_sectors: 256, redundancy: Redundancy::Raid10 }
    }

    /// RAID-6 geometry (rotated P+Q) with the paper's 128 KB strip.
    pub fn raid6(disks: usize) -> Self {
        assert!(disks >= 4, "RAID-6 needs at least 4 disks");
        Self { disks, strip_sectors: 256, redundancy: Redundancy::Raid6 }
    }

    /// RAID-1 geometry (N-way mirror) with the paper's 128 KB strip.
    pub fn raid1(disks: usize) -> Self {
        assert!(disks >= 2, "RAID-1 needs at least 2 disks");
        Self { disks, strip_sectors: 256, redundancy: Redundancy::Raid1 }
    }

    /// The rotated-parity layout behind this geometry, when it has one
    /// (mirrored schemes place by pairing, not rotation).
    fn layout(&self) -> Option<StripeLayout> {
        match self.redundancy {
            Redundancy::Raid0 => Some(StripeLayout::new(self.disks.max(1), 0)),
            Redundancy::Raid5 => Some(StripeLayout::new(self.disks, 1)),
            Redundancy::Raid6 => Some(StripeLayout::new(self.disks, 2)),
            Redundancy::Raid1 | Redundancy::Raid10 => None,
        }
    }

    /// Number of data strips per stripe.
    pub fn data_disks(&self) -> usize {
        match self.redundancy {
            Redundancy::Raid0 => self.disks,
            Redundancy::Raid1 => 1,
            Redundancy::Raid5 => self.disks - 1,
            Redundancy::Raid6 => self.disks - 2,
            Redundancy::Raid10 => self.disks / 2,
        }
    }

    /// Usable data capacity given the per-disk capacity.
    pub fn data_capacity_sectors(&self, disk_capacity: u64) -> u64 {
        (disk_capacity / self.strip_sectors) * self.strip_sectors * self.data_disks() as u64
    }

    /// Parity disk for `stripe` (left-symmetric): parity starts on the last
    /// disk and rotates backwards. For RAID-6 this is the P strip.
    pub fn parity_disk(&self, stripe: u64) -> Option<usize> {
        match self.redundancy {
            Redundancy::Raid0 | Redundancy::Raid1 | Redundancy::Raid10 => None,
            Redundancy::Raid5 | Redundancy::Raid6 => {
                Some(self.layout().expect("rotated layout").parity_member(stripe, 0))
            }
        }
    }

    /// RAID-6 Q-strip disk for `stripe` (cyclically adjacent to P).
    pub fn q_disk(&self, stripe: u64) -> Option<usize> {
        match self.redundancy {
            Redundancy::Raid6 => {
                Some(self.layout().expect("rotated layout").parity_member(stripe, 1))
            }
            _ => None,
        }
    }

    /// RAID-10: the two member disks holding copies of logical strip `l`.
    fn mirror_pair(&self, logical_strip: u64) -> (usize, usize) {
        let pair = (logical_strip % self.data_disks() as u64) as usize;
        (pair * 2, pair * 2 + 1)
    }

    /// Map a logical sector to `(stripe, data-strip index, disk, disk sector)`.
    pub fn locate(&self, logical_sector: u64) -> StripLocation {
        let strip = self.strip_sectors;
        let logical_strip = logical_sector / strip;
        let offset = logical_sector % strip;
        let data = self.data_disks() as u64;
        let stripe = logical_strip / data;
        let index = (logical_strip % data) as usize;
        let disk = match self.redundancy {
            Redundancy::Raid0 | Redundancy::Raid5 | Redundancy::Raid6 => {
                self.layout().expect("rotated layout").data_member(stripe, index)
            }
            Redundancy::Raid1 => {
                // N-way mirror: the primary copy rotates over the members so
                // reads spread; every member holds the same disk sector.
                (stripe % self.disks as u64) as usize
            }
            Redundancy::Raid10 => {
                // Primary copy: alternate mirror halves by stripe so reads
                // spread over both members.
                let (a, b) = self.mirror_pair(logical_strip);
                if stripe % 2 == 0 {
                    a
                } else {
                    b
                }
            }
        };
        StripLocation { stripe, index, disk, disk_sector: stripe * strip + offset }
    }

    /// Decompose a logical request into a per-disk plan.
    ///
    /// Reads simply fan out. Parity-RAID (RAID-5, RAID-6) writes are planned
    /// per stripe: full-stripe writes compute the parities from the new data
    /// (no reads); partial writes choose read-modify-write (read touched
    /// strips + parities) or reconstruct-write (read untouched strips),
    /// whichever reads less. Mirrored writes go to every copy.
    pub fn plan(&self, logical_sector: u64, sectors: u64, kind: OpKind) -> IoPlan {
        self.plan_with_failure(logical_sector, sectors, kind, None)
    }

    /// [`Geometry::plan`] with an optional failed member (degraded array).
    ///
    /// Degraded operation is the mechanism behind redundancy-based energy
    /// conservation (eRAID spins a disk down and serves through parity or a
    /// mirror). On parity RAID, reads on the failed disk reconstruct from P
    /// and the surviving data strips; writes touching the failed disk fold
    /// the lost data into the surviving parities; a failed parity member
    /// simply drops its update. On mirrors, reads hop to the next copy and
    /// writes skip the failed one.
    ///
    /// # Panics
    /// Panics if a failure is given for a RAID-0 geometry (no redundancy) or
    /// the failed index is out of range.
    pub fn plan_with_failure(
        &self,
        logical_sector: u64,
        sectors: u64,
        kind: OpKind,
        failed: Option<usize>,
    ) -> IoPlan {
        let mut plan = IoPlan::default();
        self.plan_into(logical_sector, sectors, kind, failed, &mut plan);
        plan
    }

    /// [`Geometry::plan_with_failure`] into a caller-owned plan: `plan`'s
    /// extent vectors are cleared and refilled, so a caller that keeps one
    /// plan per in-flight request plans without allocating once their
    /// capacity has grown to the largest request seen.
    pub(crate) fn plan_into(
        &self,
        logical_sector: u64,
        sectors: u64,
        kind: OpKind,
        failed: Option<usize>,
        plan: &mut IoPlan,
    ) {
        #![doc = "tracer-invariant: no-alloc-hot"]
        assert!(sectors > 0, "zero-length request");
        if let Some(f) = failed {
            assert!(f < self.disks, "failed disk index out of range");
            assert_ne!(
                self.redundancy,
                Redundancy::Raid0,
                "RAID-0 has no redundancy to run degraded on"
            );
        }
        plan.pre_reads.clear();
        plan.ops.clear();
        plan.parity_xor_bytes = 0;
        match (self.layout(), kind, failed) {
            (None, ..) => self.plan_mirrored(logical_sector, sectors, kind, failed, &mut plan.ops),
            (Some(layout), OpKind::Write, _) if layout.parity_strips > 0 => {
                self.plan_parity_write(layout, logical_sector, sectors, failed, plan)
            }
            (Some(layout), OpKind::Read, Some(f)) => {
                self.plan_degraded_read(layout, logical_sector, sectors, f, plan)
            }
            _ => plan.ops.extend(self.map_extent(logical_sector, sectors, kind)),
        }
        merge_extents(&mut plan.pre_reads);
        merge_extents(&mut plan.ops);
    }

    /// RAID-1 / RAID-10: every extent belongs to a mirror group — all members
    /// for RAID-1, the extent's pair for RAID-10. Reads go to the primary, or
    /// to the next copy in the group when the primary is the failed member;
    /// writes go to every surviving copy. No reconstruction math.
    fn plan_mirrored(
        &self,
        logical_sector: u64,
        sectors: u64,
        kind: OpKind,
        failed: Option<usize>,
        ops: &mut Vec<DiskExtent>,
    ) {
        for e in self.map_extent(logical_sector, sectors, kind) {
            let (first, copies) = if self.redundancy == Redundancy::Raid1 {
                (0, self.disks)
            } else {
                (e.disk & !1, 2)
            };
            match kind {
                OpKind::Read if failed == Some(e.disk) => {
                    ops.push(DiskExtent { disk: first + (e.disk - first + 1) % copies, ..e })
                }
                OpKind::Read => ops.push(e),
                OpKind::Write => ops.extend(
                    (first..first + copies)
                        .filter(|&d| failed != Some(d))
                        .map(|disk| DiskExtent { disk, ..e }),
                ),
            }
        }
    }

    /// Parity-RAID degraded read: the lost rows are rebuilt from P plus
    /// every other data member. Q never takes part in a single-failure
    /// rebuild — plain XOR suffices — which keeps the reconstruction
    /// brute-force checkable.
    fn plan_degraded_read(
        &self,
        layout: StripeLayout,
        logical_sector: u64,
        sectors: u64,
        failed: usize,
        plan: &mut IoPlan,
    ) {
        let mut xor_sectors = 0u64;
        for ext in self.map_extent(logical_sector, sectors, OpKind::Read) {
            if ext.disk != failed {
                plan.ops.push(ext);
                continue;
            }
            let stripe = ext.sector / self.strip_sectors;
            let is_q =
                |d: usize| (1..layout.parity_strips).any(|k| layout.parity_member(stripe, k) == d);
            plan.ops.extend(
                (0..self.disks)
                    .filter(|&d| d != failed && !is_q(d))
                    .map(|disk| DiskExtent { disk, ..ext }),
            );
            xor_sectors += ext.sectors * (self.disks - layout.parity_strips) as u64;
        }
        plan.parity_xor_bytes = xor_sectors * tracer_trace::SECTOR_BYTES;
    }

    /// Fan a logical extent out to per-disk extents (no parity handling),
    /// one per strip it crosses.
    fn map_extent(
        &self,
        logical_sector: u64,
        sectors: u64,
        kind: OpKind,
    ) -> impl Iterator<Item = DiskExtent> + '_ {
        let strip = self.strip_sectors;
        let end = logical_sector + sectors;
        let mut cur = logical_sector;
        std::iter::from_fn(move || {
            (cur < end).then(|| {
                let loc = self.locate(cur);
                let take = (strip - cur % strip).min(end - cur);
                cur += take;
                DiskExtent { disk: loc.disk, sector: loc.disk_sector, sectors: take, kind }
            })
        })
    }

    /// Parity-RAID write planning for `k = layout.parity_strips` parity
    /// strips per stripe, one stripe segment at a time. Only the surviving
    /// ("live") parity members are maintained: full-stripe writes compute
    /// each from the new data alone; partial writes use read-modify-write
    /// (old data + live parities) when it reads no more than
    /// reconstruct-write (untouched data strips) or when the failed member is
    /// an untouched data strip; a write to the failed member folds its new
    /// data into the live parities by reconstruct-write.
    fn plan_parity_write(
        &self,
        layout: StripeLayout,
        logical_sector: u64,
        sectors: u64,
        failed: Option<usize>,
        plan: &mut IoPlan,
    ) {
        let strip = self.strip_sectors;
        let data = layout.data_strips() as u64;
        let stripe_sectors = strip * data;
        let IoPlan { pre_reads, ops, .. } = plan;
        let mut xor_sectors = 0u64;

        let mut cur = logical_sector;
        let end = logical_sector + sectors;
        while cur < end {
            let stripe = cur / stripe_sectors;
            let seg_end = end.min((stripe + 1) * stripe_sectors);

            // Data writes of this segment (appended to `ops` from `first`),
            // and the union row range (strip-relative) the parities cover.
            let first = ops.len();
            let (mut row_min, mut row_max) = (u64::MAX, 0u64);
            while cur < seg_end {
                let loc = self.locate(cur);
                let take = (strip - cur % strip).min(seg_end - cur);
                let row0 = loc.disk_sector % strip;
                row_min = row_min.min(row0);
                row_max = row_max.max(row0 + take);
                ops.push(DiskExtent {
                    disk: loc.disk,
                    sector: loc.disk_sector,
                    sectors: take,
                    kind: OpKind::Write,
                });
                cur += take;
            }
            let rows = row_max - row_min;
            let rows_on = |disk, kind| DiskExtent {
                disk,
                sector: stripe * strip + row_min,
                sectors: rows,
                kind,
            };

            // Geometry levels carry at most two parity strips (P, Q).
            let mut live = [0usize; 2];
            let mut n_live = 0;
            for k in 0..layout.parity_strips {
                let d = layout.parity_member(stripe, k);
                if failed != Some(d) {
                    live[n_live] = d;
                    n_live += 1;
                }
            }
            let live = &live[..n_live];
            if live.is_empty() {
                // Only reachable with k = 1 and P failed: plain data writes,
                // no parity maintenance possible for this stripe.
                continue;
            }
            let live_n = live.len() as u64;

            let writes = &ops[first..];
            let touched = writes.len() as u64;
            let lost = writes.iter().position(|w| failed == Some(w.disk));
            if touched == data && rows == strip && writes.iter().all(|w| w.sectors == strip) {
                xor_sectors += live_n * stripe_sectors;
            } else if lost.is_none()
                && (touched + live_n <= data - touched
                    // An untouched failed data strip rules reconstruct out.
                    || failed.is_some_and(|f| !layout.is_parity_member(stripe, f)))
            {
                pre_reads.extend(writes.iter().map(|w| DiskExtent { kind: OpKind::Read, ..*w }));
                pre_reads.extend(live.iter().map(|&p| rows_on(p, OpKind::Read)));
                xor_sectors += 2 * (touched + live_n) * rows;
            } else {
                for idx in 0..layout.data_strips() {
                    let disk = layout.data_member(stripe, idx);
                    if failed != Some(disk) && !writes.iter().any(|w| w.disk == disk) {
                        pre_reads.push(rows_on(disk, OpKind::Read));
                    }
                }
                xor_sectors += (data + live_n) * rows;
            }

            if let Some(i) = lost {
                ops.swap_remove(first + i);
            }
            ops.extend(live.iter().map(|&p| rows_on(p, OpKind::Write)));
        }
        plan.parity_xor_bytes = xor_sectors * tracer_trace::SECTOR_BYTES;
    }
}

/// Result of [`Geometry::locate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripLocation {
    /// Stripe number.
    pub stripe: u64,
    /// Data-strip index within the stripe (0-based, parity excluded).
    pub index: usize,
    /// Member disk holding the sector.
    pub disk: usize,
    /// Disk-local sector.
    pub disk_sector: u64,
}

/// Sort extents by `(disk, sector)` — stably, so equal keys keep planning
/// order — and merge, in place, those contiguous on the same disk with the
/// same kind.
fn merge_extents(extents: &mut Vec<DiskExtent>) {
    if extents.len() < 2 {
        return;
    }
    extents.sort_by_key(|e| (e.disk, e.sector));
    extents.dedup_by(|e, last| {
        let adjacent =
            last.disk == e.disk && last.kind == e.kind && last.sector + last.sectors == e.sector;
        if adjacent {
            last.sectors += e.sectors;
        }
        adjacent
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn parity_rotates_over_all_disks() {
        let g = Geometry::raid5(5);
        let seen: HashSet<_> = (0..5).map(|s| g.parity_disk(s).unwrap()).collect();
        assert_eq!(seen.len(), 5);
        assert_eq!(g.parity_disk(0), Some(4));
        assert_eq!(g.parity_disk(1), Some(3));
        assert_eq!(g.parity_disk(5), Some(4)); // period = disks
    }

    #[test]
    fn locate_never_hits_parity() {
        let g = Geometry::raid5(4);
        for ls in (0..40_000).step_by(64) {
            let loc = g.locate(ls);
            assert_ne!(Some(loc.disk), g.parity_disk(loc.stripe), "sector {ls}");
        }
    }

    #[test]
    fn raid0_round_robin() {
        let g = Geometry::raid0(3);
        assert_eq!(g.locate(0).disk, 0);
        assert_eq!(g.locate(256).disk, 1);
        assert_eq!(g.locate(512).disk, 2);
        assert_eq!(g.locate(768).disk, 0);
        assert_eq!(g.locate(768).disk_sector, 256);
        assert!(g.parity_disk(0).is_none());
    }

    #[test]
    fn data_capacity() {
        let g = Geometry::raid5(6);
        assert_eq!(g.data_disks(), 5);
        // 1000 strips per disk, 5 data disks.
        assert_eq!(g.data_capacity_sectors(256_000), 256_000 * 5);
        // Trailing partial strip on each disk is unusable.
        assert_eq!(g.data_capacity_sectors(256_100), 256_000 * 5);
    }

    #[test]
    fn read_fans_out_and_merges() {
        let g = Geometry::raid5(4);
        // 3 data disks; read 2 full stripes = 6 strips.
        let plan = g.plan(0, 256 * 6, OpKind::Read);
        assert!(plan.pre_reads.is_empty());
        assert_eq!(plan.parity_xor_bytes, 0);
        let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 256 * 6);
        // Stripe 0 parity on disk 3, stripe 1 on disk 2: data extents land on
        // disks {0,1,2} then {3,0,1}; merging keeps disk count <= 4.
        assert!(plan.ops.len() <= 6);
        assert!(plan.ops.iter().all(|e| e.kind == OpKind::Read));
    }

    #[test]
    fn small_write_is_rmw() {
        let g = Geometry::raid5(6);
        // 4 KiB write: one data strip touched -> RMW (2 reads, 2 writes).
        let plan = g.plan(0, 8, OpKind::Write);
        assert_eq!(plan.pre_reads.len(), 2);
        assert_eq!(plan.ops.len(), 2);
        let parity = g.parity_disk(0).unwrap();
        assert!(plan.pre_reads.iter().any(|e| e.disk == parity));
        assert!(plan.ops.iter().any(|e| e.disk == parity && e.kind == OpKind::Write));
        // Parity extent covers exactly the written rows.
        let pw = plan.ops.iter().find(|e| e.disk == parity).unwrap();
        assert_eq!(pw.sectors, 8);
        assert!(plan.parity_xor_bytes > 0);
    }

    #[test]
    fn full_stripe_write_needs_no_reads() {
        let g = Geometry::raid5(4);
        let stripe_sectors = 256 * 3;
        let plan = g.plan(0, stripe_sectors, OpKind::Write);
        assert!(plan.pre_reads.is_empty());
        // 3 data strips + parity.
        let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 256 * 4);
        assert!(plan.ops.iter().all(|e| e.kind == OpKind::Write));
    }

    #[test]
    fn wide_partial_write_uses_reconstruct() {
        let g = Geometry::raid5(6);
        // Touch 4 of 5 data strips fully: RMW needs 5 reads, reconstruct 1.
        let plan = g.plan(0, 256 * 4, OpKind::Write);
        assert_eq!(plan.pre_reads.len(), 1);
        let untouched_reads = &plan.pre_reads[0];
        assert_eq!(untouched_reads.sectors, 256);
        assert_eq!(plan.ops.iter().map(|e| e.sectors).sum::<u64>(), 256 * 5);
    }

    #[test]
    fn multi_stripe_write_plans_each_stripe() {
        let g = Geometry::raid5(4);
        let stripe_sectors = 256 * 3;
        // Half of stripe 0's last strip + all of stripe 1.
        let plan = g.plan(stripe_sectors - 128, 128 + stripe_sectors, OpKind::Write);
        // Stripe 0: small write (RMW: 2 reads). Stripe 1: full stripe.
        assert_eq!(plan.pre_reads.len(), 2);
        let writes: u64 = plan.ops.iter().map(|e| e.sectors).sum();
        assert_eq!(writes, 128 + 128 /*stripe0 parity rows*/ + 256 * 4);
    }

    #[test]
    fn degraded_read_on_surviving_disk_is_unchanged() {
        let g = Geometry::raid5(4);
        let healthy = g.plan(0, 8, OpKind::Read);
        // Sector 0 lives on disk 0 (stripe 0, parity on disk 3).
        let degraded = g.plan_with_failure(0, 8, OpKind::Read, Some(2));
        assert_eq!(healthy, degraded, "failure elsewhere must not change the plan");
    }

    #[test]
    fn degraded_read_reconstructs_from_all_survivors() {
        let g = Geometry::raid5(4);
        // Sector 0 -> disk 0. Fail disk 0: read must touch disks 1, 2, 3.
        let plan = g.plan_with_failure(0, 8, OpKind::Read, Some(0));
        let disks: std::collections::HashSet<usize> = plan.ops.iter().map(|e| e.disk).collect();
        assert_eq!(disks, [1usize, 2, 3].into_iter().collect());
        assert!(plan.ops.iter().all(|e| e.sectors == 8 && e.kind == OpKind::Read));
        assert!(plan.parity_xor_bytes > 0, "reconstruction must charge XOR time");
        assert!(plan.pre_reads.is_empty());
    }

    #[test]
    fn degraded_write_to_lost_strip_folds_into_parity() {
        let g = Geometry::raid5(4);
        // Write to disk 0's strip with disk 0 failed: read the untouched
        // healthy strips (disks 1 and 2... minus parity), write parity only.
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(0));
        let parity = g.parity_disk(0).unwrap();
        assert_eq!(parity, 3);
        // Untouched healthy data strips: disks 1, 2.
        let read_disks: std::collections::HashSet<usize> =
            plan.pre_reads.iter().map(|e| e.disk).collect();
        assert_eq!(read_disks, [1usize, 2].into_iter().collect());
        // No write can land on the failed disk.
        assert!(plan.ops.iter().all(|e| e.disk != 0));
        assert!(plan.ops.iter().any(|e| e.disk == parity && e.kind == OpKind::Write));
    }

    #[test]
    fn degraded_write_with_failed_parity_skips_parity() {
        let g = Geometry::raid5(4);
        // Stripe 0's parity is disk 3; fail it.
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(3));
        assert!(plan.pre_reads.is_empty());
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.ops[0].disk, 0);
        assert_eq!(plan.parity_xor_bytes, 0);
    }

    #[test]
    fn degraded_write_on_healthy_strips_uses_rmw() {
        let g = Geometry::raid5(5);
        // Write to disk 0's strip; fail disk 2 (an untouched data member):
        // reconstruct-write is impossible, RMW must be chosen.
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(2));
        assert!(plan.ops.iter().chain(&plan.pre_reads).all(|e| e.disk != 2));
        assert_eq!(plan.pre_reads.len(), 2, "RMW: old data + old parity");
    }

    #[test]
    #[should_panic(expected = "no redundancy")]
    fn degraded_raid0_panics() {
        Geometry::raid0(3).plan_with_failure(0, 8, OpKind::Read, Some(0));
    }

    #[test]
    fn raid10_mapping_and_plans() {
        let g = Geometry::raid10(6); // 3 mirror pairs
        assert_eq!(g.data_disks(), 3);
        assert_eq!(g.data_capacity_sectors(256_000), 256_000 * 3);
        // Reads alternate primary halves across stripes.
        let even = g.locate(0); // stripe 0
        let odd = g.locate(3 * 256); // stripe 1, same pair 0
        assert_eq!(even.disk & !1, odd.disk & !1, "same mirror pair");
        assert_ne!(even.disk, odd.disk, "alternating halves");
        // A write lands on both members of the pair, same disk sector.
        let plan = g.plan(0, 8, OpKind::Write);
        assert!(plan.pre_reads.is_empty());
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.ops[0].sector, plan.ops[1].sector);
        assert_eq!(plan.ops[0].disk ^ 1, plan.ops[1].disk);
        assert_eq!(plan.parity_xor_bytes, 0);
        // A read is a single op.
        assert_eq!(g.plan(0, 8, OpKind::Read).ops.len(), 1);
    }

    #[test]
    fn raid10_degraded_redirects_to_the_mirror() {
        let g = Geometry::raid10(4);
        // Find the primary for sector 0 and fail it.
        let primary = g.locate(0).disk;
        let plan = g.plan_with_failure(0, 8, OpKind::Read, Some(primary));
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.ops[0].disk, primary ^ 1, "read hops to the mirror");
        // Degraded write: single copy written.
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(primary));
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.ops[0].disk, primary ^ 1);
    }

    #[test]
    #[should_panic(expected = "even disk count")]
    fn raid10_rejects_odd_disks() {
        Geometry::raid10(5);
    }

    #[test]
    fn raid6_p_q_rotate_together() {
        let g = Geometry::raid6(6);
        assert_eq!(g.data_disks(), 4);
        for stripe in 0..12u64 {
            let p = g.parity_disk(stripe).unwrap();
            let q = g.q_disk(stripe).unwrap();
            assert_eq!((p + 1) % 6, q, "Q cyclically adjacent to P");
        }
        // P visits every member over one period, like RAID-5.
        let seen: HashSet<_> = (0..6).map(|s| g.parity_disk(s).unwrap()).collect();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn raid6_locate_never_hits_p_or_q() {
        let g = Geometry::raid6(5);
        for ls in (0..40_000).step_by(64) {
            let loc = g.locate(ls);
            assert_ne!(Some(loc.disk), g.parity_disk(loc.stripe), "sector {ls} on P");
            assert_ne!(Some(loc.disk), g.q_disk(loc.stripe), "sector {ls} on Q");
        }
    }

    #[test]
    fn raid6_small_write_is_rmw_with_both_parities() {
        let g = Geometry::raid6(6);
        // One data strip touched: RMW reads data + P + Q (3) vs reconstruct
        // reads the 3 untouched strips — RMW wins the tie.
        let plan = g.plan(0, 8, OpKind::Write);
        assert_eq!(plan.pre_reads.len(), 3);
        assert_eq!(plan.ops.len(), 3);
        let p = g.parity_disk(0).unwrap();
        let q = g.q_disk(0).unwrap();
        for parity in [p, q] {
            assert!(plan.pre_reads.iter().any(|e| e.disk == parity));
            assert!(plan.ops.iter().any(|e| e.disk == parity && e.kind == OpKind::Write));
        }
        assert!(plan.parity_xor_bytes > 0);
    }

    #[test]
    fn raid6_full_stripe_write_needs_no_reads() {
        let g = Geometry::raid6(6);
        let stripe_sectors = 256 * 4;
        let plan = g.plan(0, stripe_sectors, OpKind::Write);
        assert!(plan.pre_reads.is_empty());
        // 4 data strips + P + Q.
        let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
        assert_eq!(total, 256 * 6);
    }

    #[test]
    fn raid6_degraded_write_with_failed_parity_keeps_survivor() {
        let g = Geometry::raid6(6);
        let p = g.parity_disk(0).unwrap();
        let q = g.q_disk(0).unwrap();
        // Fail Q: the write still maintains P like a RAID-5 small write.
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(q));
        assert!(plan.ops.iter().chain(&plan.pre_reads).all(|e| e.disk != q));
        assert!(plan.ops.iter().any(|e| e.disk == p && e.kind == OpKind::Write));
        assert_eq!(plan.pre_reads.len(), 2, "RMW: old data + old P");
    }

    #[test]
    fn raid6_degraded_write_to_lost_strip_folds_into_both_parities() {
        let g = Geometry::raid6(6);
        let lost = g.locate(0).disk;
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(lost));
        let p = g.parity_disk(0).unwrap();
        let q = g.q_disk(0).unwrap();
        assert!(plan.ops.iter().chain(&plan.pre_reads).all(|e| e.disk != lost));
        for parity in [p, q] {
            assert!(plan.ops.iter().any(|e| e.disk == parity && e.kind == OpKind::Write));
        }
        // Untouched healthy data strips are read to fold the lost data in.
        assert_eq!(plan.pre_reads.len(), g.data_disks() - 1);
    }

    #[test]
    fn raid1_mirrors_every_write_and_rotates_reads() {
        let g = Geometry::raid1(3);
        assert_eq!(g.data_disks(), 1);
        assert_eq!(g.data_capacity_sectors(256_000), 256_000);
        // Primary copy rotates over the members stripe by stripe.
        assert_eq!(g.locate(0).disk, 0);
        assert_eq!(g.locate(256).disk, 1);
        assert_eq!(g.locate(512).disk, 2);
        assert_eq!(g.locate(768).disk, 0);
        // A write fans out to all three copies at the same disk sector.
        let plan = g.plan(0, 8, OpKind::Write);
        assert_eq!(plan.ops.len(), 3);
        assert!(plan.ops.iter().all(|e| e.sector == plan.ops[0].sector));
        assert_eq!(plan.parity_xor_bytes, 0);
        // A read is a single op on the primary.
        assert_eq!(g.plan(0, 8, OpKind::Read).ops.len(), 1);
    }

    #[test]
    fn raid1_degraded_hops_to_next_survivor() {
        let g = Geometry::raid1(2);
        let primary = g.locate(0).disk;
        let plan = g.plan_with_failure(0, 8, OpKind::Read, Some(primary));
        assert_eq!(plan.ops.len(), 1);
        assert_eq!(plan.ops[0].disk, (primary + 1) % 2);
        let plan = g.plan_with_failure(0, 8, OpKind::Write, Some(primary));
        assert_eq!(plan.ops.len(), 1, "only the surviving copy is written");
    }

    #[test]
    fn degraded_full_stripe_write_charges_the_healthy_parity_xor() {
        // A full-stripe write computes each live parity from the new data
        // alone, whether or not a data member is down: k · data · strip.
        for (g, k) in [(Geometry::raid5(5), 1u64), (Geometry::raid6(6), 2)] {
            let data = g.data_disks() as u64;
            let stripe_sectors = data * g.strip_sectors;
            let lost = g.locate(0).disk;
            let healthy = g.plan(0, stripe_sectors, OpKind::Write);
            let degraded = g.plan_with_failure(0, stripe_sectors, OpKind::Write, Some(lost));
            assert_eq!(degraded.parity_xor_bytes, k * data * g.strip_sectors * 512);
            assert_eq!(degraded.parity_xor_bytes, healthy.parity_xor_bytes);
            assert!(degraded.pre_reads.is_empty());
            assert!(degraded.ops.iter().all(|e| e.disk != lost));
        }
    }

    #[test]
    #[should_panic(expected = "at least 4 disks")]
    fn raid6_rejects_small_arrays() {
        Geometry::raid6(3);
    }

    /// Deterministic synthetic content of a logical sector, for the
    /// brute-force reconstruction oracle.
    fn sector_value(ls: u64) -> u64 {
        ls.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xDEAD_BEEF
    }

    /// Brute-force content of `(disk, disk_sector)` under a parity geometry:
    /// data strips carry [`sector_value`], P is the XOR of the stripe row,
    /// and RAID-6's Q is a deliberately different mix so a plan that wrongly
    /// reads Q fails the oracle instead of passing by luck.
    fn parity_disk_value(g: &Geometry, disk: usize, dsector: u64) -> u64 {
        let strip = g.strip_sectors;
        let stripe = dsector / strip;
        let row = dsector % strip;
        let data = g.data_disks() as u64;
        let logical_of = |index: u64| (stripe * data + index) * strip + row;
        if Some(disk) == g.parity_disk(stripe) {
            (0..data).fold(0u64, |acc, i| acc ^ sector_value(logical_of(i)))
        } else if Some(disk) == g.q_disk(stripe) {
            (0..data).fold(0u64, |acc, i| acc ^ sector_value(logical_of(i)).wrapping_mul(i + 2))
        } else {
            let idx = (0..data)
                .find(|&i| g.locate(logical_of(i)).disk == disk)
                .expect("member holds a data strip of this stripe");
            sector_value(logical_of(idx))
        }
    }

    proptest! {
        #[test]
        fn prop_raid6_degraded_read_reconstructs_exact_content(
            k in 1usize..3,
            disks in 3usize..8,
            failed in 0usize..8,
            ls in 0u64..200_000,
        ) {
            // k parity strips: RAID-5 (P) or RAID-6 (P + Q).
            prop_assume!(failed < disks && disks >= k + 2);
            let g = if k == 1 { Geometry::raid5(disks) } else { Geometry::raid6(disks) };
            let loc = g.locate(ls);
            let plan = g.plan_with_failure(ls, 1, OpKind::Read, Some(failed));
            if loc.disk != failed {
                prop_assert_eq!(plan, g.plan(ls, 1, OpKind::Read),
                    "failure elsewhere must not change the plan");
            } else {
                let mut acc = 0u64;
                for e in &plan.ops {
                    prop_assert_eq!(e.sectors, 1);
                    prop_assert_eq!(e.kind, OpKind::Read);
                    acc ^= parity_disk_value(&g, e.disk, e.sector);
                }
                prop_assert_eq!(acc, sector_value(ls),
                    "XOR of the surviving reads must reproduce the lost sector");
            }
        }

        #[test]
        fn prop_raid6_rotation_keeps_p_q_data_disjoint(
            disks in 4usize..9,
            stripe in 0u64..1_000,
        ) {
            let g = Geometry::raid6(disks);
            let p = g.parity_disk(stripe).unwrap();
            let q = g.q_disk(stripe).unwrap();
            prop_assert_ne!(p, q);
            prop_assert_eq!((p + 1) % disks, q);
            let data = g.data_disks() as u64;
            for index in 0..data {
                let ls = (stripe * data + index) * g.strip_sectors;
                let d = g.locate(ls).disk;
                prop_assert_ne!(d, p);
                prop_assert_ne!(d, q);
            }
        }

        #[test]
        fn prop_raid6_degraded_plans_never_touch_failed_disk(
            disks in 4usize..8,
            failed in 0usize..8,
            start in 0u64..50_000,
            len in 1u64..1_500,
            write in proptest::bool::ANY,
        ) {
            prop_assume!(failed < disks);
            let g = Geometry::raid6(disks);
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let plan = g.plan_with_failure(start, len, kind, Some(failed));
            for e in plan.ops.iter().chain(&plan.pre_reads) {
                prop_assert_ne!(e.disk, failed, "plan touched the failed disk");
            }
            if !write {
                let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
                prop_assert!(total >= len);
            }
        }

        #[test]
        fn prop_raid1_plans_cover_and_respect_failures(
            disks in 2usize..5,
            failed in 0usize..5,
            start in 0u64..50_000,
            len in 1u64..1_500,
            write in proptest::bool::ANY,
        ) {
            prop_assume!(failed < disks);
            let g = Geometry::raid1(disks);
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let plan = g.plan_with_failure(start, len, kind, Some(failed));
            for e in plan.ops.iter().chain(&plan.pre_reads) {
                prop_assert_ne!(e.disk, failed);
            }
            let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
            if write {
                // Every surviving copy receives the full data.
                prop_assert_eq!(total, len * (disks as u64 - 1));
            } else {
                prop_assert_eq!(total, len);
            }
        }

        #[test]
        fn prop_raid6_write_volume_bounded(
            disks in 4usize..8,
            start in 0u64..100_000,
            len in 1u64..2_000,
        ) {
            let g = Geometry::raid6(disks);
            let plan = g.plan(start, len, OpKind::Write);
            let writes: u64 = plan
                .ops
                .iter()
                .filter(|e| e.kind == OpKind::Write)
                .map(|e| e.sectors)
                .sum();
            prop_assert!(writes >= len, "data fully written");
            // Every touched stripe writes at most P and Q on top of the data.
            let stripe_sectors = g.strip_sectors * g.data_disks() as u64;
            let stripes = (start + len - 1) / stripe_sectors - start / stripe_sectors + 1;
            prop_assert!(writes <= len + stripes * 2 * g.strip_sectors);
            prop_assert!(plan.pre_reads.iter().all(|e| e.kind == OpKind::Read));
        }
    }

    proptest! {
        #[test]
        fn prop_degraded_plans_never_touch_failed_disk(
            disks in 3usize..7,
            failed in 0usize..7,
            start in 0u64..50_000,
            len in 1u64..1_500,
            write in proptest::bool::ANY,
        ) {
            prop_assume!(failed < disks);
            let g = Geometry::raid5(disks);
            let kind = if write { OpKind::Write } else { OpKind::Read };
            let plan = g.plan_with_failure(start, len, kind, Some(failed));
            for e in plan.ops.iter().chain(&plan.pre_reads) {
                prop_assert_ne!(e.disk, failed, "plan touched the failed disk");
            }
            if !write {
                // Every requested sector is still served: survivors carry at
                // least the requested volume.
                let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
                prop_assert!(total >= len);
            }
        }

        #[test]
        fn prop_locate_is_injective(
            disks in 3usize..8,
            sectors in proptest::collection::hash_set(0u64..1_000_000, 1..200),
        ) {
            let g = Geometry::raid5(disks);
            let mut seen = HashSet::new();
            for &s in &sectors {
                let loc = g.locate(s);
                prop_assert!(loc.disk < disks);
                prop_assert!(seen.insert((loc.disk, loc.disk_sector)),
                    "two logical sectors mapped to the same place");
                prop_assert_ne!(Some(loc.disk), g.parity_disk(loc.stripe));
            }
        }

        #[test]
        fn prop_read_plan_covers_request(
            disks in 3usize..8,
            start in 0u64..100_000,
            len in 1u64..2_000,
        ) {
            let g = Geometry::raid5(disks);
            let plan = g.plan(start, len, OpKind::Read);
            let total: u64 = plan.ops.iter().map(|e| e.sectors).sum();
            prop_assert_eq!(total, len);
            prop_assert!(plan.pre_reads.is_empty());
        }

        #[test]
        fn prop_write_plan_writes_at_least_data_plus_parity(
            disks in 3usize..8,
            start in 0u64..100_000,
            len in 1u64..2_000,
        ) {
            let g = Geometry::raid5(disks);
            let plan = g.plan(start, len, OpKind::Write);
            let writes: u64 = plan
                .ops
                .iter()
                .filter(|e| e.kind == OpKind::Write)
                .map(|e| e.sectors)
                .sum();
            prop_assert!(writes >= len, "data fully written");
            // Every touched stripe gets exactly one parity write; total write
            // volume is bounded by data + one strip per stripe touched.
            let stripe_sectors = g.strip_sectors * g.data_disks() as u64;
            let stripes = (start + len - 1) / stripe_sectors - start / stripe_sectors + 1;
            prop_assert!(writes <= len + stripes * g.strip_sectors);
            // Phase-1 reads never write.
            prop_assert!(plan.pre_reads.iter().all(|e| e.kind == OpKind::Read));
        }

        #[test]
        fn prop_merge_preserves_volume(
            extents in proptest::collection::vec((0usize..4, 0u64..10_000u64, 1u64..64), 0..50)
        ) {
            let exts: Vec<DiskExtent> = extents
                .into_iter()
                .map(|(d, s, n)| DiskExtent { disk: d, sector: s, sectors: n, kind: OpKind::Read })
                .collect();
            let before: u64 = exts.iter().map(|e| e.sectors).sum();
            let mut merged = exts;
            merge_extents(&mut merged);
            let after: u64 = merged.iter().map(|e| e.sectors).sum();
            prop_assert_eq!(before, after);
            // No two adjacent mergeable extents remain.
            for w in merged.windows(2) {
                prop_assert!(!(w[0].disk == w[1].disk && w[0].sector + w[0].sectors == w[1].sector));
            }
        }
    }
}
