//! Struct-of-arrays store for in-flight request state.
//!
//! The DES dispatch loop touches a handful of scalar fields per event
//! (outstanding count, submit time, request geometry) and rarely the bulky
//! phase containers. The old slab (`Vec<Option<ReqState>>`) interleaved all of
//! it, so every event dragged a whole `ReqState` cache line in to read one
//! counter. Here each field lives in its own column indexed by the same
//! recycled [`Slot`] numbers the events carry, so the hot fields of
//! neighbouring in-flight requests pack contiguously and the plans — cold
//! until a phase boundary — stay out of the way.
//!
//! Each slot owns one [`IoPlan`] that the geometry plans into at arrival
//! (`pre_reads`, then `ops`) and a `stage` byte saying which of the two
//! dispatches next. Retired slots keep their plan's extent vectors
//! allocated, so steady-state traffic reuses warm containers instead of
//! allocating per arrival (retention is per-slot, bounded by the maximum
//! concurrency).
#![doc = "tracer-invariant: deterministic"]

use crate::array::{ArrayRequest, RequestId};
use crate::raid::{DiskExtent, IoPlan};
use crate::time::{SimDuration, SimTime};
use tracer_trace::OpKind;

/// Index of a request's columns. Slots are recycled, so a slot is only
/// meaningful while its request is in flight; the public monotone
/// [`RequestId`] lives in the `id` column.
pub(crate) type Slot = u32;

/// `flags` bit: the slot holds a live request.
pub(crate) const F_OCCUPIED: u8 = 1;
/// `flags` bit: completion already reported (write-back ack); remaining
/// phases are background destage work.
pub(crate) const F_COMPLETED_EARLY: u8 = 1 << 1;

/// Slots the store starts with at its first insert.
const MIN_SLOTS: usize = 8;
/// Extents each new slot's `pre_reads` and `ops` have room for: a small
/// parity write (RAID-6 read-modify-write: data + P + Q) fits.
const PLAN_EXTENTS: usize = 4;

/// `stage`: the plan's `pre_reads` dispatch at the next phase-ready.
pub(crate) const STAGE_PRE_READS: u8 = 0;
/// `stage`: the plan's `ops` dispatch at the next phase-ready.
pub(crate) const STAGE_OPS: u8 = 1;
/// `stage`: no phase is left to dispatch (also the state of a fresh slot).
pub(crate) const STAGE_DONE: u8 = 2;

/// The SoA request store. Columns are `pub(crate)`: the array engine indexes
/// them directly on the event hot path (bounds checks aside, a column read is
/// one load from a dense array).
#[derive(Debug, Default)]
pub(crate) struct ReqStore {
    /// Public id handed out by `submit` (monotone for the simulator's life).
    pub(crate) id: Vec<RequestId>,
    /// Starting logical sector of the request.
    pub(crate) sector: Vec<u64>,
    /// Request length in bytes.
    pub(crate) bytes: Vec<u32>,
    /// Read or write.
    pub(crate) kind: Vec<OpKind>,
    /// Instant the request arrived at the array.
    pub(crate) submitted: Vec<SimTime>,
    /// Outstanding extents of the current phase.
    pub(crate) outstanding: Vec<u32>,
    /// XOR time not yet charged (spent at the phase boundary or on the
    /// completion path).
    pub(crate) xor_pending: Vec<SimDuration>,
    /// `F_*` bits.
    pub(crate) flags: Vec<u8>,
    /// The request's disk phases (cold: touched only at phase edges).
    /// Retained across occupants; only meaningful while `stage` is not
    /// [`STAGE_DONE`].
    pub(crate) plans: Vec<IoPlan>,
    /// `STAGE_*`: which of the plan's phases dispatches next.
    pub(crate) stage: Vec<u8>,
    free: Vec<Slot>,
    live: usize,
}

impl ReqStore {
    /// File a new in-flight request and return its slot, at [`STAGE_DONE`]
    /// with the slot's retained plan — the caller plans into it and sets the
    /// stage when the phases are known.
    pub(crate) fn insert(&mut self, id: RequestId, req: ArrayRequest, submitted: SimTime) -> Slot {
        if self.free.is_empty() {
            self.grow();
        }
        let slot = self.free.pop().expect("grow refills the free list");
        self.live += 1;
        let i = slot as usize;
        debug_assert_eq!(self.flags[i] & F_OCCUPIED, 0, "insert into occupied slot");
        debug_assert_eq!(self.stage[i], STAGE_DONE, "retained plan not drained");
        self.id[i] = id;
        self.sector[i] = req.sector;
        self.bytes[i] = req.bytes;
        self.kind[i] = req.kind;
        self.submitted[i] = submitted;
        self.outstanding[i] = 0;
        self.xor_pending[i] = SimDuration::ZERO;
        self.flags[i] = F_OCCUPIED;
        slot
    }

    /// Double the slot count (to at least [`MIN_SLOTS`]) and file the new
    /// slots on the free list lowest-on-top, so slots are handed out in
    /// exactly the order one-at-a-time growth would use. New plans come with
    /// room for a small request's extents, and the free list with room for
    /// every slot, so neither a slot's first plan nor any retire allocates:
    /// the store allocates only when concurrency crosses a power of two.
    fn grow(&mut self) {
        let old = self.id.len();
        let new = (old * 2).max(MIN_SLOTS);
        assert!(new - 1 <= Slot::MAX as usize, "more than u32::MAX requests in flight");
        self.id.resize(new, 0);
        self.sector.resize(new, 0);
        self.bytes.resize(new, 0);
        self.kind.resize(new, OpKind::Read);
        self.submitted.resize(new, SimTime::ZERO);
        self.outstanding.resize(new, 0);
        self.xor_pending.resize(new, SimDuration::ZERO);
        self.flags.resize(new, 0);
        self.plans.resize_with(new, || IoPlan {
            pre_reads: Vec::with_capacity(PLAN_EXTENTS),
            ops: Vec::with_capacity(PLAN_EXTENTS),
            parity_xor_bytes: 0,
        });
        self.stage.resize(new, STAGE_DONE);
        self.free.reserve(new - self.free.len());
        self.free.extend((old..new).rev().map(|i| i as Slot));
    }

    /// Retire a slot, recycling it (and its plan's capacity) for the next
    /// insert.
    pub(crate) fn retire(&mut self, slot: Slot) {
        let i = slot as usize;
        debug_assert_ne!(self.flags[i] & F_OCCUPIED, 0, "retire of vacant request slot");
        debug_assert_eq!(self.stage[i], STAGE_DONE, "retired request still has phases");
        self.flags[i] = 0;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Whether the slot holds a live request.
    pub(crate) fn occupied(&self, slot: Slot) -> bool {
        self.flags[slot as usize] & F_OCCUPIED != 0
    }

    /// Whether the slot's completion was already reported (write-back ack).
    pub(crate) fn completed_early(&self, slot: Slot) -> bool {
        self.flags[slot as usize] & F_COMPLETED_EARLY != 0
    }

    /// Whether every phase of the slot's plan has been dispatched.
    pub(crate) fn phases_done(&self, slot: Slot) -> bool {
        self.stage[slot as usize] == STAGE_DONE
    }

    /// The extents of the plan's phase `stage` ([`STAGE_PRE_READS`] or
    /// [`STAGE_OPS`]).
    pub(crate) fn phase(&self, slot: Slot, stage: u8) -> &[DiskExtent] {
        let plan = &self.plans[slot as usize];
        match stage {
            STAGE_PRE_READS => &plan.pre_reads,
            STAGE_OPS => &plan.ops,
            _ => panic!("phase ready with no phases"),
        }
    }

    /// The slot's request, reassembled from the columns.
    pub(crate) fn request(&self, slot: Slot) -> ArrayRequest {
        let i = slot as usize;
        ArrayRequest::new(self.sector[i], self.bytes[i], self.kind[i])
    }

    /// Live requests in flight.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Whether no request is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever grown (live + recyclable) — bounded by the maximum
    /// concurrency, not the request count. Exercised by the engine's
    /// slot-recycling test.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.id.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(sector: u64) -> ArrayRequest {
        ArrayRequest::new(sector, 4096, OpKind::Read)
    }

    #[test]
    fn insert_retire_recycles_slots_and_plans() {
        let mut store = ReqStore::default();
        let a = store.insert(0, req(10), SimTime::ZERO);
        let b = store.insert(1, req(20), SimTime::from_millis(1));
        assert_eq!(store.len(), 2);
        assert!(store.occupied(a) && store.occupied(b));
        assert!(store.phases_done(a), "a fresh slot has no phases to dispatch");

        // Plan into slot `a`, walk its stages to done, retire.
        let i = a as usize;
        crate::raid::Geometry::raid5(4).plan_into(0, 8, OpKind::Write, None, &mut store.plans[i]);
        store.stage[i] = STAGE_PRE_READS;
        assert!(!store.phases_done(a));
        store.stage[i] = STAGE_OPS;
        store.stage[i] = STAGE_DONE;
        let capacity = store.plans[i].ops.capacity();
        store.retire(a);
        assert!(!store.occupied(a));
        assert_eq!(store.len(), 1);

        // The freed slot (and its warm plan) is reused before any other.
        let c = store.insert(2, req(30), SimTime::from_millis(2));
        assert_eq!(c, a);
        assert_eq!(store.slot_count(), MIN_SLOTS);
        assert_eq!(store.id[c as usize], 2);
        assert_eq!(store.request(c), req(30));
        assert_eq!(store.outstanding[c as usize], 0);
        assert!(!store.completed_early(c));
        assert!(store.phases_done(c));
        assert!(capacity > 0 && store.plans[c as usize].ops.capacity() == capacity);
    }

    #[test]
    fn columns_reset_on_reuse() {
        let mut store = ReqStore::default();
        let a = store.insert(0, req(1), SimTime::ZERO);
        store.outstanding[a as usize] = 7;
        store.xor_pending[a as usize] = SimDuration::from_millis(3);
        store.flags[a as usize] |= F_COMPLETED_EARLY;
        store.retire(a);
        let b = store.insert(1, req(2), SimTime::from_secs(1));
        assert_eq!(b, a);
        let i = b as usize;
        assert_eq!(store.outstanding[i], 0);
        assert_eq!(store.xor_pending[i], SimDuration::ZERO);
        assert!(!store.completed_early(b));
        assert_eq!(store.submitted[i], SimTime::from_secs(1));
    }

    #[test]
    fn growth_hands_out_slots_in_one_at_a_time_order() {
        // Fresh slots come out lowest first across every doubling, and a
        // retired slot is always reused before a fresh one.
        let mut store = ReqStore::default();
        let slots: Vec<Slot> = (0..20).map(|id| store.insert(id, req(id), SimTime::ZERO)).collect();
        assert_eq!(slots, (0..20).collect::<Vec<Slot>>());
        assert_eq!(store.slot_count(), 4 * MIN_SLOTS);
        store.retire(7);
        store.retire(3);
        assert_eq!(store.insert(20, req(0), SimTime::ZERO), 3);
        assert_eq!(store.insert(21, req(0), SimTime::ZERO), 7);
        assert_eq!(store.insert(22, req(0), SimTime::ZERO), 20);
        assert_eq!(store.len(), 21);
    }
}
