//! Struct-of-arrays store for in-flight request state.
//!
//! The DES dispatch loop touches a handful of scalar fields per event
//! (outstanding count, submit time, request geometry) and rarely the bulky
//! phase containers. The old slab (`Vec<Option<ReqState>>`) interleaved all of
//! it, so every event dragged a whole `ReqState` cache line in to read one
//! counter. Here each field lives in its own column indexed by the same
//! recycled [`Slot`] numbers the events carry, so the hot fields of
//! neighbouring in-flight requests pack contiguously and the phase deques —
//! cold until a phase boundary — stay out of the way.
//!
//! Retired slots keep their phase deque allocated, so steady-state traffic
//! reuses warm containers instead of allocating per arrival (this replaces
//! the old shared phase pool: retention is per-slot, bounded by the maximum
//! concurrency).
#![doc = "tracer-invariant: deterministic"]

use crate::array::{ArrayRequest, RequestId};
use crate::raid::DiskExtent;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use tracer_trace::OpKind;

/// Index of a request's columns. Slots are recycled, so a slot is only
/// meaningful while its request is in flight; the public monotone
/// [`RequestId`] lives in the `id` column.
pub(crate) type Slot = u32;

/// `flags` bit: the slot holds a live request.
pub(crate) const F_OCCUPIED: u8 = 1;
/// `flags` bit: internal traffic (rebuild jobs) — no host link, no completion.
pub(crate) const F_INTERNAL: u8 = 1 << 1;
/// `flags` bit: completion already reported (write-back ack); remaining
/// phases are background destage work.
pub(crate) const F_COMPLETED_EARLY: u8 = 1 << 2;

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
    /// Bitmask of member disks touched by the current phase (disks ≥ 64 all
    /// share the top bit; the mask only backs a debug assertion at disk-free).
    pub(crate) disk_mask: Vec<u64>,
    /// `F_*` bits.
    pub(crate) flags: Vec<u8>,
    /// Remaining phases, front first (cold: touched only at phase edges).
    pub(crate) phases: Vec<VecDeque<Vec<DiskExtent>>>,
    free: Vec<Slot>,
    live: usize,
}

impl ReqStore {
    /// File a new in-flight request and return its slot. The slot's phase
    /// deque is empty (freshly pushed or retained from the slot's previous
    /// occupant) — the caller fills it when the phases are planned.
    pub(crate) fn insert(
        &mut self,
        id: RequestId,
        req: ArrayRequest,
        submitted: SimTime,
        internal: bool,
    ) -> Slot {
        self.live += 1;
        let flags = F_OCCUPIED | if internal { F_INTERNAL } else { 0 };
        match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                debug_assert_eq!(self.flags[i] & F_OCCUPIED, 0, "insert into occupied slot");
                debug_assert!(self.phases[i].is_empty(), "retained phase deque not drained");
                self.id[i] = id;
                self.sector[i] = req.sector;
                self.bytes[i] = req.bytes;
                self.kind[i] = req.kind;
                self.submitted[i] = submitted;
                self.outstanding[i] = 0;
                self.xor_pending[i] = SimDuration::ZERO;
                self.disk_mask[i] = 0;
                self.flags[i] = flags;
                slot
            }
            None => {
                self.id.push(id);
                self.sector.push(req.sector);
                self.bytes.push(req.bytes);
                self.kind.push(req.kind);
                self.submitted.push(submitted);
                self.outstanding.push(0);
                self.xor_pending.push(SimDuration::ZERO);
                self.disk_mask.push(0);
                self.flags.push(flags);
                self.phases.push(VecDeque::new());
                Slot::try_from(self.id.len() - 1).expect("more than u32::MAX requests in flight")
            }
        }
    }

    /// Retire a slot, recycling it (and its phase deque's capacity) for the
    /// next insert.
    pub(crate) fn retire(&mut self, slot: Slot) {
        let i = slot as usize;
        debug_assert_ne!(self.flags[i] & F_OCCUPIED, 0, "retire of vacant request slot");
        debug_assert!(self.phases[i].is_empty(), "retired request still has phases");
        self.flags[i] = 0;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Whether the slot holds a live request.
    pub(crate) fn occupied(&self, slot: Slot) -> bool {
        self.flags[slot as usize] & F_OCCUPIED != 0
    }

    /// Whether the slot's request is internal (rebuild) traffic.
    pub(crate) fn internal(&self, slot: Slot) -> bool {
        self.flags[slot as usize] & F_INTERNAL != 0
    }

    /// Whether the slot's completion was already reported (write-back ack).
    pub(crate) fn completed_early(&self, slot: Slot) -> bool {
        self.flags[slot as usize] & F_COMPLETED_EARLY != 0
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
    fn insert_retire_recycles_slots_and_deques() {
        let mut store = ReqStore::default();
        let a = store.insert(0, req(10), SimTime::ZERO, false);
        let b = store.insert(1, req(20), SimTime::from_millis(1), true);
        assert_eq!(store.len(), 2);
        assert!(store.occupied(a) && store.occupied(b));
        assert!(!store.internal(a) && store.internal(b));

        // Give slot `a` a phase deque with capacity, drain it, retire.
        store.phases[a as usize].push_back(vec![]);
        store.phases[a as usize].pop_front();
        store.retire(a);
        assert!(!store.occupied(a));
        assert_eq!(store.len(), 1);

        // The freed slot (and its warm deque) is reused before any growth.
        let c = store.insert(2, req(30), SimTime::from_millis(2), false);
        assert_eq!(c, a);
        assert_eq!(store.slot_count(), 2);
        assert_eq!(store.id[c as usize], 2);
        assert_eq!(store.request(c), req(30));
        assert_eq!(store.outstanding[c as usize], 0);
        assert!(!store.completed_early(c));
    }

    #[test]
    fn columns_reset_on_reuse() {
        let mut store = ReqStore::default();
        let a = store.insert(0, req(1), SimTime::ZERO, false);
        store.outstanding[a as usize] = 7;
        store.xor_pending[a as usize] = SimDuration::from_millis(3);
        store.disk_mask[a as usize] = 0b1010;
        store.flags[a as usize] |= F_COMPLETED_EARLY;
        store.retire(a);
        let b = store.insert(1, req(2), SimTime::from_secs(1), false);
        assert_eq!(b, a);
        let i = b as usize;
        assert_eq!(store.outstanding[i], 0);
        assert_eq!(store.xor_pending[i], SimDuration::ZERO);
        assert_eq!(store.disk_mask[i], 0);
        assert!(!store.completed_early(b));
        assert_eq!(store.submitted[i], SimTime::from_secs(1));
    }
}
