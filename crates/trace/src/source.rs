//! [`BunchSource`] — the iteration surface replay consumes, making owned
//! traces and mmap-backed views interchangeable.
//!
//! The *load-control* step is zero-copy (`ReplayPlan` borrows its source);
//! this trait pushes the boundary all the way to disk. Anything that
//! can walk its bunches in timestamp order as `(timestamp, &[IoPackage])` is
//! replayable: the in-memory [`Trace`] (infallible iteration over its
//! `Vec<Bunch>`) and the columnar [`TraceView`] (streamed straight out of an
//! mmap or an in-memory image). The repository hands out every trace as a
//! [`TraceHandle`], a shared view, whatever format the file is stored in.
//!
//! Iteration is *internal* (a visitor callback) rather than an `Iterator`:
//! the view decodes each bunch into one reusable scratch buffer, which a
//! lending iterator could only express with unstable GATs-lifetime
//! gymnastics. The callback shape also lets the engine keep a single replay
//! loop for every source (see `tracer-replay`'s `engine.rs`).
//!
//! [`bunch_materializations`] counts the decode layer's copies: every code
//! path in this crate that builds an owned
//! [`Bunch`] from stored bytes (v1/v2 decode, [`TraceView::to_trace`]) bumps
//! the counter, so tests can assert that replaying a v3 view allocates zero
//! `Bunch` heap objects while the v2 path serves as the positive control.

use crate::error::TraceError;
use crate::model::{Bunch, IoPackage, Nanos, Trace};
use crate::v3::TraceView;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`Bunch`](crate::model::Bunch) heap objects built
/// from stored trace bytes (see [`bunch_materializations`]).
static BUNCH_MATERIALIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Record `n` decoded bunches. Called by every decode path in this crate
/// that produces owned [`Bunch`](crate::model::Bunch) values.
pub(crate) fn record_bunch_materializations(n: u64) {
    BUNCH_MATERIALIZATIONS.fetch_add(n, Ordering::Relaxed);
}

/// Process-wide count of `Bunch` heap objects decoded from stored traces
/// since the process started (v1/v2 decoding, [`TraceView::to_trace`]).
///
/// It exists so tests can assert the *absence* of heap traffic: snapshot
/// it, replay a v3 view, and
/// require the delta to be zero. Monotone and relaxed — use deltas, never
/// absolute values, and keep a positive control in the same test.
pub fn bunch_materializations() -> u64 {
    BUNCH_MATERIALIZATIONS.load(Ordering::Relaxed)
}

/// A source of replayable bunches: `(timestamp, IO packages)` pairs visited
/// in non-decreasing timestamp order.
///
/// Implementations must visit every bunch exactly once and may hand the
/// callback a buffer they reuse between calls — the slice is only valid for
/// the duration of the callback.
pub trait BunchSource {
    /// The traced device name.
    fn device(&self) -> &str;

    /// Number of bunches [`BunchSource::try_for_each_bunch`] will visit.
    fn bunch_count(&self) -> usize;

    /// Visit every bunch in order. In-memory sources cannot fail; sources
    /// decoding from stored bytes return [`TraceError`] on corruption.
    fn try_for_each_bunch(&self, f: &mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError>;

    /// The complete v3 file image behind this source, when it already is
    /// one: [`crate::v3::write_file`] then stores these bytes instead of
    /// encoding the bunches again.
    fn v3_image(&self) -> Option<&[u8]> {
        None
    }
}

/// The write side of [`BunchSource`]: bunches pushed in non-decreasing
/// timestamp order. The trace synthesisers emit through it, so one
/// generator loop serves both representations — a
/// [`V3Encoder`](crate::v3::V3Encoder) (the product path: bytes, ~9 B/IO)
/// and an owned [`Trace`] (one heap `Vec` per bunch, for tests and ingest).
pub trait BunchSink {
    /// Append one bunch. The slice is only borrowed for the call.
    fn push(&mut self, timestamp: Nanos, ios: &[IoPackage]);
}

impl BunchSink for Trace {
    fn push(&mut self, timestamp: Nanos, ios: &[IoPackage]) {
        self.push_bunch(Bunch::new(timestamp, ios.to_vec()));
    }
}

impl BunchSource for Trace {
    fn device(&self) -> &str {
        &self.device
    }

    fn bunch_count(&self) -> usize {
        self.bunches.len()
    }

    fn try_for_each_bunch(&self, f: &mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError> {
        for bunch in &self.bunches {
            f(bunch.timestamp, &bunch.ios);
        }
        Ok(())
    }
}

// `Arc<Trace>`, `&Trace`, `Box<dyn BunchSource>`, … all replay like the
// value they wrap, so call sites holding shared handles need no unwrapping.
impl<T: BunchSource + ?Sized> BunchSource for Arc<T> {
    fn device(&self) -> &str {
        (**self).device()
    }

    fn bunch_count(&self) -> usize {
        (**self).bunch_count()
    }

    fn try_for_each_bunch(&self, f: &mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError> {
        (**self).try_for_each_bunch(f)
    }

    fn v3_image(&self) -> Option<&[u8]> {
        (**self).v3_image()
    }
}

impl<T: BunchSource + ?Sized> BunchSource for &T {
    fn device(&self) -> &str {
        (**self).device()
    }

    fn bunch_count(&self) -> usize {
        (**self).bunch_count()
    }

    fn try_for_each_bunch(&self, f: &mut dyn FnMut(Nanos, &[IoPackage])) -> Result<(), TraceError> {
        (**self).try_for_each_bunch(f)
    }

    fn v3_image(&self) -> Option<&[u8]> {
        (**self).v3_image()
    }
}

/// The one shared trace representation: a [`TraceView`] over a v3 image.
/// The repository's [`load_view`](crate::repository::TraceRepository::load_view)
/// maps a stored v3 file and encodes a legacy v1/v2 file into an in-memory
/// image once; a synthesised trace is an in-memory image too. Sweeps, jobs,
/// serve nodes and the fleet all thread this one type, and a clone shares
/// the image.
pub type TraceHandle = Arc<TraceView>;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_bunches(
            "dev",
            vec![
                Bunch::new(0, vec![IoPackage::read(0, 4096)]),
                Bunch::new(1_000, vec![IoPackage::write(64, 512), IoPackage::read(8, 8192)]),
            ],
        )
    }

    fn collect<S: BunchSource + ?Sized>(s: &S) -> Vec<(Nanos, Vec<IoPackage>)> {
        let mut out = Vec::new();
        s.try_for_each_bunch(&mut |ts, ios| out.push((ts, ios.to_vec()))).unwrap();
        out
    }

    #[test]
    fn trace_source_visits_every_bunch_in_order() {
        let t = sample();
        let got = collect(&t);
        assert_eq!(got.len(), t.bunch_count());
        assert_eq!(BunchSource::bunch_count(&t), 2);
        assert_eq!(BunchSource::device(&t), "dev");
        for (bunch, (ts, ios)) in t.bunches.iter().zip(&got) {
            assert_eq!(bunch.timestamp, *ts);
            assert_eq!(&bunch.ios, ios);
        }
    }

    #[test]
    fn wrappers_delegate() {
        let t = Arc::new(sample());
        assert_eq!(collect(&t), collect(&*t));
        assert_eq!(BunchSource::bunch_count(&t), 2);
        let r: &Trace = &t;
        assert_eq!(collect(&r), collect(&*t));

        let h = TraceHandle::from(crate::v3::TraceView::from_trace(&t).unwrap());
        assert_eq!(collect(&h), collect(&*t));
        assert_eq!(BunchSource::device(&h), "dev");
        assert!(!h.is_view(), "an in-memory image is not a mapped file");
        assert_eq!(h.to_trace().unwrap(), *t);
        assert_eq!(h.io_count(), 3);
        assert_eq!(h.duration(), 1_000);
        let h2 = h.clone();
        assert_eq!(collect(&h2), collect(&h));
    }

    #[test]
    fn view_handle_reads_through_the_mmap() {
        let t = sample();
        let path =
            std::env::temp_dir().join(format!("tracer_handle_{}.replay", std::process::id()));
        crate::v3::write_file(&t, &path).unwrap();
        let h = TraceHandle::from(crate::v3::TraceView::open(&path).unwrap());
        assert!(h.is_view());
        assert_eq!(BunchSource::device(&h), "dev");
        assert_eq!(BunchSource::bunch_count(&h), 2);
        assert_eq!(h.io_count(), 3);
        let before = bunch_materializations();
        let got = collect(&h);
        assert_eq!(bunch_materializations(), before, "view iteration builds no Bunch");
        assert_eq!(got.len(), 2);
        assert_eq!(h.to_trace().unwrap(), t);
        assert!(bunch_materializations() > before, "to_trace is the counted copy");
        drop(h);
        std::fs::remove_file(&path).unwrap();
    }
}
