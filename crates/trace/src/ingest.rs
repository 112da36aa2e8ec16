//! One streaming ingest for text block traces: HP `.srt` records and
//! `blkparse` event rows become replay-format bunches in a single pass.
//!
//! The paper's trace format transformer turns cello's srt files into the
//! blktrace format (§III-A2), and blktrace captures are rendered as text by
//! blkparse. Both are timestamped request lists, so both go through
//! [`convert`]:
//!
//! 1. lines are read one at a time into one reused buffer;
//! 2. the first record line (not blank, not a `#` comment) picks the line
//!    rule: a first field `maj,min` is a blkparse event row
//!    (see `blkparse.rs`), anything else an srt record ([`crate::srt`]);
//! 3. records pass through a reorder window of [`REORDER_WINDOW`] records, a
//!    heap keyed by (timestamp, input order): local disorder comes out
//!    sorted and equal timestamps keep their input order. A record that
//!    sorts before one already emitted is a [`TraceError::Parse`] naming its
//!    line;
//! 4. the first record is rebased to t = 0, and an IO more than
//!    [`BUNCH_WINDOW_NS`] after the open bunch's start opens a new bunch;
//! 5. each bunch goes straight into a [`BunchSink`]. `tracer convert` feeds
//!    a [`V3Encoder`](crate::V3Encoder), so the only copy of the trace in
//!    memory is its encoded image.
#![doc = "tracer-invariant: deterministic"]

use crate::error::TraceError;
use crate::model::{IoPackage, Nanos};
use crate::source::BunchSink;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::io::BufRead;

/// Records closer together than this join one bunch: requests the kernel
/// saw "at the same time".
pub const BUNCH_WINDOW_NS: Nanos = 100_000;

/// Records held back for reordering. blkparse merges per-CPU streams, and
/// blktrace hands each CPU's events over in sub-buffers of 512 KiB by
/// default (`-b 512`); an event takes at least 48 bytes, so one sub-buffer
/// holds at most 10 923 events. 2^14 records cover a whole sub-buffer of
/// skew in 512 KiB of heap (32 B per record), whatever the trace's length.
pub const REORDER_WINDOW: usize = 1 << 14;

/// One parsed record: arrival time in seconds and the request.
pub(crate) type Timed = (f64, IoPackage);

/// A per-line rule: `Ok(None)` for lines that carry no record.
type LineRule = fn(&str, usize) -> Result<Option<Timed>, TraceError>;

/// Stream a text trace (srt or blkparse, chosen by its first record line)
/// into `sink` as bunches in timestamp order.
///
/// # Errors
/// An I/O error from `reader`, or a [`TraceError::Parse`] naming the line of
/// the first malformed record or of a record out of order by more than
/// [`REORDER_WINDOW`] records.
pub fn convert<R: BufRead, S: BunchSink + ?Sized>(
    mut reader: R,
    sink: &mut S,
) -> Result<(), TraceError> {
    let mut rule: Option<(&'static str, LineRule)> = None;
    let mut window = BinaryHeap::with_capacity(REORDER_WINDOW + 1);
    let mut last_emitted = f64::NEG_INFINITY;
    let mut bunches = Bunching { base: None, start: 0, ios: Vec::new() };
    let mut line = String::new();
    for lineno in 1.. {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let (format, parse) = match rule {
            Some(rule) => rule,
            None => {
                let body = line.trim();
                if body.is_empty() || body.starts_with('#') {
                    continue;
                }
                *rule.insert(detect(body))
            }
        };
        let Some((seconds, io)) = parse(&line, lineno)? else { continue };
        if seconds.total_cmp(&last_emitted) == Ordering::Less {
            return Err(TraceError::Parse {
                format,
                line: lineno,
                reason: format!("out of order beyond the {REORDER_WINDOW}-record reorder window"),
            });
        }
        window.push(Reverse(Pending { seconds, seq: lineno, io }));
        if window.len() > REORDER_WINDOW {
            if let Some(Reverse(first)) = window.pop() {
                last_emitted = first.seconds;
                bunches.push(first, sink);
            }
        }
    }
    while let Some(Reverse(next)) = window.pop() {
        bunches.push(next, sink);
    }
    if !bunches.ios.is_empty() {
        sink.push(bunches.start, &bunches.ios);
    }
    Ok(())
}

/// The line rule for a trace whose first record line is `body`.
fn detect(body: &str) -> (&'static str, LineRule) {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let first = body.split_whitespace().next().unwrap_or_default();
    match first.split_once(',') {
        Some((maj, min)) if digits(maj) && digits(min) => ("blkparse", crate::blkparse::parse_line),
        _ => ("srt", crate::srt::parse_line),
    }
}

/// A record in the reorder window, ordered by (timestamp, input order).
struct Pending {
    seconds: f64,
    seq: usize,
    io: IoPackage,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.seconds.total_cmp(&other.seconds).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// Greedy bunching of records in timestamp order, rebased so the first one
/// is at t = 0.
struct Bunching {
    base: Option<Nanos>,
    start: Nanos,
    ios: Vec<IoPackage>,
}

impl Bunching {
    fn push<S: BunchSink + ?Sized>(&mut self, record: Pending, sink: &mut S) {
        let ns = (record.seconds * 1e9).round() as Nanos;
        let t = ns.saturating_sub(*self.base.get_or_insert(ns));
        if !self.ios.is_empty() && t.saturating_sub(self.start) > BUNCH_WINDOW_NS {
            sink.push(self.start, &self.ios);
            self.ios.clear();
        }
        if self.ios.is_empty() {
            self.start = t;
        }
        self.ios.push(record.io);
    }
}
