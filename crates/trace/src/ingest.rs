//! One streaming ingest for text block traces: HP `.srt` records and
//! `blkparse` event rows become replay-format bunches in a single pass.
//!
//! The paper's trace format transformer turns cello's srt files into the
//! blktrace format (§III-A2), and blktrace captures are rendered as text by
//! blkparse. Both are timestamped request lists, so both go through
//! [`convert`]:
//!
//! 1. lines are read one at a time into one reused buffer; a line longer
//!    than [`MAX_LINE_BYTES`] is a [`TraceError::Parse`] naming it, so a
//!    binary file passed as text is not read whole;
//! 2. the first record line (not blank, not a `#` comment) picks the line
//!    rule: a first field `maj,min` is a blkparse event row
//!    (see `blkparse.rs`), and so is blkparse's per-device summary header
//!    `CPU<n> (<dev>):` or `Total (<dev>):`, which opens a capture without
//!    events; anything else is an srt record ([`crate::srt`]);
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
use std::io::{self, BufRead, Read};

/// Records closer together than this join one bunch: requests the kernel
/// saw "at the same time".
pub const BUNCH_WINDOW_NS: Nanos = 100_000;

/// Records held back for reordering. blkparse merges per-CPU streams, and
/// blktrace hands each CPU's events over in sub-buffers of 512 KiB by
/// default (`-b 512`); an event takes at least 48 bytes, so one sub-buffer
/// holds at most 10 923 events. 2^14 records cover a whole sub-buffer of
/// skew in 512 KiB of heap (32 B per record), whatever the trace's length.
pub const REORDER_WINDOW: usize = 1 << 14;

/// Longest line accepted, its newline included. srt records and blkparse
/// rows are under 200 bytes.
pub const MAX_LINE_BYTES: usize = 4096;

/// One parsed record: arrival time in seconds and the request.
pub(crate) type Timed = (f64, IoPackage);

/// A per-line rule: `Ok(None)` for lines that carry no record.
type LineRule = fn(&str, usize) -> Result<Option<Timed>, TraceError>;

/// Stream a text trace (srt or blkparse, chosen by its first record line)
/// into `sink` as bunches in timestamp order.
///
/// # Errors
/// An I/O error from `reader` (also for text that is not UTF-8), or a
/// [`TraceError::Parse`] naming the line of the first malformed record, of a
/// line longer than [`MAX_LINE_BYTES`], or of a record out of order by more
/// than [`REORDER_WINDOW`] records.
pub fn convert<R: BufRead, S: BunchSink + ?Sized>(
    mut reader: R,
    sink: &mut S,
) -> Result<(), TraceError> {
    let mut rule: Option<(&'static str, LineRule)> = None;
    let mut window = BinaryHeap::with_capacity(REORDER_WINDOW + 1);
    let mut last_emitted = f64::NEG_INFINITY;
    let mut bunches = Bunching { base: None, start: 0, ios: Vec::new() };
    let mut buf = Vec::new();
    for lineno in 1.. {
        buf.clear();
        if reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.len() > MAX_LINE_BYTES {
            return Err(TraceError::Parse {
                format: rule.map_or("text", |(format, _)| format),
                line: lineno,
                reason: format!("line longer than {MAX_LINE_BYTES} bytes"),
            });
        }
        let line = std::str::from_utf8(&buf).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "stream did not contain valid UTF-8")
        })?;
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
        let Some((seconds, io)) = parse(line, lineno)? else { continue };
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
    let mut fields = body.split_whitespace();
    let first = fields.next().unwrap_or_default();
    let event = first.split_once(',').is_some_and(|(maj, min)| digits(maj) && digits(min));
    // blkparse's per-device summary opens with `CPU<n> (<dev>):` or `Total (<dev>):`.
    let header = first == "Total" || first.strip_prefix("CPU").is_some_and(digits);
    let device = fields.next().and_then(|f| f.strip_prefix('(')?.strip_suffix("):"));
    if event || (header && device.is_some_and(|d| !d.is_empty())) {
        ("blkparse", crate::blkparse::parse_line)
    } else {
        ("srt", crate::srt::parse_line)
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
