//! Parser for `blkparse` text output — the format real blktrace deployments
//! produce.
//!
//! The paper's tool "collects and replays I/O traces at the block level"
//! using blktrace; on an actual Linux host one runs `blktrace -d <dev>` and
//! renders the binary stream with `blkparse`, whose default per-event line is
//!
//! ```text
//! <maj>,<min> <cpu> <seq> <timestamp> <pid> <action> <rwbs> <sector> + <len> [<comm>]
//! e.g.  8,0  3  42  0.000104813  4053  D  R  9656328 + 8 [fio]
//! ```
//!
//! This module converts such text into a replay-format [`Trace`]: one chosen
//! action type (default `D`, dispatch-to-driver — what the device actually
//! saw) becomes an IO package; events inside the bunch window coalesce.
//! Lengths are in 512-byte sectors, timestamps in seconds.
//!
//! [`parse_line`] walks the whitespace-separated fields with an iterator —
//! no per-line `Vec<&str>` — and [`parse_str`] drives it over `str::lines`
//! without per-line `String`s; [`convert`] hands the events to
//! [`Trace::from_timed_ios`], the bunching step it shares with the `.srt`
//! converter.

use crate::error::TraceError;
use crate::model::{IoPackage, Nanos, OpKind, Trace};
use std::path::Path;

/// Which blktrace action to import.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `Q` — request queued at the block layer (application view).
    Queue,
    /// `D` — request dispatched to the driver (device view; the default).
    Dispatch,
    /// `C` — request completed.
    Complete,
}

impl Action {
    fn code(self) -> &'static str {
        match self {
            Action::Queue => "Q",
            Action::Dispatch => "D",
            Action::Complete => "C",
        }
    }
}

/// Import options.
#[derive(Debug, Clone, Copy)]
pub struct BlkparseOptions {
    /// Action rows to import.
    pub action: Action,
    /// Events within this window of each other share a bunch.
    pub bunch_window_ns: Nanos,
    /// Import only this `major,minor` device, when set.
    pub device_filter: Option<(u32, u32)>,
}

impl Default for BlkparseOptions {
    fn default() -> Self {
        Self { action: Action::Dispatch, bunch_window_ns: 100_000, device_filter: None }
    }
}

/// One parsed event row (only the fields the replay format needs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlkEvent {
    /// Device major number.
    pub major: u32,
    /// Device minor number.
    pub minor: u32,
    /// Event time, seconds from trace start.
    pub timestamp_s: f64,
    /// Starting sector.
    pub sector: u64,
    /// Length in 512-byte sectors.
    pub sectors: u32,
    /// Write?
    pub is_write: bool,
}

/// Parse one `blkparse` line for the requested action. Returns `Ok(None)` for
/// rows of other actions, non-data rows (no `sector + len`), summary output,
/// and blank lines; `Err` only for rows that *look like* events but are
/// malformed.
pub fn parse_line(
    line: &str,
    action: Action,
    lineno: usize,
) -> Result<Option<BlkEvent>, TraceError> {
    let err = |reason: &str| TraceError::Parse {
        format: "blkparse",
        line: lineno,
        reason: reason.to_string(),
    };
    let body = line.trim();
    if body.is_empty() || !body.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return Ok(None); // blkparse summary sections, headers
    }
    // Walk the fields lazily — no per-line Vec. Field layout:
    // dev cpu seq time pid action rwbs [sector + len [comm]]
    let mut fields = body.split_whitespace();
    let dev = fields.next();
    let _cpu = fields.next();
    let _seq = fields.next();
    let time = fields.next();
    let _pid = fields.next();
    let (Some(dev), Some(time), Some(action_field)) = (dev, time, fields.next()) else {
        return Ok(None); // fewer than six fields: not an event row
    };
    if action_field != action.code() {
        return Ok(None);
    }
    let (maj, min) = dev.split_once(',').ok_or_else(|| err("device field is not maj,min"))?;
    let major: u32 = maj.parse().map_err(|_| err("bad major"))?;
    let minor: u32 = min.parse().map_err(|_| err("bad minor"))?;
    let timestamp_s: f64 = time.parse().map_err(|_| err("bad timestamp"))?;
    if !timestamp_s.is_finite() || timestamp_s < 0.0 {
        return Err(err("timestamp must be finite and non-negative"));
    }
    let Some(rwbs) = fields.next() else { return Ok(None) };
    // Data rows carry "<sector> + <len>"; barrier/flush rows do not.
    let (Some(sector_s), Some(plus), Some(len_s)) = (fields.next(), fields.next(), fields.next())
    else {
        return Ok(None);
    };
    if plus != "+" {
        return Ok(None);
    }
    let sector: u64 = sector_s.parse().map_err(|_| err("bad sector"))?;
    let sectors: u32 = len_s.parse().map_err(|_| err("bad length"))?;
    if sectors == 0 {
        return Ok(None);
    }
    if sectors > u32::MAX / 512 {
        return Err(err("length exceeds 4 GiB"));
    }
    let is_write = rwbs.contains('W');
    let is_read = rwbs.contains('R');
    if !is_write && !is_read {
        return Ok(None); // discard / flush-only rows
    }
    Ok(Some(BlkEvent { major, minor, timestamp_s, sector, sectors, is_write }))
}

/// Parse an in-memory `blkparse` text dump into the events
/// [`BlkparseOptions`] selects. Lines are borrowed from `input` and fields
/// are walked by iterator, so nothing is allocated per line.
pub fn parse_str(input: &str, opts: &BlkparseOptions) -> Result<Vec<BlkEvent>, TraceError> {
    let mut events = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if let Some(ev) = parse_line(line, opts.action, idx + 1)? {
            if opts.device_filter.is_none_or(|(mj, mn)| ev.major == mj && ev.minor == mn) {
                events.push(ev);
            }
        }
    }
    Ok(events)
}

/// Convert events into a replay-format trace (sorted, rebased to t = 0,
/// bunched by the option window; see [`Trace::from_timed_ios`]).
pub fn convert(events: &[BlkEvent], device: &str, opts: &BlkparseOptions) -> Trace {
    let ios = events
        .iter()
        .map(|ev| {
            let kind = if ev.is_write { OpKind::Write } else { OpKind::Read };
            (ev.timestamp_s, IoPackage::new(ev.sector, ev.sectors * 512, kind))
        })
        .collect();
    Trace::from_timed_ios(device, opts.bunch_window_ns, ios)
}

/// Parse and convert a `blkparse` text file in one step (the file is read
/// once and lines are borrowed from it).
pub fn convert_file(
    path: &Path,
    device: &str,
    opts: &BlkparseOptions,
) -> Result<Trace, TraceError> {
    let input = std::fs::read_to_string(path)?;
    let events = parse_str(&input, opts)?;
    Ok(convert(&events, device, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
  8,0    3        1     0.000000000  4053  Q   R 9656328 + 8 [fio]
  8,0    3        2     0.000010000  4053  D   R 9656328 + 8 [fio]
  8,0    3        3     0.000900000  4053  C   R 9656328 + 8 [0]
  8,0    1        4     0.002000000  4054  D   W 128 + 256 [kworker/1:2]
  8,16   0        5     0.002500000  4055  D   R 42 + 8 [other-disk]
  8,0    0        6     0.002020000  4054  D  WS 4096 + 64 [kworker/0:0]
  8,0    0        7     0.500000000  4053  D   N 0 + 0 [fio]
CPU0 (8,0):
 Reads Queued:           1,        4KiB
Total (8,0):
";

    fn opts() -> BlkparseOptions {
        BlkparseOptions::default()
    }

    #[test]
    fn parses_dispatch_rows_only() {
        let events = parse_str(SAMPLE, &opts()).unwrap();
        // Four D rows with data; the N (no-data) row and summaries skipped.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].sector, 9_656_328);
        assert_eq!(events[0].sectors, 8);
        assert!(!events[0].is_write);
        assert!(events[1].is_write);
        assert!(events[2].major == 8 && events[2].minor == 16);
    }

    #[test]
    fn queue_and_complete_actions_selectable() {
        let q = BlkparseOptions { action: Action::Queue, ..opts() };
        assert_eq!(parse_str(SAMPLE, &q).unwrap().len(), 1);
        let c = BlkparseOptions { action: Action::Complete, ..opts() };
        assert_eq!(parse_str(SAMPLE, &c).unwrap().len(), 1);
    }

    #[test]
    fn device_filter() {
        let f = BlkparseOptions { device_filter: Some((8, 0)), ..opts() };
        let events = parse_str(SAMPLE, &f).unwrap();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.minor == 0));
    }

    #[test]
    fn converts_to_bunched_trace() {
        let events = parse_str(SAMPLE, &opts()).unwrap();
        let t = convert(&events, "sda", &opts());
        // (0.00001), (0.002, 0.00202), (0.0025 -> other disk, same trace
        // since convert doesn't filter) => windows: first alone; 0.002+0.00202
        // bunch; 0.0025 separate? 0.0025-0.002 = 500us > 100us window.
        assert_eq!(t.bunch_count(), 3);
        assert_eq!(t.bunches[0].timestamp, 0, "rebased");
        assert_eq!(t.bunches[1].len(), 2);
        assert_eq!(t.io_count(), 4);
        // Sector lengths are 512-byte units -> bytes.
        assert_eq!(t.bunches[0].ios[0].bytes, 8 * 512);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn rwbs_modifiers_are_tolerated() {
        // "WS" (sync write) parses as a write.
        let line = "  8,0 0 1 0.1 99 D WS 100 + 8 [x]";
        let ev = parse_line(line, Action::Dispatch, 1).unwrap().unwrap();
        assert!(ev.is_write);
        // RA (readahead) parses as a read.
        let line = "  8,0 0 1 0.1 99 D RA 100 + 8 [x]";
        assert!(!parse_line(line, Action::Dispatch, 1).unwrap().unwrap().is_write);
    }

    #[test]
    fn malformed_event_rows_error_cleanly() {
        for bad in [
            "  8,0 0 1 notatime 99 D R 100 + 8 [x]",
            "  8,0 0 1 -1.0 99 D R 100 + 8 [x]",
            "  8,0 0 1 0.1 99 D R badsector + 8 [x]",
            "  8,0 0 1 0.1 99 D R 100 + badlen [x]",
            "  8,0 0 1 0.1 99 D R 100 + 8388608 [x]",
        ] {
            assert!(parse_line(bad, Action::Dispatch, 7).is_err(), "should reject {bad:?}");
        }
        // The largest length whose byte count fits the IO package's u32.
        let max = "  8,0 0 1 0.1 99 D R 100 + 8388607 [x]";
        let ev = parse_line(max, Action::Dispatch, 1).unwrap().unwrap();
        assert_eq!(ev.sectors * 512, u32::MAX - 511);
        // Errors name the format and the line.
        let err = parse_str("\n  8,0 0 1 notatime 99 D R 100 + 8 [x]\n", &opts()).unwrap_err();
        assert_eq!(err.to_string(), "blkparse parse error at line 2: bad timestamp");
        // Rows that merely aren't events pass through as None.
        assert_eq!(parse_line("", Action::Dispatch, 1).unwrap(), None);
        assert_eq!(parse_line("CPU0 (8,0):", Action::Dispatch, 1).unwrap(), None);
        assert_eq!(
            parse_line("  8,0 0 1 0.1 99 D R 100 - 8 [x]", Action::Dispatch, 1).unwrap(),
            None,
            "missing '+' means no data payload"
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("tracer_blkparse_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        std::fs::write(&path, SAMPLE).unwrap();
        let t = convert_file(&path, "sda", &opts()).unwrap();
        assert_eq!(t.io_count(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_and_discard_rows_skipped() {
        let line = "  8,0 0 1 0.1 99 D R 100 + 0 [x]";
        assert_eq!(parse_line(line, Action::Dispatch, 1).unwrap(), None);
        let line = "  8,0 0 1 0.1 99 D D 100 + 8 [x]"; // discard rwbs
        assert_eq!(parse_line(line, Action::Dispatch, 1).unwrap(), None);
    }
}
