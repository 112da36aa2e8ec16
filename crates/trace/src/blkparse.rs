//! The per-line rule for `blkparse` text output — the format real
//! blktrace deployments produce.
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
//! [`crate::ingest::convert`] streams such text into a replay-format trace:
//! every `D` row (dispatch to driver: what the device actually saw) of every
//! device becomes an IO package, and events inside the bunch window
//! coalesce. Lengths are in 512-byte sectors, timestamps in seconds.
//! [`parse_line`] walks the whitespace-separated fields with an iterator, so
//! nothing is allocated per line.

use crate::error::TraceError;
use crate::ingest::Timed;
use crate::model::{IoPackage, OpKind};

/// Parse one `blkparse` line. Returns `Ok(None)` for rows of actions other
/// than `D`, non-data rows (no `sector + len`), summary output, and blank
/// lines; `Err` only for rows that *look like* events but are malformed.
pub(crate) fn parse_line(line: &str, lineno: usize) -> Result<Option<Timed>, TraceError> {
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
    let (Some(dev), Some(time), Some(action)) = (dev, time, fields.next()) else {
        return Ok(None); // fewer than six fields: not an event row
    };
    if action != "D" {
        return Ok(None);
    }
    let (maj, min) = dev.split_once(',').ok_or_else(|| err("device field is not maj,min"))?;
    let _major: u32 = maj.parse().map_err(|_| err("bad major"))?;
    let _minor: u32 = min.parse().map_err(|_| err("bad minor"))?;
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
    let kind = if rwbs.contains('W') {
        OpKind::Write
    } else if rwbs.contains('R') {
        OpKind::Read
    } else {
        return Ok(None); // discard / flush-only rows
    };
    // The v3 encoder stores sector deltas as i64, so the request's end must
    // fit one.
    if sector.checked_add(u64::from(sectors)).is_none_or(|end| end > i64::MAX as u64) {
        return Err(err("sector out of range"));
    }
    Ok(Some((timestamp_s, IoPackage::new(sector, sectors * 512, kind))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Trace;

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

    fn records(text: &str) -> Result<Vec<Timed>, TraceError> {
        text.lines().enumerate().filter_map(|(i, l)| parse_line(l, i + 1).transpose()).collect()
    }

    fn convert(text: &str) -> Result<Trace, TraceError> {
        let mut trace = Trace::new("sda");
        crate::ingest::convert(text.as_bytes(), &mut trace)?;
        Ok(trace)
    }

    #[test]
    fn parses_dispatch_rows_only() {
        let events = records(SAMPLE).unwrap();
        // Four D rows with data, of both devices; the Q and C rows, the N
        // (no-data) row and the summaries are skipped.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], (0.00001, IoPackage::read(9_656_328, 8 * 512)));
        assert_eq!(events[1].1.kind, OpKind::Write);
        assert_eq!(events[2].1.sector, 42);
    }

    #[test]
    fn converts_to_bunched_trace() {
        let t = convert(SAMPLE).unwrap();
        // 0.00001 alone; 0.002 and 0.00202 (a row that came in after
        // 0.0025) bunch; 0.0025 is 500 us later than 0.002, past the 100 us
        // window.
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
        assert_eq!(parse_line(line, 1).unwrap().unwrap().1.kind, OpKind::Write);
        // RA (readahead) parses as a read.
        let line = "  8,0 0 1 0.1 99 D RA 100 + 8 [x]";
        assert_eq!(parse_line(line, 1).unwrap().unwrap().1.kind, OpKind::Read);
    }

    #[test]
    fn malformed_event_rows_error_cleanly() {
        for bad in [
            "  8,0 0 1 notatime 99 D R 100 + 8 [x]",
            "  8,0 0 1 -1.0 99 D R 100 + 8 [x]",
            "  8,0 0 1 0.1 99 D R badsector + 8 [x]",
            "  8,0 0 1 0.1 99 D R 100 + badlen [x]",
            "  8,0 0 1 0.1 99 D R 100 + 8388608 [x]",
            // End sectors past i64::MAX, and past u64::MAX.
            "  8,0 0 1 0.1 99 D R 9223372036854775800 + 8 [x]",
            "  8,0 0 1 0.1 99 D W 18446744073709551615 + 8 [x]",
        ] {
            assert!(parse_line(bad, 7).is_err(), "should reject {bad:?}");
        }
        // The largest length whose byte count fits the IO package's u32.
        let max = "  8,0 0 1 0.1 99 D R 100 + 8388607 [x]";
        assert_eq!(parse_line(max, 1).unwrap().unwrap().1.bytes, u32::MAX - 511);
        // The last request whose end sector is i64::MAX.
        let last = "  8,0 0 1 0.1 99 D R 9223372036854775799 + 8 [x]";
        assert_eq!(parse_line(last, 1).unwrap().unwrap().1.end_sector(), i64::MAX as u64);
        // Errors name the format and the line.
        let err = convert("\n  8,0 0 1 notatime 99 D R 100 + 8 [x]\n").unwrap_err();
        assert_eq!(err.to_string(), "blkparse parse error at line 2: bad timestamp");
        let err = convert(
            "  8,0 0 1 0.1 99 D R 1 + 8 [x]\n  8,0 0 2 0.2 99 D R 9223372036854775800 + 8 [x]\n",
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "blkparse parse error at line 2: sector out of range");
        // Rows that merely aren't events pass through as None.
        assert_eq!(parse_line("", 1).unwrap(), None);
        assert_eq!(parse_line("CPU0 (8,0):", 1).unwrap(), None);
        assert_eq!(
            parse_line("  8,0 0 1 0.1 99 D R 100 - 8 [x]", 1).unwrap(),
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
        let mut t = Trace::new("sda");
        let file = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        crate::ingest::convert(file, &mut t).unwrap();
        assert_eq!(t, convert(SAMPLE).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_and_discard_rows_skipped() {
        let line = "  8,0 0 1 0.1 99 D R 100 + 0 [x]";
        assert_eq!(parse_line(line, 1).unwrap(), None);
        let line = "  8,0 0 1 0.1 99 D D 100 + 8 [x]"; // discard rwbs
        assert_eq!(parse_line(line, 1).unwrap(), None);
    }
}
