//! HP-labs style `.srt` text trace format and converter.
//!
//! The paper's *trace format transformer* "change\[s\] the HP trace format (i.e.,
//! trace files with the extension name srt) into the blktrace format" so that
//! cello96/cello99 traces can be replayed (§III-A2). The original HP SRT
//! container is proprietary; we implement a documented text rendering of its
//! per-record content that is sufficient for the conversion pipeline:
//!
//! ```text
//! # comment / header lines start with '#'
//! <timestamp-seconds-float> <device-id> <start-byte> <length-bytes> <R|W>
//! ```
//!
//! Records are whitespace-separated, one request per line, ordered by
//! timestamp. The converter groups records whose timestamps fall into the same
//! *bunch window* (default 100 µs — requests the kernel saw "at the same
//! time") into one bunch, matching the concurrent-IO semantics of the replay
//! format.

use crate::error::TraceError;
use crate::model::{IoPackage, Nanos, OpKind, Trace, SECTOR_BYTES};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// One parsed `.srt` record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SrtRecord {
    /// Arrival time in seconds from the start of the trace.
    pub timestamp_s: f64,
    /// Device identifier within the traced host.
    pub device_id: u32,
    /// Starting byte offset of the request.
    pub start_byte: u64,
    /// Request length in bytes.
    pub length: u32,
    /// Read or write.
    pub kind: OpKind,
}

impl SrtRecord {
    fn to_io_package(self) -> IoPackage {
        IoPackage::new(self.start_byte / SECTOR_BYTES, self.length, self.kind)
    }
}

/// Options controlling the `.srt` → `.replay` conversion.
#[derive(Debug, Clone, Copy)]
pub struct ConvertOptions {
    /// Records closer together than this window join the same bunch.
    pub bunch_window_ns: Nanos,
    /// When set, only records for this device id are converted.
    pub device_filter: Option<u32>,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        Self { bunch_window_ns: 100_000, device_filter: None }
    }
}

/// Parse `.srt` text from a reader.
pub fn parse<R: BufRead>(reader: R) -> Result<Vec<SrtRecord>, TraceError> {
    let mut records = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let body = line.trim();
        if body.is_empty() || body.starts_with('#') {
            continue;
        }
        records.push(parse_record(body, lineno)?);
    }
    Ok(records)
}

fn parse_record(body: &str, line: usize) -> Result<SrtRecord, TraceError> {
    let err = |reason: &str| TraceError::Parse { format: "srt", line, reason: reason.to_string() };
    let mut fields = body.split_whitespace();
    let mut next = |name: &str| fields.next().ok_or_else(|| err(&format!("missing {name}")));
    let timestamp_s: f64 =
        next("timestamp")?.parse().map_err(|_| err("timestamp is not a number"))?;
    if !timestamp_s.is_finite() || timestamp_s < 0.0 {
        return Err(err("timestamp must be finite and non-negative"));
    }
    let device_id: u32 = next("device id")?.parse().map_err(|_| err("device id is not a u32"))?;
    let start_byte: u64 =
        next("start byte")?.parse().map_err(|_| err("start byte is not a u64"))?;
    let length: u32 = next("length")?.parse().map_err(|_| err("length is not a u32"))?;
    if length == 0 {
        return Err(err("length must be positive"));
    }
    let kind_field = next("op kind")?;
    let kind = kind_field
        .chars()
        .next()
        .and_then(OpKind::from_code)
        .ok_or_else(|| err("op kind must be R or W"))?;
    if fields.next().is_some() {
        return Err(err("trailing fields"));
    }
    Ok(SrtRecord { timestamp_s, device_id, start_byte, length, kind })
}

/// Convert parsed records into a replay-format [`Trace`].
///
/// Records are optionally filtered by device, then sorted, shifted so the
/// first record is at t = 0, and grouped into bunches by
/// [`ConvertOptions::bunch_window_ns`] ([`Trace::from_timed_ios`]).
pub fn convert(records: &[SrtRecord], device: &str, opts: ConvertOptions) -> Trace {
    let ios = records
        .iter()
        .filter(|r| opts.device_filter.is_none_or(|d| d == r.device_id))
        .map(|r| (r.timestamp_s, r.to_io_package()))
        .collect();
    Trace::from_timed_ios(device, opts.bunch_window_ns, ios)
}

/// Parse an `.srt` file and convert it in one step.
pub fn convert_file(path: &Path, device: &str, opts: ConvertOptions) -> Result<Trace, TraceError> {
    let records = parse(BufReader::new(File::open(path)?))?;
    Ok(convert(&records, device, opts))
}

/// Render a trace back to `.srt` text (useful for fixtures and round-trip
/// testing; each IO package becomes one record, device id 0).
pub fn write_srt(trace: &Trace, path: &Path) -> Result<(), TraceError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# srt rendering of trace {:?}", trace.device)?;
    writeln!(w, "# timestamp_s device_id start_byte length_bytes op")?;
    for (ts, io) in trace.iter_ios() {
        writeln!(
            w,
            "{:.9} 0 {} {} {}",
            ts as f64 / 1e9,
            io.sector * SECTOR_BYTES,
            io.bytes,
            io.kind.code()
        )?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
# cello-like fixture
0.000000 3 0 4096 R
0.000050 3 8192 512 W
0.010000 3 1048576 65536 R
0.010020 7 0 512 W
0.250000 3 4096 4096 W
";

    #[test]
    fn parses_records() {
        let recs = parse(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].kind, OpKind::Read);
        assert_eq!(recs[1].start_byte, 8192);
        assert_eq!(recs[3].device_id, 7);
    }

    #[test]
    fn convert_groups_by_window() {
        let recs = parse(Cursor::new(SAMPLE)).unwrap();
        let t = convert(&recs, "cello", ConvertOptions::default());
        // (0, 0.00005) join; (0.01, 0.01002) join; 0.25 alone.
        assert_eq!(t.bunch_count(), 3);
        assert_eq!(t.bunches[0].len(), 2);
        assert_eq!(t.bunches[1].len(), 2);
        assert_eq!(t.bunches[2].len(), 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn convert_filters_device() {
        let recs = parse(Cursor::new(SAMPLE)).unwrap();
        let opts = ConvertOptions { device_filter: Some(7), ..Default::default() };
        let t = convert(&recs, "cello-d7", opts);
        assert_eq!(t.io_count(), 1);
        assert_eq!(t.bunches[0].timestamp, 0, "trace rebased to first record");
    }

    #[test]
    fn convert_empty_is_empty() {
        let t = convert(&[], "none", ConvertOptions::default());
        assert!(t.is_empty());
    }

    #[test]
    fn byte_offsets_become_sectors() {
        let recs = parse(Cursor::new("0.0 0 1024 512 W\n")).unwrap();
        let t = convert(&recs, "d", ConvertOptions::default());
        assert_eq!(t.bunches[0].ios[0].sector, 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "# ok\n0.0 0 0 4096 R\nnot a record\n";
        match parse(Cursor::new(bad)) {
            Err(e @ TraceError::Parse { format: "srt", line: 3, .. }) => {
                assert_eq!(e.to_string(), "srt parse error at line 3: timestamp is not a number");
            }
            other => panic!("expected an srt parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_fields() {
        for bad in [
            "x 0 0 4096 R",     // bad timestamp
            "-1.0 0 0 4096 R",  // negative timestamp
            "0.0 0 0 0 R",      // zero length
            "0.0 0 0 4096 Q",   // bad op
            "0.0 0 0 4096",     // missing op
            "0.0 0 0 4096 R z", // trailing field
        ] {
            assert!(parse(Cursor::new(bad)).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn srt_file_round_trip() {
        let dir = std::env::temp_dir().join("tracer_srt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.srt");
        let recs = parse(Cursor::new(SAMPLE)).unwrap();
        let t = convert(&recs, "cello", ConvertOptions::default());
        write_srt(&t, &path).unwrap();
        let back = convert_file(&path, "cello", ConvertOptions::default()).unwrap();
        assert_eq!(back.io_count(), t.io_count());
        assert_eq!(back.total_bytes(), t.total_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsorted_input_is_sorted_by_convert() {
        let recs = parse(Cursor::new("5.0 0 0 512 R\n1.0 0 512 512 W\n")).unwrap();
        let t = convert(&recs, "d", ConvertOptions::default());
        assert_eq!(t.bunches[0].ios[0].kind, OpKind::Write);
        assert_eq!(t.bunches[0].timestamp, 0);
        assert_eq!(t.bunches[1].timestamp, 4_000_000_000);
    }
}
