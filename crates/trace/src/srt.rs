//! HP-labs style `.srt` text trace format: its per-line rule and a writer.
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
//! timestamp. [`crate::ingest::convert`] streams them into bunches: records
//! within 100 µs of a bunch's start (requests the kernel saw "at the same
//! time") join it, matching the concurrent-IO semantics of the replay format.
//! Every device id is imported; the field is checked and dropped.

use crate::error::TraceError;
use crate::ingest::Timed;
use crate::model::{IoPackage, OpKind, Trace, SECTOR_BYTES};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Parse one `.srt` line: `Ok(None)` for blank and `#` comment lines.
pub(crate) fn parse_line(line: &str, lineno: usize) -> Result<Option<Timed>, TraceError> {
    let body = line.trim();
    if body.is_empty() || body.starts_with('#') {
        return Ok(None);
    }
    let err = |reason: &str| TraceError::Parse {
        format: "srt",
        line: lineno,
        reason: reason.to_string(),
    };
    let mut fields = body.split_whitespace();
    let mut next = |name: &str| fields.next().ok_or_else(|| err(&format!("missing {name}")));
    let timestamp_s: f64 =
        next("timestamp")?.parse().map_err(|_| err("timestamp is not a number"))?;
    if !timestamp_s.is_finite() || timestamp_s < 0.0 {
        return Err(err("timestamp must be finite and non-negative"));
    }
    let _device_id: u32 = next("device id")?.parse().map_err(|_| err("device id is not a u32"))?;
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
    Ok(Some((timestamp_s, IoPackage::new(start_byte / SECTOR_BYTES, length, kind))))
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

    const SAMPLE: &str = "\
# cello-like fixture
0.000000 3 0 4096 R
0.000050 3 8192 512 W
0.010000 3 1048576 65536 R
0.010020 7 0 512 W
0.250000 3 4096 4096 W
";

    fn records(text: &str) -> Result<Vec<Timed>, TraceError> {
        text.lines().enumerate().filter_map(|(i, l)| parse_line(l, i + 1).transpose()).collect()
    }

    fn convert(text: &str) -> Result<Trace, TraceError> {
        let mut trace = Trace::new("cello");
        crate::ingest::convert(text.as_bytes(), &mut trace)?;
        Ok(trace)
    }

    #[test]
    fn parses_records() {
        let recs = records(SAMPLE).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].1.kind, OpKind::Read);
        assert_eq!(recs[1].1.sector, 8192 / SECTOR_BYTES);
        assert_eq!(recs[3], (0.010020, IoPackage::write(0, 512)), "device 7 is imported too");
    }

    #[test]
    fn convert_groups_by_window() {
        let t = convert(SAMPLE).unwrap();
        // (0, 0.00005) join; (0.01, 0.01002) join; 0.25 alone.
        assert_eq!(t.bunch_count(), 3);
        assert_eq!(t.bunches[0].len(), 2);
        assert_eq!(t.bunches[1].len(), 2);
        assert_eq!(t.bunches[2].len(), 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn convert_empty_is_empty() {
        assert!(convert("").unwrap().is_empty());
        assert!(convert("# header only\n\n").unwrap().is_empty());
    }

    #[test]
    fn byte_offsets_become_sectors() {
        let t = convert("0.0 0 1024 512 W\n").unwrap();
        assert_eq!(t.bunches[0].ios[0].sector, 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "# ok\n0.0 0 0 4096 R\nnot a record\n";
        match convert(bad) {
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
            assert!(convert(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn srt_file_round_trip() {
        let dir = std::env::temp_dir().join(format!("tracer_srt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.srt");
        let t = convert(SAMPLE).unwrap();
        write_srt(&t, &path).unwrap();
        let mut back = Trace::new("cello");
        let file = std::io::BufReader::new(File::open(&path).unwrap());
        crate::ingest::convert(file, &mut back).unwrap();
        assert_eq!(back, t);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_input_is_sorted_by_convert() {
        let t = convert("5.0 0 0 512 R\n1.0 0 512 512 W\n").unwrap();
        assert_eq!(t.bunches[0].ios[0].kind, OpKind::Write);
        assert_eq!(t.bunches[0].timestamp, 0);
        assert_eq!(t.bunches[1].timestamp, 4_000_000_000);
    }
}
