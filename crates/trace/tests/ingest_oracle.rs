//! Oracle tests for the streaming text ingest: for any srt or blkparse text
//! whose disorder fits the reorder window, [`ingest::convert`] into a
//! [`V3Encoder`] must produce **byte-identical** v3 images to the
//! sort-then-bunch conversion it replaced ([`oracle`]): a stable sort of all
//! records by timestamp, a rebase to t = 0, then greedy 100 µs bunching into
//! an owned [`Trace`].
//!
//! Disorder past the window is an error naming the record's line, and equal
//! timestamps keep input order, also across the window's edge.

use proptest::prelude::*;
use tracer_trace::ingest::{self, BUNCH_WINDOW_NS, MAX_LINE_BYTES, REORDER_WINDOW};
use tracer_trace::{v3, Bunch, IoPackage, Nanos, OpKind, Trace, TraceError, V3Encoder};

/// The whole-trace conversion: stable sort by timestamp (equal stamps keep
/// input order), rebase, then an IO more than the window after the open
/// bunch's start opens a new bunch.
fn oracle(device: &str, mut ios: Vec<(f64, IoPackage)>) -> Vec<u8> {
    ios.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ns = |seconds: f64| (seconds * 1e9).round() as Nanos;
    let base = ios.first().map_or(0, |&(t, _)| ns(t));
    let mut trace = Trace::new(device);
    let mut bunch_start: Nanos = 0;
    let mut pending: Vec<IoPackage> = Vec::new();
    for (seconds, io) in ios {
        let t = ns(seconds).saturating_sub(base);
        if !pending.is_empty() && t.saturating_sub(bunch_start) > BUNCH_WINDOW_NS {
            trace.push_bunch(Bunch::new(bunch_start, std::mem::take(&mut pending)));
            bunch_start = t;
        } else if pending.is_empty() {
            bunch_start = t;
        }
        pending.push(io);
    }
    if !pending.is_empty() {
        trace.push_bunch(Bunch::new(bunch_start, pending));
    }
    v3::to_bytes(&trace)
}

fn streamed(device: &str, text: &str) -> Result<Vec<u8>, TraceError> {
    let mut enc = V3Encoder::new(device);
    ingest::convert(text.as_bytes(), &mut enc)?;
    Ok(enc.finish())
}

fn to_trace(text: &str) -> Result<Trace, TraceError> {
    let mut trace = Trace::new("t");
    ingest::convert(text.as_bytes(), &mut trace)?;
    Ok(trace)
}

/// `ns` as the `seconds.nanoseconds` text both formats carry.
fn stamp(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// One generated request: (gap class, gap, sector, size, write).
type Raw = (u64, u64, u64, u32, bool);

/// Up to 300 requests. A quarter of the gaps are zero (timestamp ties), a
/// quarter fall inside the bunch window, a quarter sit on its edge (exactly
/// the window, or one past it), the rest are longer.
fn arb_requests() -> impl Strategy<Value = Vec<Raw>> {
    proptest::collection::vec(
        (0u64..4, 1u64..2_000_000, 0u64..(1 << 30), 1u32..=128, any::<bool>()),
        0..300,
    )
}

/// Timestamps (ns) in sorted order, and the input order: each record moves
/// up to `jitter` places, from a local swap up to a full shuffle.
fn arrange(raw: &[Raw], jitter: u64, seed: u64) -> (Vec<u64>, Vec<usize>) {
    let mut t = 5_000_000_000u64;
    let stamps = raw
        .iter()
        .map(|&(class, gap, ..)| {
            t += match class {
                0 => 0,
                1 => gap % BUNCH_WINDOW_NS,
                2 => BUNCH_WINDOW_NS + gap % 2,
                _ => gap,
            };
            t
        })
        .collect();
    let mut state = seed | 1;
    let mut order: Vec<(u64, usize)> = (0..raw.len())
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (i as u64 + state % jitter, i)
        })
        .collect();
    order.sort();
    (stamps, order.into_iter().map(|(_, i)| i).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn streamed_srt_bytes_equal_the_oracle(
        raw in arb_requests(),
        jitter in 1u64..400,
        seed in any::<u64>(),
        offset in 0u64..512,
    ) {
        let (stamps, order) = arrange(&raw, jitter, seed);
        let mut text = String::from("# generated srt\n");
        let mut ios = Vec::new();
        for (n, &i) in order.iter().enumerate() {
            let (_, _, sector, sectors, write) = raw[i];
            let kind = if write { OpKind::Write } else { OpKind::Read };
            // Any byte length, and a start byte inside its sector.
            let bytes = sectors * 512 - (offset as u32 % 512);
            let ts = stamp(stamps[i]);
            text.push_str(&format!(
                "{ts} {} {} {bytes} {}\n",
                n % 4,
                sector * 512 + offset,
                kind.code()
            ));
            if n % 50 == 7 {
                text.push_str("\n# a comment\n");
            }
            ios.push((ts.parse().unwrap(), IoPackage::new(sector, bytes, kind)));
        }
        prop_assert_eq!(streamed("srt", &text).unwrap(), oracle("srt", ios));
    }

    #[test]
    fn streamed_blkparse_bytes_equal_the_oracle(
        raw in arb_requests(),
        jitter in 1u64..400,
        seed in any::<u64>(),
    ) {
        let (stamps, order) = arrange(&raw, jitter, seed);
        let mut text = String::new();
        let mut ios = Vec::new();
        for (n, &i) in order.iter().enumerate() {
            let (_, _, sector, sectors, write) = raw[i];
            let (kind, rwbs) = match (write, n % 3) {
                (true, 0) => (OpKind::Write, "WS"),
                (true, _) => (OpKind::Write, "W"),
                (false, 0) => (OpKind::Read, "RA"),
                (false, _) => (OpKind::Read, "R"),
            };
            let ts = stamp(stamps[i]);
            // Per-CPU streams, each with queue and completion rows that are
            // not imported.
            let (cpu, minor) = (n % 4, 16 * (n % 2));
            let io = format!("{rwbs} {sector} + {sectors}");
            text.push_str(&format!("  8,{minor} {cpu} {n} {ts} 99 Q {io} [x]\n"));
            text.push_str(&format!("  8,{minor} {cpu} {n} {ts} 99 D {io} [x]\n"));
            text.push_str(&format!("  8,{minor} {cpu} {n} {ts} 0 C {io} [0]\n"));
            ios.push((ts.parse().unwrap(), IoPackage::new(sector, sectors * 512, kind)));
        }
        // The summary follows the events; an empty capture starts with it.
        text.push_str("CPU0 (8,0):\n Reads Queued:  1,  4KiB\n");
        prop_assert_eq!(streamed("sda", &text).unwrap(), oracle("sda", ios));
    }
}

/// `late` records at t = 2 s, then one at t = 1 s on the last line.
fn overtaken_by(late: usize) -> String {
    let mut text: String =
        (0..late).map(|i| format!("  8,0 0 {i} 2.000000000 1 D R {} + 8 [x]\n", i * 8)).collect();
    text.push_str("  8,0 0 0 1.000000000 1 D W 0 + 8 [x]\n");
    text
}

#[test]
fn disorder_up_to_the_window_is_sorted_and_one_more_is_a_line_numbered_error() {
    let trace = to_trace(&overtaken_by(REORDER_WINDOW)).unwrap();
    assert_eq!(trace.io_count(), REORDER_WINDOW + 1);
    assert_eq!(trace.bunches[0].ios, vec![IoPackage::write(0, 4096)], "the early record leads");
    assert_eq!(trace.bunches[1].timestamp, 1_000_000_000);

    let err = to_trace(&overtaken_by(REORDER_WINDOW + 1)).unwrap_err();
    let line = REORDER_WINDOW + 2;
    assert!(
        matches!(err, TraceError::Parse { format: "blkparse", line: l, .. } if l == line),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        format!(
            "blkparse parse error at line {line}: out of order beyond the \
             {REORDER_WINDOW}-record reorder window"
        )
    );
    // The same rule holds for srt, with the srt line number.
    let srt = "# header\n2.0 0 0 512 R\n1.0 0 0 512 R\n";
    let srt: String = srt.replace("2.0 0 0 512 R\n", &"2.0 0 0 512 R\n".repeat(REORDER_WINDOW + 1));
    match to_trace(&srt) {
        Err(TraceError::Parse { format: "srt", line, .. }) => assert_eq!(line, REORDER_WINDOW + 3),
        other => panic!("expected an srt disorder error, got {other:?}"),
    }
}

#[test]
fn ties_keep_input_order_across_the_window_edge() {
    // More records at one instant than the window holds: input order must
    // survive the heap, which sees them in several passes.
    let n = REORDER_WINDOW + 100;
    let text: String = (0..n as u64).map(|i| format!("0.5 0 {} 512 W\n", i * 512)).collect();
    let trace = to_trace(&text).unwrap();
    assert_eq!(trace.bunch_count(), 1);
    let sectors: Vec<u64> = trace.bunches[0].ios.iter().map(|io| io.sector).collect();
    assert_eq!(sectors, (0..n as u64).collect::<Vec<_>>());
}

#[test]
fn checked_in_samples_convert() {
    let fixture = |name: &str| {
        let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        to_trace(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    // srt: ten records (one out of order, one blank line) in five bunches.
    let srt = fixture("sample.srt");
    assert_eq!((srt.io_count(), srt.bunch_count()), (10, 5));
    assert_eq!(srt.bunches[1].ios.iter().map(|io| io.sector).collect::<Vec<_>>(), [2048, 8, 0]);
    // blkparse: twelve dispatched data rows out of two interleaved CPUs;
    // the Q/C rows, the flush row, the discard and the summary are skipped.
    let blk = fixture("sample.blkparse");
    assert_eq!((blk.io_count(), blk.bunch_count()), (12, 6));
    assert!(blk.validate().is_ok());
    assert_eq!(blk.duration(), 12_000_000 - 4_120);
}

#[test]
fn a_summary_only_blkparse_capture_is_an_empty_trace() {
    for text in [
        "CPU0 (8,0):\n",
        "CPU1 (sda):\n Reads Queued: 0, 0KiB\n\nTotal (sda):\n Writes Queued: 0, 0KiB\n",
        "Total (8,0):\n Reads Queued: 0, 0KiB\n",
    ] {
        let trace = to_trace(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(trace.io_count(), 0, "{text:?}");
        assert_eq!(streamed("sda", text).unwrap(), oracle("sda", Vec::new()));
    }
    // Neither header shape is taken for anything else.
    for text in ["CPUx (8,0):\n", "Total 8,0\n", "CPU0\n"] {
        assert!(
            matches!(to_trace(text), Err(TraceError::Parse { format: "srt", line: 1, .. })),
            "{text:?}"
        );
    }
}

#[test]
fn a_line_longer_than_the_cap_is_a_line_numbered_error() {
    let fits = format!("# {}\n0.5 0 0 512 R\n", "x".repeat(MAX_LINE_BYTES - 3));
    assert_eq!(to_trace(&fits).unwrap().io_count(), 1);
    let long = format!("0.5 0 0 512 R\n0.6 0 0 512 R {}\n", "x".repeat(MAX_LINE_BYTES));
    let err = to_trace(&long).unwrap_err();
    assert!(matches!(err, TraceError::Parse { format: "srt", line: 2, .. }), "{err:?}");
    assert_eq!(
        err.to_string(),
        format!("srt parse error at line 2: line longer than {MAX_LINE_BYTES} bytes")
    );
    // Before any record line the format is not known yet.
    let err = to_trace(&"x".repeat(3 * MAX_LINE_BYTES)).unwrap_err();
    assert!(matches!(err, TraceError::Parse { format: "text", line: 1, .. }), "{err:?}");
}
