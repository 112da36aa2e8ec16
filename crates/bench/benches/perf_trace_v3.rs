//! `perf_trace_v3` — v2 heap decode versus the v3 mmap-backed columnar view.
//!
//! Two measurements over the same synthetic trace, stored in both formats:
//!
//! * **decode-to-first-bunch** — cold-open latency: how long until the first
//!   bunch is replayable. v2 pays a full-file heap decode before bunch 0
//!   exists; v3 maps the file and validates the fixed header in O(1).
//! * **sequential scan** — full-trace streaming throughput in IO events/s:
//!   the v2 `BunchDecoder` heap-decodes one `Bunch` (and its `Vec` of IOs)
//!   per step, the v3 cursor decodes columns into one reused scratch buffer
//!   with zero per-bunch allocation.
//!
//! Emits `RESULT perf_trace_v3` with both throughputs and `scan_speedup`
//! (v3/v2), which CI gates: the columnar view must stay well ahead of the
//! heap decoder it bypasses. The speedup is self-normalizing, so runner
//! speed cancels out.

use std::hint::black_box;
use std::time::Instant;
use tracer_bench::{banner, json_result};
use tracer_trace::compact::{self, encode_body, BunchDecoder};
use tracer_trace::{replay_format, v3, Bunch, BunchSource, IoPackage, Trace, TraceView};

/// Synthetic trace shaped like a collected block trace: mostly-sequential
/// sectors with periodic jumps, small bunches, mixed reads/writes.
fn fixture(bunches: u64) -> Trace {
    let mut out = Vec::with_capacity(bunches as usize);
    let mut sector = 2048u64;
    for i in 0..bunches {
        let n = 1 + (i % 3) as usize;
        let mut ios = Vec::with_capacity(n);
        for j in 0..n {
            let bytes = 4096 * (1 + ((i + j as u64) % 4) as u32);
            if (i + j as u64) % 7 == 0 {
                sector = (sector.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695))
                    % 50_000_000;
            }
            let io = if (i + j as u64) % 5 == 0 {
                IoPackage::write(sector, bytes)
            } else {
                IoPackage::read(sector, bytes)
            };
            sector += u64::from(bytes) / 512;
            ios.push(io);
        }
        out.push(Bunch::new(i * 400_000, ios));
    }
    Trace::from_bunches("bench", out)
}

fn checksum(ts: u64, ios: &[IoPackage]) -> u64 {
    let mut sum = ts;
    for io in ios {
        sum = sum.wrapping_mul(31).wrapping_add(io.sector).wrapping_add(u64::from(io.bytes));
    }
    sum
}

fn main() {
    banner("perf_trace_v3", "v2 heap decode vs v3 mmap columnar view");
    let bunches = std::env::var("TRACER_BENCH_V3_BUNCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150_000u64);
    let trace = fixture(bunches);
    let total_ios = trace.io_count() as u64;

    let dir = std::env::temp_dir().join(format!("tracer_perf_v3_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let v2_path = dir.join("bench.replay");
    let v3_path = dir.join("bench.replay3");
    // The v2 side is a legacy file, written through the reference encoder.
    replay_format::write_bytes_atomic(&compact::to_bytes(&trace), &v2_path).expect("write v2");
    v3::write_file(&trace, &v3_path).expect("write v3");

    // In-memory v2 body for the scan loop: the decoder is measured against
    // warm bytes, so the comparison cannot hide page-cache effects.
    let mut body = Vec::new();
    encode_body(&trace, &mut body);

    // Decode-to-first-bunch: best of 7 cold opens per format.
    let mut v2_first = f64::MAX;
    let mut v3_first = f64::MAX;
    for _ in 0..7 {
        let t0 = Instant::now();
        let decoded = replay_format::read_file(&v2_path).expect("read v2");
        black_box(&decoded.bunches[0]);
        v2_first = v2_first.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let view = TraceView::open(&v3_path).expect("open v3");
        let mut cursor = view.cursor();
        let mut scratch = Vec::new();
        let first = cursor.next_into(&mut scratch).expect("first bunch");
        black_box(first);
        v3_first = v3_first.min(t0.elapsed().as_secs_f64());
    }

    // Sequential scan: interleaved best-of-3 so a scheduler blip on one side
    // cannot manufacture a speedup. Checksums pin both sides to identical
    // decoded content.
    let view = TraceView::open(&v3_path).expect("open v3");
    let mut v2_scan = f64::MAX;
    let mut v3_scan = f64::MAX;
    let mut sum_v2 = 0u64;
    let mut sum_v3 = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut sum = 0u64;
        let mut dec = BunchDecoder::new(&body).expect("v2 decoder");
        while let Some(bunch) = dec.next_bunch().expect("v2 bunch") {
            sum = sum.wrapping_add(checksum(bunch.timestamp, &bunch.ios));
        }
        v2_scan = v2_scan.min(t0.elapsed().as_secs_f64());
        sum_v2 = sum;

        let t0 = Instant::now();
        let mut sum = 0u64;
        view.try_for_each_bunch(&mut |ts, ios| {
            sum = sum.wrapping_add(checksum(ts, ios));
        })
        .expect("v3 scan");
        v3_scan = v3_scan.min(t0.elapsed().as_secs_f64());
        sum_v3 = sum;
    }
    assert_eq!(sum_v2, sum_v3, "formats decoded different content");
    black_box((sum_v2, sum_v3));

    let v2_eps = total_ios as f64 / v2_scan;
    let v3_eps = total_ios as f64 / v3_scan;
    println!(
        "first bunch:     v2 heap decode {:>10.1} us   v3 mmap view {:>10.1} us  ({:.0}x)",
        v2_first * 1e6,
        v3_first * 1e6,
        v2_first / v3_first
    );
    println!(
        "sequential scan: v2 {:>12.0} events/s   v3 {:>12.0} events/s  ({:.2}x)",
        v2_eps,
        v3_eps,
        v3_eps / v2_eps
    );

    json_result(
        "perf_trace_v3",
        &serde_json::json!({
            "bunches": bunches,
            "ios": total_ios,
            "v2_first_bunch_us": v2_first * 1e6,
            "v3_first_bunch_us": v3_first * 1e6,
            "first_bunch_speedup": v2_first / v3_first,
            "v2_scan_events_per_sec": v2_eps,
            "v3_scan_events_per_sec": v3_eps,
            "scan_speedup": v3_eps / v2_eps,
        }),
    );

    let _ = std::fs::remove_dir_all(&dir);
}
