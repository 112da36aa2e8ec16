//! Criterion micro-benchmarks of the framework's hot paths: trace
//! (de)serialisation, RAID-5 planning, the DES engine (request store and
//! elevator dispatch), the closed-loop generator, the end-to-end load sweep
//! (serial vs pooled), blkparse ingest, and a load-controlled replay through
//! the zero-copy plan.
//!
//! Each DES-engine benchmark also emits a machine-readable `RESULT` line
//! (events/sec, sweep seconds) so EXPERIMENTS.md can track the hot-path
//! numbers across commits. Set `TRACER_BENCH_SAMPLES` to shrink the sample
//! count (CI smoke runs use `TRACER_BENCH_SAMPLES=2`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;
use tracer_bench::json_result;
use tracer_core::{EvaluationHost, SweepBuilder, SweepExecutor};
use tracer_replay::{try_replay, LoadControl, ReplayConfig};
use tracer_sim::{
    ArrayRequest, ArraySim, ArraySpec, Geometry, QueueDiscipline, SimDuration, SimTime,
};
use tracer_trace::WorkloadMode;
use tracer_trace::{ingest, replay_format, Bunch, IoPackage, OpKind, Trace};
use tracer_workload::iometer::{run_peak_workload, IometerConfig};

fn samples_from_env() -> usize {
    std::env::var("TRACER_BENCH_SAMPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(20).max(1)
}

fn big_trace(bunches: usize) -> Trace {
    Trace::from_bunches(
        "bench",
        (0..bunches as u64)
            .map(|i| {
                Bunch::new(
                    i * 1_000_000,
                    (0..4).map(|j| IoPackage::read((i * 4 + j) * 128 % 10_000_000, 8192)).collect(),
                )
            })
            .collect(),
    )
}

fn bench_serialization(c: &mut Criterion) {
    let trace = big_trace(50_000);
    let bytes = replay_format::to_bytes(&trace);
    let mut g = c.benchmark_group("replay_format");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_v1_50k_bunches", |b| {
        b.iter(|| black_box(replay_format::to_bytes(black_box(&trace))))
    });
    g.bench_function("decode_v1_50k_bunches", |b| {
        b.iter(|| black_box(replay_format::from_bytes(black_box(&bytes)).unwrap()))
    });
    g.finish();

    let v2 = tracer_trace::compact::to_bytes(&trace);
    let mut g = c.benchmark_group("compact_v2");
    g.throughput(Throughput::Bytes(v2.len() as u64));
    g.bench_function("encode_v2_50k_bunches", |b| {
        b.iter(|| black_box(tracer_trace::compact::to_bytes(black_box(&trace))))
    });
    g.bench_function("decode_v2_50k_bunches", |b| {
        b.iter(|| black_box(replay_format::from_bytes(black_box(&v2)).unwrap()))
    });
    g.finish();
}

fn bench_raid_planning(c: &mut Criterion) {
    let geom = Geometry::raid5(6);
    let mut g = c.benchmark_group("raid5");
    g.throughput(Throughput::Elements(1));
    g.bench_function("plan_small_write", |b| {
        let mut sector = 0u64;
        b.iter(|| {
            sector = (sector + 8_191) % 10_000_000;
            black_box(geom.plan(black_box(sector), 8, OpKind::Write))
        })
    });
    g.bench_function("plan_large_read", |b| {
        let mut sector = 0u64;
        b.iter(|| {
            sector = (sector + 131_071) % 10_000_000;
            black_box(geom.plan(black_box(sector), 4096, OpKind::Read))
        })
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let trace = big_trace(2_000);
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(trace.io_count() as u64));
    g.bench_function("replay_8k_ios_raid5_hdd6", |b| {
        b.iter_batched(
            || ArraySpec::hdd_raid5(6).build(),
            |mut sim| {
                black_box(
                    try_replay(&mut sim, &trace, &ReplayConfig::default())
                        .expect("in-memory trace"),
                )
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// A simulator whose queues stay deep: requests arrive far faster than the
/// disks can serve them, so every DES event exercises the request store.
fn deep_queue_sim(total: u64) -> ArraySim {
    let mut sim = ArraySpec::hdd_raid5(6).build();
    for i in 0..total {
        let at = SimTime::from_micros(i * 20);
        let req = ArrayRequest::new((i * 48_271) % 400_000 * 256, 8192, OpKind::Read);
        sim.submit(at, req).expect("submit");
    }
    sim
}

fn bench_request_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("request_store");
    g.throughput(Throughput::Elements(5_000));
    g.bench_function("deep_queue_5k_requests", |b| {
        b.iter_batched(
            || deep_queue_sim(5_000),
            |mut sim| {
                sim.run_to_idle();
                black_box(sim.events_processed())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();

    // One deterministic run for the RESULT line: raw DES event throughput.
    let mut sim = deep_queue_sim(20_000);
    let t0 = Instant::now();
    sim.run_to_idle();
    let secs = t0.elapsed().as_secs_f64();
    let events = sim.events_processed();
    json_result(
        "perf_request_store",
        &serde_json::json!({
            "requests": 20_000,
            "events": events,
            "seconds": secs,
            "events_per_sec": events as f64 / secs.max(1e-9),
        }),
    );
}

/// An elevator-disciplined array with `depth` scattered requests queued in
/// one burst, so every dispatch walks the per-disk sector index.
fn elevator_backlog(depth: u64) -> ArraySim {
    let mut sim = ArraySpec::hdd_raid5(6).queue(QueueDiscipline::Elevator).build();
    for i in 0..depth {
        let req = ArrayRequest::new((i * 48_271) % 400_000 * 256, 4096, OpKind::Read);
        sim.submit(SimTime::ZERO, req).expect("submit");
    }
    sim
}

fn bench_elevator_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("elevator");
    for &depth in &[1u64, 8, 64, 512] {
        g.throughput(Throughput::Elements(depth));
        g.bench_function(&format!("dispatch_depth_{depth}"), |b| {
            b.iter_batched(
                || elevator_backlog(depth),
                |mut sim| {
                    sim.run_to_idle();
                    black_box(sim.events_processed())
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();

    let mut sim = elevator_backlog(512);
    let t0 = Instant::now();
    sim.run_to_idle();
    let secs = t0.elapsed().as_secs_f64();
    let events = sim.events_processed();
    json_result(
        "perf_elevator",
        &serde_json::json!({
            "depth": 512,
            "events": events,
            "seconds": secs,
            "events_per_sec": events as f64 / secs.max(1e-9),
        }),
    );
}

/// End-to-end load sweep, serial versus a four-worker pool. On a single-core
/// host the two are expected to tie; the RESULT line records both so scaling
/// can be compared across runners.
fn bench_load_sweep(c: &mut Criterion) {
    let _ = c;
    let trace = big_trace(20_000);
    let mode = WorkloadMode::peak(8192, 50, 100);
    let loads = [20, 40, 60, 80, 100];
    let run = |workers: usize| {
        let mut host = EvaluationHost::new();
        let exec = SweepExecutor::new(workers);
        let t0 = Instant::now();
        let res = SweepBuilder::new()
            .executor(exec)
            .loads(&loads)
            .label("perf")
            .load_sweep(&mut host, || ArraySpec::hdd_raid5(6).build(), &trace, mode)
            .expect("in-memory trace");
        black_box(&res);
        t0.elapsed().as_secs_f64()
    };
    let serial = run(1);
    let pooled = run(4);
    json_result(
        "perf_load_sweep",
        &serde_json::json!({
            "loads": loads.len() + 1,
            "serial_seconds": serial,
            "workers4_seconds": pooled,
            "speedup": serial / pooled.max(1e-9),
        }),
    );
}

/// Instrumentation overhead gate: ten request-store drains and a small load
/// sweep, timed with `tracer-obs` off and on, interleaved min-of-N so
/// scheduler noise hits both sides equally. The RESULT line carries the
/// on/off ratios; `check_regression` holds `max_ratio` under 1.05.
fn bench_obs_overhead(c: &mut Criterion) {
    let _ = c;
    // Many short rounds with the off/on order alternating each round: a load
    // spike or thermal ramp then lands on both sides equally, and min-of-N
    // keeps one clean measurement per side on a noisy runner. Twelve rounds
    // whatever `TRACER_BENCH_SAMPLES` says: at eight, the store ratio of one
    // idle 2-vCPU guest spread over 0.92-1.07 across runs, at twelve over
    // 0.98-1.03.
    let rounds = 12;
    let was = tracer_obs::enabled();

    // One 10 k-request drain takes ~3 ms, short enough for a single
    // preemption to move the ratio past the gate; ten back-to-back drains
    // make a sample, with every sim built before the clock starts.
    let time_store = || {
        let mut sims: Vec<ArraySim> = (0..10).map(|_| deep_queue_sim(10_000)).collect();
        let t0 = Instant::now();
        for sim in &mut sims {
            sim.run_to_idle();
            sim.obs_flush();
            black_box(sim.events_processed());
        }
        t0.elapsed().as_secs_f64()
    };
    // Likewise for the sweep half: with one ~8 ms one-load sweep per sample
    // the ratio read 1.05-1.09 in 2 of 13 runs, and with five per sample
    // 1.14 in 1 of 9; a sample is ten back-to-back sweeps, each builder and
    // host made before the clock starts (0.98-1.03 in 6 runs).
    let trace = big_trace(5_000);
    let mode = WorkloadMode::peak(8192, 50, 100);
    let time_sweep = || {
        let sweeps: Vec<(SweepBuilder, EvaluationHost)> = (0..10)
            .map(|_| (SweepBuilder::new().loads(&[40]).label("obs-gate"), EvaluationHost::new()))
            .collect();
        let t0 = Instant::now();
        let results: Vec<_> = sweeps
            .into_iter()
            .map(|(builder, mut host)| {
                builder
                    .load_sweep(&mut host, || ArraySpec::hdd_raid5(6).build(), &trace, mode)
                    .expect("in-memory trace")
            })
            .collect();
        let elapsed = t0.elapsed().as_secs_f64();
        black_box(&results);
        elapsed
    };

    let (mut store_off, mut store_on) = (f64::MAX, f64::MAX);
    let (mut sweep_off, mut sweep_on) = (f64::MAX, f64::MAX);
    let side = |on: bool, store: &mut f64, sweep: &mut f64| {
        if on {
            tracer_obs::enable();
        } else {
            tracer_obs::disable();
        }
        *store = store.min(time_store());
        *sweep = sweep.min(time_sweep());
    };
    for round in 0..rounds {
        if round % 2 == 0 {
            side(false, &mut store_off, &mut sweep_off);
            side(true, &mut store_on, &mut sweep_on);
        } else {
            side(true, &mut store_on, &mut sweep_on);
            side(false, &mut store_off, &mut sweep_off);
        }
    }
    if was {
        tracer_obs::enable();
    } else {
        tracer_obs::disable();
    }

    let store_ratio = store_on / store_off.max(1e-9);
    let sweep_ratio = sweep_on / sweep_off.max(1e-9);
    json_result(
        "perf_obs_overhead",
        &serde_json::json!({
            "rounds": rounds,
            "store_off_seconds": store_off,
            "store_on_seconds": store_on,
            "store_ratio": store_ratio,
            "sweep_off_seconds": sweep_off,
            "sweep_on_seconds": sweep_on,
            "sweep_ratio": sweep_ratio,
            "max_ratio": store_ratio.max(sweep_ratio),
        }),
    );
}

/// Peak resident-set size of this process in kilobytes (`VmHWM`); 0 where
/// `/proc` is unavailable. The high-water mark only ever grows, so measure
/// the cheap path before the expensive one.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse().ok()))
        })
        .unwrap_or(0)
}

/// Deterministic synthetic blkparse dump, sized in importable events.
fn synthetic_dump(events: usize) -> String {
    let mut out = String::with_capacity(events * 90);
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t_ns: u64 = 0;
    for i in 0..events {
        t_ns += if rng() % 3 == 0 { rng() % 50_000 } else { 150_000 + rng() % 700_000 };
        let rwbs = if rng() % 2 == 0 { "R" } else { "W" };
        let sector = rng() % 40_000_000;
        let len = 8 + (rng() % 16) * 8;
        out.push_str(&format!(
            "  8,0    {}       {}     {}.{:09}  99  D   {rwbs} {sector} + {len} [bench]\n",
            i % 8,
            i + 1,
            t_ns / 1_000_000_000,
            t_ns % 1_000_000_000,
        ));
    }
    out
}

/// blkparse ingest (parse, reorder window, bunching) over an in-memory dump.
/// The RESULT line records events/sec.
fn bench_trace_ingest(c: &mut Criterion) {
    let stream = |dump: &str| {
        let mut trace = Trace::new("bench");
        ingest::convert(dump.as_bytes(), &mut trace).unwrap();
        trace
    };
    let dump = synthetic_dump(50_000);
    let mut g = c.benchmark_group("trace_ingest");
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("serial_parse_convert_50k", |b| {
        b.iter(|| black_box(stream(black_box(&dump))))
    });
    g.finish();

    // One deterministic pass for the RESULT line, on a bigger dump.
    let dump = synthetic_dump(200_000);
    let t0 = Instant::now();
    black_box(stream(&dump));
    let serial = t0.elapsed().as_secs_f64();
    json_result(
        "perf_trace_ingest",
        &serde_json::json!({
            "events": 200_000,
            "serial_seconds": serial,
            "serial_events_per_sec": 200_000.0 / serial.max(1e-9),
        }),
    );
}

/// A load-controlled replay through the zero-copy `ReplayPlan` (40 %
/// proportion at 200 % intensity). The RESULT line records ns/bunch plus the
/// process peak RSS after the run.
fn bench_replay_plan(c: &mut Criterion) {
    let trace = big_trace(20_000);
    let load = LoadControl { proportion_pct: 40, intensity_pct: 200 };
    let cfg = ReplayConfig { load, ..Default::default() };
    let mut g = c.benchmark_group("replay_plan");
    g.throughput(Throughput::Elements(trace.bunch_count() as u64));
    g.bench_function("zero_copy_40pct_20k_bunches", |b| {
        b.iter_batched(
            || ArraySpec::hdd_raid5(6).build(),
            |mut sim| black_box(try_replay(&mut sim, &trace, &cfg).expect("in-memory trace")),
            BatchSize::SmallInput,
        )
    });
    g.finish();

    let bunches = trace.bunch_count() as f64;
    let mut sim = ArraySpec::hdd_raid5(6).build();
    let t0 = Instant::now();
    black_box(try_replay(&mut sim, &trace, &cfg).expect("in-memory trace"));
    let zc = t0.elapsed().as_secs_f64();
    json_result(
        "perf_replay_plan",
        &serde_json::json!({
            "bunches": trace.bunch_count(),
            "zero_copy_ns_per_bunch": zc * 1e9 / bunches,
            "peak_rss_kb": peak_rss_kb(),
        }),
    );
}

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("generator");
    g.bench_function("closed_loop_1s_peak_4k_random", |b| {
        b.iter_batched(
            || ArraySpec::hdd_raid5(4).build(),
            |mut sim| {
                let cfg = IometerConfig {
                    duration: SimDuration::from_secs(1),
                    ..IometerConfig::two_minutes(WorkloadMode::peak(4096, 100, 100), 3)
                };
                black_box(run_peak_workload(&mut sim, &cfg))
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(samples_from_env());
    targets = bench_serialization, bench_raid_planning, bench_engine,
        bench_request_store, bench_elevator_dispatch, bench_generator, bench_load_sweep,
        bench_obs_overhead, bench_trace_ingest, bench_replay_plan
}
criterion_main!(benches);
