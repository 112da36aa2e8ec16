//! `perf_ladder` — TRACER's benchmark.
//!
//! ```text
//! perf_ladder [--seed N] [--quick] [--bless] [--out FILE]        all four workloads, full protocol
//! perf_ladder --workload W --seed N --seconds S --trace 0|1      one run, one JSON line (BENCHMARK.json)
//! perf_ladder --compare A.json B.json                            judge B against A by the bounds
//! ```
//!
//! See `perf/README.md` for the workloads, the metrics and how they interact.

mod alloc;
mod child;
mod compare;
mod e2e;
mod ladder;
mod metrics;
mod spans;
mod stats;
mod workload;

use e2e::{Env, Inputs, Measured, Ready, Reference};
use ladder::Ladder;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime};
use workload::{Workload, ALL, GOLDEN_SEED};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is the fastest of them.
const SETUPS: usize = 5;
/// Fewest timed repeats of a CLI workload, however short `--seconds` is.
const MIN_REPEATS: usize = 3;
/// Timed repeats per workload in the full protocol.
const FULL_REPEATS: usize = 9;
/// `serve_jobs` reports the server's peak RSS after this many timed batches
/// (or the last one, if fewer ran): the server keeps ~1 kB per finished job,
/// so its RSS must be read at a fixed job count, not whenever the time is up.
const RSS_AFTER_BATCHES: usize = 5;

/// The crates `tracer` and `tracer-serve` are built from.
const PRODUCT_CRATES: [&str; 9] =
    ["core", "fabric", "obs", "power", "replay", "serve", "sim", "trace", "workload"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perf/ has a parent").to_path_buf()
}

fn locate() -> Env {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let perf = Path::new(env!("CARGO_MANIFEST_DIR"));
    Env { bin_dir: target.join("release"), out: perf.join("out"), golden: perf.join("golden") }
}

/// Build the shipped binaries from the checkout this bench was built from.
fn build_product() -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bins"])
        .args(["-p", "tracer-core", "-p", "tracer-serve"])
        .current_dir(repo_root())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    status.success().then_some(()).ok_or_else(|| format!("cargo build of the product: {status}"))
}

fn newest_mtime(dir: &Path, newest: &mut SystemTime) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            newest_mtime(&path, newest);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            if let Ok(modified) = entry.metadata().and_then(|m| m.modified()) {
                *newest = (*newest).max(modified);
            }
        }
    }
}

/// Refuse to measure binaries that are missing or older than their sources.
fn check_fresh(env: &Env) -> Result<(), String> {
    let root = repo_root();
    let mut newest = SystemTime::UNIX_EPOCH;
    for krate in PRODUCT_CRATES {
        newest_mtime(&root.join("crates").join(krate), &mut newest);
    }
    newest_mtime(&root.join("vendor"), &mut newest);
    for bin in ["tracer", "tracer-serve"] {
        let path = env.bin_dir.join(bin);
        let built = std::fs::metadata(&path).and_then(|m| m.modified()).map_err(|e| {
            format!("{}: {e}; build it first: cargo build --release --offline", path.display())
        })?;
        if built < newest {
            return Err(format!(
                "{} is older than the sources; rebuild: cargo build --release --offline",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Shut a set-up's server down, if it has one; the set-up is being replaced.
fn retire(mut ready: Ready) {
    if ready.server.is_some() {
        let _ = e2e::tear_down(&mut ready);
    }
}

/// Set `w` up `times` times, recording each set-up's duration, and keep the
/// last one.
fn set_up_repeatedly(
    env: &Env,
    w: Workload,
    inputs: Inputs,
    times: usize,
    measured: &mut Measured,
) -> Result<Ready, String> {
    let mut kept: Option<Ready> = None;
    for _ in 0..times {
        if let Some(previous) = kept.take() {
            retire(previous);
        }
        let ready = e2e::set_up(env, w, inputs)?;
        measured.setup_s.push(ready.setup_s);
        kept = Some(ready);
    }
    kept.ok_or_else(|| "no set-up requested".to_string())
}

/// One timed repeat, checked against the reference output.
fn timed_repeat(
    env: &Env,
    ready: &mut Ready,
    inputs: Inputs,
    reference: &mut Reference,
    measured: &mut Measured,
) -> f64 {
    let mut repeat = e2e::run_repeat(env, ready, inputs, false);
    reference.check(&mut repeat);
    let wall_s = repeat.wall_s;
    measured.add(repeat);
    if let Some(server) = &ready.server {
        measured.server_peak_kb.push(server.peak_rss_kb());
    }
    wall_s
}

/// After the last repeat: stop the server and take its peak RSS, derive the
/// simulated accuracy from the output, and clean up on success.
fn finish(w: Workload, ready: &mut Ready, reference: &Reference, measured: &mut Measured) {
    if ready.server.is_some() {
        match e2e::tear_down(ready) {
            Ok(end) => {
                let peaks = &measured.server_peak_kb;
                let at = peaks.len().min(RSS_AFTER_BATCHES).checked_sub(1);
                if let Some(kb) = at.and_then(|i| peaks.get(i)) {
                    measured.rss_mb.push(*kb as f64 / 1024.0);
                }
                if !end.exit.success() {
                    measured.fail_all(format!("tracer-serve ended with {:?}", end.exit));
                }
                if let Some(why) = end.complaint {
                    measured.fail_all(why);
                }
            }
            Err(why) => measured.fail_all(why),
        }
    }
    measured.load_ctrl_err = reference
        .expected()
        .and_then(|out| e2e::throughput_rows(w, out).ok())
        .and_then(|rows| e2e::load_ctrl_err_pct(&rows));
    if measured.load_ctrl_err.is_none() && measured.failed < measured.attempted {
        measured.fail_all("output has no ten-level throughput table".to_string());
    }
    if measured.failed == 0 {
        ready.dirs.remove();
    }
}

/// The end-to-end values of one workload, as `(name, per-repeat values,
/// reported value)`.
///
/// Host timings report the fastest repeat. The sandbox's noise is one-sided
/// and comes in waves minutes long (the same 1 000 jobs take 1.0 s in a calm
/// minute and 2.0 s in a busy one), so a median over one run's repeats moves
/// with the wave while the fastest repeat stays put; median and quartiles
/// are still printed. Peak RSS does not depend on the clock and reports its
/// median.
fn end_to_end_values(m: &Measured) -> Vec<(&'static str, Vec<f64>, f64)> {
    let fastest = |v: &Vec<f64>| (v.clone(), stats::summarize(v).min);
    let (wall, wall_v) = fastest(&m.wall_s);
    let (setup, setup_v) = fastest(&m.setup_s);
    let (p50, p50_v) = fastest(&m.job_p50_ms);
    let (p99, p99_v) = fastest(&m.job_p99_ms);
    vec![
        ("wall_s", wall, wall_v),
        ("peak_rss_mb", m.rss_mb.clone(), stats::median(&m.rss_mb)),
        ("setup_s", setup, setup_v),
        ("job_p50_ms", p50, p50_v),
        ("job_p99_ms", p99, p99_v),
    ]
}

fn metric_entry(name: &str, value: f64) -> (String, Value) {
    let unit = metrics::unit_of(name).to_string();
    (name.to_string(), serde_json::json!({ "value": value, "unit": unit }))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Map(metrics)
    });
    serde_json::to_string(&line).expect("a Value tree always serialises")
}

fn report_errors(what: &str, errors: &[String]) {
    for e in errors.iter().take(8) {
        eprintln!("perf_ladder: {what}: {e}");
    }
}

/// One driver run: `--workload W --seed N --seconds S --trace 0|1`.
fn run_contract(w: Workload, inputs: Inputs, seconds: u64, traced: bool) -> Result<String, String> {
    build_product()?;
    let env = locate();
    check_fresh(&env)?;
    if traced {
        let ladder = traced_pass(&env, w, inputs)?;
        report_errors(w.name(), &ladder.errors);
        let metrics = ladder.metrics.iter().map(|(n, v)| metric_entry(n, *v)).collect();
        return Ok(result_line(ladder.failed == 0, ladder.attempted, ladder.failed, metrics));
    }

    let mut measured = Measured::default();
    let mut ready = set_up_repeatedly(&env, w, inputs, SETUPS, &mut measured)?;
    let mut reference = Reference::load(&env, w, inputs.has_golden())?;
    let least = if w == Workload::ServeJobs { RSS_AFTER_BATCHES } else { MIN_REPEATS };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    for done in 1.. {
        let wall_s = timed_repeat(&env, &mut ready, inputs, &mut reference, &mut measured);
        let next_ends = Instant::now() + Duration::from_secs_f64(wall_s);
        if done >= least && next_ends > deadline {
            break;
        }
    }
    finish(w, &mut ready, &reference, &mut measured);
    report_errors(w.name(), &measured.errors);
    let metrics =
        end_to_end_values(&measured).iter().map(|(n, _, v)| metric_entry(n, *v)).collect();
    Ok(result_line(measured.failed == 0, measured.attempted, measured.failed, metrics))
}

/// The traced pass of one workload: spans written to
/// `perf/out/<workload>.spans.jsonl`, scratch removed if every check held.
fn traced_pass(env: &Env, w: Workload, inputs: Inputs) -> Result<Ladder, String> {
    let ladder = ladder::run(env, w, inputs)?;
    let path = env.out.join(format!("{}.spans.jsonl", w.name()));
    if let Err(e) =
        std::fs::create_dir_all(&env.out).and_then(|()| std::fs::write(&path, &ladder.spans_jsonl))
    {
        eprintln!("perf_ladder: {}: {e}", path.display());
    }
    if ladder.failed == 0 {
        workload::Dirs::new(&env.out, w).remove();
    }
    Ok(ladder)
}

/// The full protocol: all four workloads, repeats interleaved round-robin so
/// a slow minute of the box lands on all of them, then the traced pass.
fn run_full(inputs: Inputs, bless: bool, out: Option<PathBuf>) -> Result<bool, String> {
    let env = locate();
    check_fresh(&env)?;
    let quick = inputs.shrink > 1;
    let (setups, repeats) = if quick { (1, 1) } else { (SETUPS, FULL_REPEATS) };
    if bless && !inputs.has_golden() {
        return Err(format!("--bless needs the default seed ({GOLDEN_SEED}) at full size"));
    }

    let mut sessions = Vec::new();
    for w in ALL {
        let mut measured = Measured::default();
        let ready = set_up_repeatedly(&env, w, inputs, setups, &mut measured)?;
        // Blessing takes the first repeat as the reference, like a fresh seed.
        let reference = Reference::load(&env, w, inputs.has_golden() && !bless)?;
        sessions.push((w, ready, reference, measured));
    }
    for round in 0..repeats {
        for (w, ready, reference, measured) in &mut sessions {
            let wall_s = timed_repeat(&env, ready, inputs, reference, measured);
            eprintln!("perf_ladder: round {}/{repeats} {:<10} {wall_s:.3} s", round + 1, w.name());
        }
    }
    let mut results = Vec::new();
    for (w, mut ready, reference, mut measured) in sessions {
        finish(w, &mut ready, &reference, &mut measured);
        if bless && measured.failed == 0 {
            let path = env.golden.join(w.golden_file());
            let bytes = reference.expected().ok_or("nothing to bless")?;
            std::fs::create_dir_all(&env.golden)
                .and_then(|()| std::fs::write(&path, bytes))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("perf_ladder: blessed {}", path.display());
        }
        results.push((w, measured));
    }

    let mut ladders = Vec::new();
    for (w, _) in &results {
        eprintln!("perf_ladder: traced pass {}", w.name());
        ladders.push(traced_pass(&env, *w, inputs)?);
    }

    print_tables(&results, &ladders);
    let path = out.unwrap_or_else(|| env.out.join("result.json"));
    let json = result_file(inputs, &results, &ladders);
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());

    let mut clean = true;
    for ((w, measured), ladder) in results.iter().zip(&ladders) {
        report_errors(w.name(), &measured.errors);
        report_errors(w.name(), &ladder.errors);
        clean &= measured.failed == 0 && ladder.failed == 0;
    }
    Ok(clean)
}

/// The exact (simulated or counted) end-to-end numbers of one workload.
fn exact_values(measured: &Measured, ladder: &Ladder) -> Vec<(&'static str, f64)> {
    // A run without a throughput table has already failed every operation.
    let (iops, mbps) = measured.load_ctrl_err.unwrap_or_default();
    let traced_fail = 100.0 * ladder.failed as f64 / ladder.attempted.max(1) as f64;
    vec![
        ("fail_pct", measured.fail_pct().max(traced_fail)),
        ("load_ctrl_err_pct", iops),
        ("load_ctrl_err_mbps_pct", mbps),
    ]
}

fn print_tables(results: &[(Workload, Measured)], ladders: &[Ladder]) {
    println!("== end to end: tracing off; host time except (sim) ==");
    println!(
        "{:<11} {:<33} {:>11} {:>11} {:>11} {:>11} {:>11} {:>3}",
        "workload", "metric (unit)", "value", "median", "q1", "q3", "min", "n"
    );
    for ((w, measured), ladder) in results.iter().zip(ladders) {
        for (name, values, reported) in end_to_end_values(measured) {
            let s = stats::summarize(&values);
            println!(
                "{:<11} {:<33} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>3}",
                w.name(),
                format!("{name} ({})", metrics::unit_of(name)),
                reported,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.n
            );
        }
        for (name, value) in exact_values(measured, ladder) {
            let note = match name {
                "fail_pct" => format!("{} of {} operations", measured.failed, measured.attempted),
                "load_ctrl_err_pct" => "paper: < 0.5 fixed-size, ~7 web".to_string(),
                _ => "paper Table V: up to ~32 on cello".to_string(),
            };
            println!(
                "{:<11} {:<33} {:>11.6} {:>11} {:>11} {:>11} {:>11} {:>3}  {note}",
                w.name(),
                format!("{name} (%{})", if name == "fail_pct" { "" } else { ", sim" }),
                value,
                "-",
                "-",
                "-",
                "-",
                "-"
            );
        }
    }
    println!("\n== per layer: one traced in-process pass per workload ==");
    print!("{:<34} {:<10}", "metric", "unit");
    for (w, _) in results {
        print!(" {:>13}", w.name());
    }
    println!();
    for m in metrics::PER_LAYER {
        print!("{:<34} {:<10}", m.name, m.unit);
        for ladder in ladders {
            print!(" {:>13.4}", ladder.metrics.get(m.name).copied().unwrap_or(0.0));
        }
        println!();
    }
}

/// The machine the numbers came from, for the result file and the README.
fn machine() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    serde_json::json!({ "cpu": cpu, "cores": cores })
}

fn result_file(inputs: Inputs, results: &[(Workload, Measured)], ladders: &[Ladder]) -> String {
    let floats = |v: &[f64]| Value::Seq(v.iter().map(|x| Value::Float(*x)).collect());
    let mut workloads = Vec::new();
    for ((w, measured), ladder) in results.iter().zip(ladders) {
        let mut e2e = Vec::new();
        for (name, values, reported) in end_to_end_values(measured) {
            let s = stats::summarize(&values);
            e2e.push((
                name.to_string(),
                serde_json::json!({
                    "unit": metrics::unit_of(name).to_string(),
                    "value": reported,
                    "median": s.median,
                    "q1": s.q1,
                    "q3": s.q3,
                    "min": s.min,
                    "n": s.n as u64,
                    "values": floats(&values)
                }),
            ));
        }
        let exact = exact_values(measured, ladder)
            .into_iter()
            .map(|(n, v)| (n.to_string(), Value::Float(v)))
            .collect();
        let per_layer =
            ladder.metrics.iter().map(|(n, v)| (n.to_string(), Value::Float(*v))).collect();
        workloads.push((
            w.name().to_string(),
            serde_json::json!({
                "end_to_end": Value::Map(e2e),
                "exact": Value::Map(exact),
                "per_layer": Value::Map(per_layer)
            }),
        ));
    }
    let file = serde_json::json!({
        "seed": inputs.seed,
        "quick": inputs.shrink > 1,
        "machine": machine(),
        "workloads": Value::Map(workloads)
    });
    serde_json::to_string_pretty(&file).expect("a Value tree always serialises")
}

const USAGE: &str = "\
perf_ladder — TRACER's benchmark (see perf/README.md)

  perf_ladder [--seed N] [--quick] [--bless] [--out FILE]
  perf_ladder --workload hdd_rmw|nvme_read|cello_repo|serve_jobs
              [--seed N] [--seconds S] [--trace 0|1]
  perf_ladder --compare A.json B.json
";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    quick: bool,
    bless: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: 15,
        traced: false,
        quick: false,
        bless: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: {v:?} is not a number"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            // Scenario files carry the seed as a signed integer.
            "--seed" => parsed.seed = number(value()?)? & (u64::MAX >> 1),
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => parsed.traced = number(value()?)? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                parsed.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            "--quick" => parsed.quick = true,
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprint!("perf_ladder: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs { seed: args.seed, shrink: if args.quick { 20 } else { 1 } };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b, &repo_root().join("BENCHMARK.json")).map(|not_ok| not_ok == 0)
    } else if let Some(w) = args.workload {
        // The result line is the run's answer, right or wrong; only a run
        // that could not produce one exits non-zero.
        run_contract(w, inputs, args.seconds, args.traced).map(|line| {
            println!("{line}");
            true
        })
    } else {
        run_full(inputs, args.bless, args.out)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_ladder: {e}");
            ExitCode::FAILURE
        }
    }
}
