//! The benchmark's metrics by name and unit. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Whether a lower value is better.
    pub lower: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, lower: true }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, lower: false }
}

/// What a user of the system waits for or pays; measured with tracing off.
pub const END_TO_END: [Metric; 5] = [
    lower("wall_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
    lower("job_p50_ms", "ms"),
    lower("job_p99_ms", "ms"),
];

/// One row per layer boundary, from the traced pass. `crate.module.metric`.
pub const PER_LAYER: [Metric; 54] = [
    // The child process as a whole.
    lower("cli.cpu_s", "s"),
    higher("cli.kios_per_s", "kIO/s"),
    lower("cli.residual_s", "s"),
    // Simulated, exact for a seed: the paper's headline claim.
    lower("load_ctrl_err_pct", "%"),
    lower("load_ctrl_err_mbps_pct", "%"),
    lower("core.scenario.parse_us", "us"),
    lower("core.scenario.run_s", "s"),
    lower("core.orchestrate.residual_ms", "ms"),
    lower("core.host.commit_us_per_cell", "us"),
    lower("core.db.save_ms", "ms"),
    lower("workload.synth_ns_per_io", "ns/io"),
    lower("workload.synth_share_pct", "%"),
    lower("trace.scan_ns_per_io", "ns/io"),
    lower("trace.v3.encode_ns_per_io", "ns/io"),
    lower("trace.v3.open_us", "us"),
    lower("trace.v3.bytes_per_io", "B/io"),
    lower("trace.materializations", "count"),
    lower("replay.plan.ns_per_io", "ns/io"),
    lower("replay.engine.ns_per_io", "ns/io"),
    lower("replay.engine.ns_per_io.load10", "ns/io"),
    lower("replay.monitor.ns_per_io", "ns/io"),
    lower("replay.skipped_ios", "count"),
    lower("sim.spec.build_us", "us"),
    lower("sim.raid.plan_ns_per_io", "ns/io"),
    lower("sim.raid.disk_ops_per_io", "ops/io"),
    lower("sim.raid.write_amp", "ratio"),
    lower("sim.device.service_ns_per_op", "ns/op"),
    higher("sim.device.util_pct", "%"),
    lower("sim.equeue.hold_ns_per_op", "ns/op"),
    lower("sim.array.events_per_io", "events/io"),
    lower("sim.array.des_ns_per_io", "ns/io"),
    lower("sim.array.des_ns_per_event", "ns/event"),
    lower("sim.powerlog.points_per_io", "points/io"),
    lower("power.analyzer.ns_per_io", "ns/io"),
    lower("power.analyzer.ns_per_point", "ns/point"),
    lower("alloc.replay.count_per_io", "allocs/io"),
    lower("alloc.replay.bytes_per_io", "B/io"),
    lower("alloc.cell.count_per_io", "allocs/io"),
    lower("alloc.cell.retained_bytes_per_io", "B/io"),
    lower("alloc.run.peak_live_mb", "MB"),
    higher("serve.jobs_per_s", "1/s"),
    lower("serve.submit_rtt_us_p50", "us"),
    lower("serve.poll_rtt_us_p50", "us"),
    lower("serve.polls_per_job", "polls/job"),
    lower("serve.queue_ms_mean", "ms"),
    lower("serve.run_ms_mean", "ms"),
    lower("serve.inproc_job_us", "us"),
    lower("serve.overhead_us_per_job", "us"),
    lower("serve.busy_rejects", "count"),
    lower("serve.rss_kb_per_job", "kB/job"),
    lower("fabric.joblog.bytes_per_job", "B/job"),
    lower("fabric.joblog.append_us", "us"),
    lower("fabric.joblog.recover_ms", "ms"),
    lower("spans.overhead_pct", "%"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name).map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(benchmark: &Value, key: &str) -> Vec<(String, String, bool)> {
        let Some(Value::Seq(entries)) = benchmark.get(key) else { panic!("no {key} list") };
        let text = |e: &Value, k: &str| match e.get(k) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {k} is {other:?}"),
        };
        entries
            .iter()
            .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better") == "lower"))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let benchmark: Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let ours = |list: &[Metric]| -> Vec<(String, String, bool)> {
            list.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.lower)).collect()
        };
        assert_eq!(declared(&benchmark, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&benchmark, "per_layer"), ours(&PER_LAYER));
        let Some(Value::Seq(workloads)) = benchmark.get("workloads") else { panic!("workloads") };
        let names: Vec<_> = workloads.iter().map(|w| w.get("name").cloned()).collect();
        let expected: Vec<_> =
            crate::workload::ALL.iter().map(|w| Some(Value::Str(w.name().to_string()))).collect();
        assert_eq!(names, expected);
        for m in END_TO_END {
            let bound = crate::compare::bound_of(&benchmark, m.name).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.name, "_.-", 64), "name {:?}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "unit {:?}", m.unit);
            assert!(seen.insert(m.name), "{} is declared twice", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.lower));
    }
}
