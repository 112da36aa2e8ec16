//! `--compare A.json B.json`: did B get worse than A, by the benchmark's own
//! bounds? Used for "two sets of runs of one commit agree" and by every
//! later change that quotes the ladder before and after.

use crate::metrics::END_TO_END;
use crate::stats::{self, Summary};
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric on one workload. `lower` says which direction is better;
/// `bound` is the share of A's median by which B may be worse.
pub fn judge(a: &[f64], b: &[f64], lower: bool, bound: f64) -> Verdict {
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    let sign = if lower { 1.0 } else { -1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    // Every run of B better than every run of A settles it whatever the spread.
    let b_always_better = if lower { sb.max < sa.min } else { sb.min > sa.max };
    if !b_always_better && sa.spread().max(sb.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values(result: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = result.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    match entry.get("values")? {
        Value::Seq(items) => items.iter().map(Value::as_f64).collect(),
        _ => None,
    }
}

/// The bound `BENCHMARK.json` fixes for an end-to-end metric.
pub fn bound_of(benchmark: &Value, metric: &str) -> Option<f64> {
    let Value::Seq(entries) = benchmark.get("end_to_end")? else { return None };
    let as_str = |v: &Value| match v {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    };
    entries
        .iter()
        .find(|e| e.get("name").and_then(as_str).as_deref() == Some(metric))?
        .get("bound")?
        .as_f64()
}

fn exact_rows(result: &Value, workload: &str) -> Vec<(String, f64)> {
    match result.get("workloads").and_then(|w| w.get(workload)).and_then(|w| w.get("exact")) {
        Some(Value::Map(entries)) => {
            entries.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
        }
        _ => Vec::new(),
    }
}

/// Print one line per workload × end-to-end metric; returns how many were
/// not `ok` (exact metrics that differ count as regressed).
pub fn run(a_path: &Path, b_path: &Path, benchmark_path: &Path) -> Result<usize, String> {
    let (a, b, benchmark) = (load(a_path)?, load(b_path)?, load(benchmark_path)?);
    let mut not_ok = 0;
    println!(
        "{:<12} {:<24} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "A iqr%", "B iqr%", "bound%"
    );
    for w in crate::workload::ALL {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name(), m.name), values(&b, w.name(), m.name))
            else {
                return Err(format!("{}/{} missing from a result file", w.name(), m.name));
            };
            let bound = bound_of(&benchmark, m.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", m.name))?;
            let verdict = judge(&va, &vb, m.lower, bound);
            not_ok += usize::from(verdict != Verdict::Ok);
            let (sa, sb): (Summary, Summary) = (stats::summarize(&va), stats::summarize(&vb));
            println!(
                "{:<12} {:<24} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>7.1}  {}",
                w.name(),
                format!("{} ({})", m.name, m.unit),
                sa.median,
                sb.median,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        // Simulated and counted numbers repeat exactly or something changed.
        let (ea, eb) = (exact_rows(&a, w.name()), exact_rows(&b, w.name()));
        for (name, va) in &ea {
            let vb = eb.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let same = vb == Some(*va);
            not_ok += usize::from(!same);
            println!(
                "{:<12} {:<24} {:>12} {:>12} {:>8} {:>8} {:>7}  {}",
                w.name(),
                name,
                va,
                vb.map_or("-".to_string(), |v| v.to_string()),
                "-",
                "-",
                "exact",
                if same { "ok" } else { "regressed" }
            );
        }
    }
    Ok(not_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(judge(&steady, &[10.4, 10.5, 10.3, 10.4, 10.45], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &[11.9, 12.0, 12.1, 12.0, 12.0], true, 0.10), Verdict::Regressed);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&steady, &[8.0, 8.1, 7.9, 8.0, 8.0], false, 0.10), Verdict::Regressed);
        assert_eq!(judge(&steady, &[12.0, 12.1, 11.9, 12.0, 12.0], false, 0.10), Verdict::Ok);
        // Spread wider than the bound: the medians decide nothing…
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(judge(&steady, &noisy, true, 0.10), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[5.0, 5.1, 4.9, 5.0, 5.0], true, 0.10), Verdict::Ok);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let benchmark: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bound_of(&benchmark, "wall_s"), Some(0.1));
        assert_eq!(bound_of(&benchmark, "nope"), None);
    }
}
