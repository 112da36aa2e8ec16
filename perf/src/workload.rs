//! The four workloads: what each one feeds the product, from a seed.
//!
//! The seed reaches every synthesiser; the product only ever sees the
//! generated scenario file or trace repository.

use std::path::{Path, PathBuf};
use tracer_sim::{ArraySpec, SimDuration};
use tracer_trace::{sweep, Trace, TraceRepository, WorkloadMode};
use tracer_workload::iometer::{run_peak_workload, IometerConfig};
use tracer_workload::CelloTraceBuilder;

/// The seed the checked-in goldens were generated with.
pub const GOLDEN_SEED: u64 = 11;

/// Sweep cells per CLI invocation: the paper's ten load levels.
pub const CELLS: u64 = sweep::LOAD_PCTS.len() as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HddRmw,
    NvmeRead,
    CelloRepo,
    ServeJobs,
}

pub const ALL: [Workload; 4] =
    [Workload::HddRmw, Workload::NvmeRead, Workload::CelloRepo, Workload::ServeJobs];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HddRmw => "hdd_rmw",
            Workload::NvmeRead => "nvme_read",
            Workload::CelloRepo => "cello_repo",
            Workload::ServeJobs => "serve_jobs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// File under `perf/golden/` holding this workload's expected output.
    pub fn golden_file(self) -> &'static str {
        match self {
            Workload::HddRmw => "hdd_rmw.report",
            Workload::NvmeRead => "nvme_read.report",
            Workload::CelloRepo => "cello_repo.db.json",
            Workload::ServeJobs => "serve_jobs.results",
        }
    }

    /// The testbed the product builds for this workload.
    pub fn array(self) -> ArraySpec {
        match self {
            Workload::HddRmw => ArraySpec::hdd_raid5(6),
            Workload::NvmeRead => ArraySpec::nvme_raid5(4),
            // `--array hdd6` on the command line.
            Workload::CelloRepo | Workload::ServeJobs => ArraySpec::hdd_raid5(6),
        }
    }

    /// The workload mode the trace is stored and replayed under.
    pub fn mode(self) -> WorkloadMode {
        match self {
            Workload::HddRmw | Workload::ServeJobs => WorkloadMode::peak(4096, 50, 0),
            Workload::NvmeRead => WorkloadMode::peak(4096, 100, 100),
            Workload::CelloRepo => WorkloadMode::peak(8192, 50, 58),
        }
    }

    /// The scenario file of the two scenario workloads. `shrink` divides the
    /// trace length (`--quick` passes 20).
    pub fn scenario_text(self, seed: u64, shrink: u64) -> Option<String> {
        let (device, disks, seconds) = match self {
            Workload::HddRmw => ("seagate-7200", 6, 900),
            Workload::NvmeRead => ("nvme-datacenter", 4, 12),
            Workload::CelloRepo | Workload::ServeJobs => return None,
        };
        let mode = self.mode();
        Some(format!(
            "[scenario]\nname = \"{name}\"\n\n[array]\ndevice = \"{device}\"\nlayout = \"raid5\"\n\
             disks = {disks}\n\n[workload]\nkind = \"peak\"\nrs = {rs}\nrn = {rn}\nrd = {rd}\n\
             seconds = {seconds}\nseed = {seed}\n\n[sweep]\nloads = \"all\"\nworkers = 1\n",
            name = self.name(),
            rs = mode.request_bytes,
            rn = mode.random_pct,
            rd = mode.read_pct,
            seconds = (seconds / shrink).max(1),
        ))
    }

    /// The trace of the two repository workloads, named for the `hdd6`
    /// testbed so `--array hdd6` finds it.
    pub fn repo_trace(self, seed: u64, shrink: u64) -> Option<Trace> {
        let array = self.array();
        let mut trace = match self {
            Workload::CelloRepo => {
                CelloTraceBuilder { duration_s: 2400.0 / shrink as f64, seed, ..Default::default() }
                    .build()
            }
            // Cells of ~2 ms: short enough that per-job fixed cost shows.
            Workload::ServeJobs => {
                let config = IometerConfig {
                    duration: SimDuration::from_secs(4),
                    ..IometerConfig::two_minutes(self.mode(), seed)
                };
                run_peak_workload(&mut array.build(), &config).trace
            }
            Workload::HddRmw | Workload::NvmeRead => return None,
        };
        trace.device = array.name;
        Some(trace)
    }
}

/// Where one workload's inputs and outputs live: `perf/out/<workload>/`.
#[derive(Debug, Clone)]
pub struct Dirs {
    /// `perf/out/<workload>`; removed on success.
    pub work: PathBuf,
}

impl Dirs {
    pub fn new(out: &Path, workload: Workload) -> Self {
        Self { work: out.join(workload.name()) }
    }

    pub fn scenario(&self) -> PathBuf {
        self.work.join("scenario.toml")
    }

    pub fn warmup_scenario(&self) -> PathBuf {
        self.work.join("warmup.toml")
    }

    pub fn repo(&self) -> PathBuf {
        self.work.join("repo")
    }

    pub fn db(&self) -> PathBuf {
        self.work.join("db.json")
    }

    pub fn joblog(&self) -> PathBuf {
        self.work.join("serve.joblog")
    }

    pub fn stderr(&self) -> PathBuf {
        self.work.join("stderr.log")
    }

    /// Delete the work directory; a run that passed leaves nothing behind.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }

    /// Start from an empty work directory.
    pub fn reset(&self) -> std::io::Result<()> {
        match std::fs::remove_dir_all(&self.work) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&self.work)
    }
}

/// Store `trace` as v3 under `mode` in a fresh repository at `dir`.
pub fn store_v3(dir: &Path, mode: &WorkloadMode, trace: &Trace) -> Result<PathBuf, String> {
    let repo = TraceRepository::open(dir).map_err(|e| e.to_string())?;
    repo.store_v3(mode, trace).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer_core::scenario::{ScenarioSpec, WorkloadKind};

    #[test]
    fn names_round_trip_and_goldens_are_distinct() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let mut files: Vec<_> = ALL.iter().map(|w| w.golden_file()).collect();
        files.dedup();
        assert_eq!(files.len(), ALL.len());
    }

    #[test]
    fn seed_reaches_the_scenario_file_and_the_product_parses_it() {
        let text = Workload::HddRmw.scenario_text(12, 1).unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.name, "hdd_rmw");
        // The preset the ladder's isolated passes use, under the scenario's name.
        let preset = ArraySpec { name: "hdd_rmw".to_string(), ..Workload::HddRmw.array() };
        assert_eq!(spec.array, preset);
        assert_eq!(spec.workload.kind, WorkloadKind::Peak);
        assert_eq!(spec.workload.modes(), vec![Workload::HddRmw.mode()]);
        assert_eq!((spec.workload.seconds, spec.workload.seed), (900, Some(12)));
        assert_eq!((spec.cells() as u64, spec.workers), (CELLS, 1));

        let quick = Workload::NvmeRead.scenario_text(11, 20).unwrap();
        let spec = ScenarioSpec::parse(&quick).unwrap();
        assert_eq!(spec.workload.seconds, 1, "12 s / 20 floors at one second");
        assert_eq!(spec.array.disks, 4);
        assert_ne!(text, Workload::HddRmw.scenario_text(13, 1).unwrap());
        assert_eq!(Workload::CelloRepo.scenario_text(11, 1), None);
    }

    #[test]
    fn repo_traces_are_seeded_and_named_for_the_testbed() {
        let a = Workload::ServeJobs.repo_trace(11, 1).unwrap();
        let b = Workload::ServeJobs.repo_trace(11, 1).unwrap();
        let c = Workload::ServeJobs.repo_trace(12, 1).unwrap();
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a, c);
        assert_eq!(a.device, "raid5-hdd6");
        assert!(a.io_count() > 500, "{} IOs", a.io_count());
        assert!(Workload::HddRmw.repo_trace(11, 1).is_none());
    }
}
