//! Every RAID plan, pinned: a deterministic grid of requests is planned on
//! every redundancy level, member count and failed member, and each
//! `(level, members, failed)` group is reduced to two FNV-1a digests — one
//! over the disk operations (`pre_reads`, `ops`) and one over
//! `parity_xor_bytes` — that must match `golden/plans.txt` line for line.
//!
//! The grid walks starts and lengths around strip and stripe boundaries on a
//! 16-sector strip, over every parity rotation, for reads and writes.
//!
//! Regenerate (only for a deliberate planner change, and name the rule):
//! `cargo test -p tracer-sim --test plan_golden -- --ignored bless`

use std::fmt::Write as _;
use std::path::PathBuf;
use tracer_sim::device::OpKind;
use tracer_sim::{DiskExtent, Geometry, IoPlan, Redundancy};

const STRIP: u64 = 16;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plans.txt")
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn extents(&mut self, extents: &[DiskExtent]) {
        self.u64(extents.len() as u64);
        for e in extents {
            self.u64(e.disk as u64);
            self.u64(e.sector);
            self.u64(e.sectors);
            self.u64(matches!(e.kind, OpKind::Write) as u64);
        }
    }

    fn plan(&mut self, plan: &IoPlan) {
        self.extents(&plan.pre_reads);
        self.extents(&plan.ops);
    }
}

/// Member counts each level is planned over.
fn member_counts(level: Redundancy) -> Vec<usize> {
    match level {
        Redundancy::Raid0 => (1..=9).collect(),
        Redundancy::Raid1 => (2..=9).collect(),
        Redundancy::Raid5 => (3..=9).collect(),
        Redundancy::Raid6 => (4..=9).collect(),
        Redundancy::Raid10 => (2..=8).step_by(2).collect(),
    }
}

/// Request starts: offsets around strip and stripe edges, in every stripe
/// of one full parity rotation (plus one to wrap it).
fn starts(g: &Geometry) -> Vec<u64> {
    let stripe = STRIP * g.data_disks() as u64;
    let mut offsets =
        vec![0, 1, STRIP - 1, STRIP, STRIP + 1, stripe - STRIP, stripe - STRIP + 5, stripe - 1];
    offsets.retain(|&o| o < stripe);
    offsets.sort_unstable();
    offsets.dedup();
    (0..=g.disks as u64).flat_map(|s| offsets.iter().map(move |&o| s * stripe + o)).collect()
}

/// Request lengths around strip and stripe sizes.
fn lengths(g: &Geometry) -> Vec<u64> {
    let stripe = STRIP * g.data_disks() as u64;
    let mut lens = vec![
        1,
        STRIP - 1,
        STRIP,
        STRIP + 1,
        2 * STRIP,
        stripe - 1,
        stripe,
        stripe + 1,
        2 * stripe,
        2 * stripe + STRIP + 3,
    ];
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// One line per `(level, members, failed)` group.
fn render() -> String {
    let levels = [
        (Redundancy::Raid0, "raid0"),
        (Redundancy::Raid1, "raid1"),
        (Redundancy::Raid5, "raid5"),
        (Redundancy::Raid6, "raid6"),
        (Redundancy::Raid10, "raid10"),
    ];
    let mut out = String::new();
    for (level, name) in levels {
        for disks in member_counts(level) {
            let g = Geometry { disks, strip_sectors: STRIP, redundancy: level };
            let failures: Vec<Option<usize>> = if level == Redundancy::Raid0 {
                vec![None]
            } else {
                std::iter::once(None).chain((0..disks).map(Some)).collect()
            };
            for failed in failures {
                let (mut ops, mut xor, mut cases) = (Fnv::new(), Fnv::new(), 0u64);
                for start in starts(&g) {
                    for len in lengths(&g) {
                        for kind in [OpKind::Read, OpKind::Write] {
                            let plan = g.plan_with_failure(start, len, kind, failed);
                            ops.plan(&plan);
                            xor.u64(plan.parity_xor_bytes);
                            cases += 1;
                        }
                    }
                }
                let failed = failed.map_or_else(|| "-".to_string(), |f| f.to_string());
                writeln!(
                    out,
                    "{name} disks={disks} failed={failed} cases={cases} ops={:016x} xor={:016x}",
                    ops.0, xor.0
                )
                .expect("write to String");
            }
        }
    }
    out
}

#[test]
fn plans_match_golden() {
    let want = std::fs::read_to_string(golden_path()).expect("golden/plans.txt");
    let got = render();
    let mismatches: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.lines().count() == want.lines().count(),
        "{} plan group(s) differ from golden/plans.txt ({} lines vs {}):\n{}",
        mismatches.len(),
        got.lines().count(),
        want.lines().count(),
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "rewrites golden/plans.txt from the planner under test"]
fn bless() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    std::fs::write(path, render()).expect("write golden/plans.txt");
}
