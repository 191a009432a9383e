//! Baseline comparison for the perf-regression gate.
//!
//! Compares a freshly produced [`SmokeReport`] against the checked-in
//! baseline and reports every discrepancy, each of which fails the gate:
//!
//! * **checksum changes** — the operators' exact results moved, which is
//!   a correctness change, never noise;
//! * **modeled-cost changes**, in either direction — the modeled cost is
//!   a deterministic integer, so any change is a change to the engine or
//!   the cost model and is blessed into the baseline on purpose;
//! * missing/new experiments and schema drift, so baselines can't
//!   silently rot.

use crate::smoke::{SmokeExperiment, SmokeReport};
use serde::{Deserialize, Serialize};

/// One discrepancy between the current report and the baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Issue {
    /// Schema versions differ; the comparison is not meaningful.
    SchemaMismatch {
        /// Baseline schema version.
        baseline: u32,
        /// Current schema version.
        current: u32,
    },
    /// The workload (seed or record count) differs from the baseline's.
    WorkloadMismatch {
        /// Description of what differs.
        detail: String,
    },
    /// An experiment exists in the baseline but was not run.
    MissingExperiment {
        /// Experiment id.
        id: String,
    },
    /// An experiment was run but has no baseline entry yet.
    NewExperiment {
        /// Experiment id.
        id: String,
    },
    /// The modeled cost changed.
    CostChange {
        /// Experiment id.
        id: String,
        /// Baseline modeled cost, ns.
        baseline_ns: u64,
        /// Current modeled cost, ns.
        current_ns: u64,
    },
    /// The exact-result checksum changed.
    ChecksumMismatch {
        /// Experiment id.
        id: String,
        /// Baseline checksum.
        baseline: String,
        /// Current checksum.
        current: String,
    },
}

impl Issue {
    /// One-line human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Issue::SchemaMismatch { baseline, current } => format!(
                "schema mismatch: baseline v{baseline}, current v{current} — regenerate the \
                 baseline with --bless"
            ),
            Issue::WorkloadMismatch { detail } => format!("workload mismatch: {detail}"),
            Issue::MissingExperiment { id } => {
                format!("{id}: in baseline but not in this run")
            }
            Issue::NewExperiment { id } => {
                format!("{id}: no baseline entry — add one with --bless")
            }
            Issue::CostChange {
                id,
                baseline_ns,
                current_ns,
            } => format!("{id}: modeled cost changed ({baseline_ns} ns -> {current_ns} ns)"),
            Issue::ChecksumMismatch {
                id,
                baseline,
                current,
            } => format!(
                "{id}: result checksum changed ({baseline} -> {current}) — operator results \
                 are different, this is a correctness change"
            ),
        }
    }
}

/// Outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// Every discrepancy found, in report order.
    pub issues: Vec<Issue>,
}

impl Comparison {
    /// Whether the gate passes (no discrepancy).
    pub fn passed(&self) -> bool {
        self.issues.is_empty()
    }

    /// Multi-line report of every issue (empty string when clean).
    pub fn render(&self) -> String {
        self.issues
            .iter()
            .map(|i| format!("FAIL: {}", i.describe()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn compare_experiment(
    baseline: &SmokeExperiment,
    current: &SmokeExperiment,
    issues: &mut Vec<Issue>,
) {
    if baseline.checksum != current.checksum {
        issues.push(Issue::ChecksumMismatch {
            id: current.id.clone(),
            baseline: baseline.checksum.clone(),
            current: current.checksum.clone(),
        });
    }
    if baseline.modeled_ns != current.modeled_ns {
        issues.push(Issue::CostChange {
            id: current.id.clone(),
            baseline_ns: baseline.modeled_ns,
            current_ns: current.modeled_ns,
        });
    }
}

/// Compare `current` against `baseline`: the gate passes only when every
/// experiment's checksum and modeled cost are exactly the baseline's.
pub fn compare(baseline: &SmokeReport, current: &SmokeReport) -> Comparison {
    let mut issues = Vec::new();
    if baseline.schema_version != current.schema_version {
        issues.push(Issue::SchemaMismatch {
            baseline: baseline.schema_version,
            current: current.schema_version,
        });
        return Comparison { issues };
    }
    if baseline.seed != current.seed || baseline.records != current.records {
        issues.push(Issue::WorkloadMismatch {
            detail: format!(
                "baseline seed {}/records {}, current seed {}/records {}",
                baseline.seed, baseline.records, current.seed, current.records
            ),
        });
        return Comparison { issues };
    }
    for base_exp in &baseline.experiments {
        match current.experiments.iter().find(|e| e.id == base_exp.id) {
            Some(cur_exp) => compare_experiment(base_exp, cur_exp, &mut issues),
            None => issues.push(Issue::MissingExperiment {
                id: base_exp.id.clone(),
            }),
        }
    }
    for cur_exp in &current.experiments {
        if !baseline.experiments.iter().any(|e| e.id == cur_exp.id) {
            issues.push(Issue::NewExperiment {
                id: cur_exp.id.clone(),
            });
        }
    }
    Comparison { issues }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke::SCHEMA_VERSION;

    fn experiment(id: &str, modeled_ns: u64, checksum: &str) -> SmokeExperiment {
        SmokeExperiment {
            id: id.into(),
            input_records: 100,
            modeled_ns,
            checksum: checksum.into(),
            metrics: vec![],
        }
    }

    fn report(experiments: Vec<SmokeExperiment>) -> SmokeReport {
        SmokeReport {
            schema_version: SCHEMA_VERSION,
            seed: 7,
            records: 100,
            experiments,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![
            experiment("a", 1_000_000, "aa"),
            experiment("b", 5, "bb"),
        ]);
        let cmp = compare(&r, &r.clone());
        assert!(cmp.passed());
        assert!(cmp.issues.is_empty());
        assert_eq!(cmp.render(), "");
    }

    #[test]
    fn any_cost_change_fails_in_either_direction() {
        let base = report(vec![
            experiment("a", 1_000_000, "aa"),
            experiment("z", 0, "zz"),
        ]);
        for (a, z, line) in [
            (
                1_000_001,
                0,
                "a: modeled cost changed (1000000 ns -> 1000001 ns)",
            ),
            (
                999_999,
                0,
                "a: modeled cost changed (1000000 ns -> 999999 ns)",
            ),
            (1_000_000, 1, "z: modeled cost changed (0 ns -> 1 ns)"),
        ] {
            let cur = report(vec![experiment("a", a, "aa"), experiment("z", z, "zz")]);
            let cmp = compare(&base, &cur);
            assert!(!cmp.passed(), "{line}");
            assert_eq!(cmp.render(), format!("FAIL: {line}"));
        }
    }

    #[test]
    fn checksum_change_always_fails_even_when_faster() {
        let base = report(vec![experiment("a", 1_000_000, "aa")]);
        let cur = report(vec![experiment("a", 900_000, "XX")]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .issues
            .iter()
            .any(|i| matches!(i, Issue::ChecksumMismatch { .. })));
        assert!(cmp.render().contains("correctness"));
    }

    #[test]
    fn missing_and_new_experiments_flagged() {
        let base = report(vec![experiment("a", 10, "aa"), experiment("b", 10, "bb")]);
        let cur = report(vec![experiment("b", 10, "bb"), experiment("c", 10, "cc")]);
        let cmp = compare(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .issues
            .iter()
            .any(|i| matches!(i, Issue::MissingExperiment { id } if id == "a")));
        assert!(cmp
            .issues
            .iter()
            .any(|i| matches!(i, Issue::NewExperiment { id } if id == "c")));
    }

    #[test]
    fn schema_and_workload_mismatch_short_circuit() {
        let base = report(vec![experiment("a", 10, "aa")]);
        let mut cur = base.clone();
        cur.schema_version += 1;
        let cmp = compare(&base, &cur);
        assert_eq!(cmp.issues.len(), 1);
        assert!(matches!(cmp.issues[0], Issue::SchemaMismatch { .. }));

        let mut cur = base.clone();
        cur.seed = 8;
        let cmp = compare(&base, &cur);
        assert_eq!(cmp.issues.len(), 1);
        assert!(matches!(cmp.issues[0], Issue::WorkloadMismatch { .. }));
        assert!(!cmp.passed());
    }
}
