//! # gpudb-lint — static validation of GPU pass plans
//!
//! Every database operator in the reproduction (Compare §4.1, Semilinear
//! §4.2, EvalCNF §4.3, Range §4.4, KthLargest §4.5, Accumulator §4.6) is
//! a hand-assembled sequence of pipeline-state mutations, and a single
//! wrong stencil reference or forgotten color mask silently breaks the
//! paper's semantics — the simulator renders garbage at full modeled
//! cost. This crate checks a recorded [`PassPlan`] against the routines'
//! invariants *statically*, before (or without) executing a single
//! fragment.
//!
//! The IR comes from the device's event log: attach a
//! [`gpudb_sim::log::DeviceLog`] to a [`gpudb_sim::Gpu`], run an
//! operator inside an operator span, and feed the logged plans to a
//! [`Linter`]:
//!
//! ```
//! use gpudb_lint::Linter;
//! use gpudb_sim::{RecordMode, SpanKind};
//!
//! let mut gpu = gpudb_sim::Gpu::geforce_fx_5900(4, 4);
//! gpu.attach_log(RecordMode::RecordOnly);
//! gpu.span_begin(SpanKind::Operator, "demo");
//! gpu.begin_occlusion_query().unwrap();
//! gpu.draw_full_quad(0.5).unwrap();
//! // forgot end_occlusion_query!
//! let plans = gpu.take_log().unwrap().plans_since(0);
//! let report = Linter::new().lint_all(&plans);
//! assert!(!report.is_clean());
//! assert_eq!(report.plans[0].label, "demo");
//! assert_eq!(report.plans[0].diagnostics[0].rule, "L001");
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod rules;

use gpudb_sim::trace::PassPlan;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but possibly intentional; strict mode still fails.
    Warning,
    /// A violated routine invariant; the plan is wrong.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding produced by a rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Id of the rule that fired, e.g. `"L001"`.
    pub rule: String,
    /// Finding severity (after any config overrides).
    pub severity: Severity,
    /// Index into [`PassPlan::ops`] of the offending operation, when the
    /// finding anchors to one.
    pub pass_index: Option<usize>,
    /// Human-readable statement of the defect.
    pub message: String,
    /// How to repair the plan.
    pub fix_hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.rule)?;
        if let Some(i) = self.pass_index {
            write!(f, " op {i}")?;
        }
        write!(f, ": {} (fix: {})", self.message, self.fix_hint)
    }
}

/// A static check over one [`PassPlan`].
///
/// Rules inspect the recorded IR only — they never execute anything —
/// and append [`Diagnostic`]s for each violation found.
pub trait Rule {
    /// Stable rule id (`"L001"` … `"L010"`).
    fn id(&self) -> &'static str;
    /// One-line description, shown in reports and the rule catalog.
    fn description(&self) -> &'static str;
    /// Severity this rule emits unless overridden by [`LintConfig`].
    fn default_severity(&self) -> Severity {
        Severity::Error
    }
    /// Append a diagnostic for every violation in `plan`.
    fn check(&self, plan: &PassPlan, out: &mut Vec<Diagnostic>);
}

/// Per-rule allow/deny configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LintConfig {
    /// Rule ids whose findings are suppressed entirely.
    pub allow: Vec<String>,
    /// Rule ids whose findings are promoted to [`Severity::Error`].
    pub deny: Vec<String>,
}

impl LintConfig {
    /// Whether `rule` is suppressed.
    pub fn allows(&self, rule: &str) -> bool {
        self.allow.iter().any(|r| r == rule)
    }

    /// Whether `rule` is promoted to error severity.
    pub fn denies(&self, rule: &str) -> bool {
        self.deny.iter().any(|r| r == rule)
    }
}

/// Lint results for one plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// The plan's label.
    pub label: String,
    /// Findings, ordered by op index then rule id.
    pub diagnostics: Vec<Diagnostic>,
}

/// Machine-readable lint results for a batch of plans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// One entry per linted plan, in input order.
    pub plans: Vec<PlanReport>,
}

impl Report {
    /// All findings across all plans.
    pub fn diagnostics(&self) -> impl Iterator<Item = &Diagnostic> {
        self.plans.iter().flat_map(|p| p.diagnostics.iter())
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Whether no rule fired at any severity.
    pub fn is_clean(&self) -> bool {
        self.diagnostics().next().is_none()
    }
}

/// The rule engine: a set of [`Rule`]s plus a [`LintConfig`].
pub struct Linter {
    rules: Vec<Box<dyn Rule>>,
    config: LintConfig,
}

impl Linter {
    /// A linter with the full default rule set and default config.
    pub fn new() -> Linter {
        Linter::with_config(LintConfig::default())
    }

    /// A linter with the full default rule set and an explicit config.
    pub fn with_config(config: LintConfig) -> Linter {
        Linter {
            rules: rules::default_rules(),
            config,
        }
    }

    /// A linter over an explicit rule set.
    pub fn with_rules(rules: Vec<Box<dyn Rule>>, config: LintConfig) -> Linter {
        Linter { rules, config }
    }

    /// Lint one plan, returning findings ordered by op index then rule.
    pub fn lint(&self, plan: &PassPlan) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for rule in &self.rules {
            if self.config.allows(rule.id()) {
                continue;
            }
            let start = out.len();
            rule.check(plan, &mut out);
            if self.config.denies(rule.id()) {
                for diag in &mut out[start..] {
                    diag.severity = Severity::Error;
                }
            }
        }
        out.sort_by(|a, b| (a.pass_index, &a.rule).cmp(&(b.pass_index, &b.rule)));
        out
    }

    /// Lint a batch of plans into a machine-readable [`Report`].
    pub fn lint_all(&self, plans: &[PassPlan]) -> Report {
        Report {
            plans: plans
                .iter()
                .map(|plan| PlanReport {
                    label: plan.label.clone(),
                    diagnostics: self.lint(plan),
                })
                .collect(),
        }
    }
}

impl Default for Linter {
    fn default() -> Linter {
        Linter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::trace::{DeviceCaps, PassOp};

    fn caps() -> DeviceCaps {
        DeviceCaps {
            has_depth_bounds: true,
            has_depth_compare_mask: false,
        }
    }

    fn broken_plan() -> PassPlan {
        let mut plan = PassPlan::new("broken", caps());
        plan.ops.push(PassOp::BeginOcclusionQuery);
        plan
    }

    #[test]
    fn default_rules_have_unique_ids_and_descriptions() {
        let rules = rules::default_rules();
        assert_eq!(rules.len(), 10);
        let mut ids: Vec<_> = rules.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "duplicate rule ids");
        for rule in &rules {
            assert!(!rule.description().is_empty(), "{} undocumented", rule.id());
        }
    }

    #[test]
    fn allow_suppresses_a_rule() {
        let plan = broken_plan();
        assert!(!Linter::new().lint(&plan).is_empty());
        let linter = Linter::with_config(LintConfig {
            allow: vec!["L001".into()],
            deny: vec![],
        });
        assert!(linter.lint(&plan).is_empty());
    }

    #[test]
    fn deny_promotes_to_error() {
        // L010 (dead pass) is a warning by default.
        let mut plan = PassPlan::new("dead", caps());
        plan.ops.push(PassOp::Draw(rules::tests::masked_draw()));
        let diags = Linter::new().lint(&plan);
        assert_eq!(diags[0].severity, Severity::Warning);
        let linter = Linter::with_config(LintConfig {
            allow: vec![],
            deny: vec!["L010".into()],
        });
        let diags = linter.lint(&plan);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn report_counts_and_display() {
        let report = Linter::new().lint_all(&[broken_plan()]);
        assert!(!report.is_clean());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 0);
        let text = report.plans[0].diagnostics[0].to_string();
        assert!(text.contains("L001"), "{text}");
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
