//! The end-to-end design flow (paper Fig. 3) and its evaluation report.
//!
//! [`DesignFlow::run`] performs all four phases for both crossbar
//! directions and evaluates the designed system against the full-crossbar,
//! shared-bus and average-flow baselines on the same traffic — producing
//! everything needed to regenerate the paper's Tables 1–2 and Fig. 4.
//!
//! Since the staged-pipeline redesign this type is a thin compatibility
//! wrapper over [`crate::pipeline`]: `run` is exactly
//! `collect → analyze → synthesize(Exact) → report()`. Parameter sweeps
//! and batch evaluations should use the staged API (or [`crate::Batch`])
//! directly so phase 1 is paid once per application.

use crate::params::DesignParams;
use crate::phase1::CollectedTraffic;
use crate::phase3::SynthesisOutcome;
use crate::phase4::{validate, Validation};
use crate::pipeline::Pipeline;
use crate::synthesizer::Exact;
use stbus_milp::NodeLimitExceeded;
use stbus_sim::CrossbarConfig;
use stbus_traffic::workloads::Application;
use std::error::Error;
use std::fmt;

/// Errors surfaced by the design flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The exact solver ran out of node budget.
    SolverLimit(NodeLimitExceeded),
    /// Phase 4 was asked to validate an analysis whose traffic a
    /// [`stbus_traffic::WorkloadDelta`] has edited. Validation replays the
    /// workload's offered trace, and the edited workload has none; collect
    /// it again to validate it.
    DeltaPatched,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::SolverLimit(e) => write!(f, "synthesis failed: {e}"),
            FlowError::DeltaPatched => write!(
                f,
                "validation failed: a delta edited this workload's traffic, so it has no \
                 offered trace to replay; collect the edited workload again"
            ),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::SolverLimit(e) => Some(e),
            FlowError::DeltaPatched => None,
        }
    }
}

impl From<NodeLimitExceeded> for FlowError {
    fn from(e: NodeLimitExceeded) -> Self {
        FlowError::SolverLimit(e)
    }
}

/// One evaluated interconnect configuration (both directions).
#[derive(Debug, Clone)]
pub struct ConfigEval {
    /// Human-readable label ("designed", "full", "shared", "avg-based").
    pub label: String,
    /// Request-path configuration.
    pub it_config: CrossbarConfig,
    /// Response-path configuration.
    pub ti_config: CrossbarConfig,
    /// End-to-end validation simulation.
    pub validation: Validation,
    /// Average packet latency over requests + responses.
    pub avg_latency: f64,
    /// Maximum packet latency over requests + responses.
    pub max_latency: u64,
}

impl ConfigEval {
    pub(crate) fn new(
        label: &str,
        it_config: CrossbarConfig,
        ti_config: CrossbarConfig,
        app: &Application,
        params: &DesignParams,
    ) -> Self {
        let validation = validate(&app.trace, &it_config, &ti_config, params);
        Self::from_validation(label, it_config, ti_config, validation)
    }

    /// Wraps a validation run that already exists — phase 1's
    /// full-crossbar simulation serves the `full` baseline this way.
    pub(crate) fn from_validation(
        label: &str,
        it_config: CrossbarConfig,
        ti_config: CrossbarConfig,
        validation: Validation,
    ) -> Self {
        let avg_latency = validation.avg_latency();
        let max_latency = validation.max_latency();
        Self {
            label: label.to_string(),
            it_config,
            ti_config,
            validation,
            avg_latency,
            max_latency,
        }
    }

    /// Total bus count over both crossbars — the paper's size metric
    /// (Table 1 ratios, Table 2 counts).
    #[must_use]
    pub fn total_buses(&self) -> usize {
        self.it_config.num_buses() + self.ti_config.num_buses()
    }

    /// Total component count over both crossbars.
    #[must_use]
    pub fn total_components(&self, num_initiators: usize, num_targets: usize) -> usize {
        // On the response path the roles are reversed: the "initiators" of
        // the TI crossbar are the targets of the design.
        self.it_config.component_count(num_initiators) + self.ti_config.component_count(num_targets)
    }
}

/// The full evaluation report for one application.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Application name.
    pub app_name: String,
    /// Initiator count.
    pub num_initiators: usize,
    /// Target count.
    pub num_targets: usize,
    /// Synthesis detail for the request-path crossbar.
    pub it_synthesis: SynthesisOutcome,
    /// Synthesis detail for the response-path crossbar.
    pub ti_synthesis: SynthesisOutcome,
    /// The methodology's design, evaluated.
    pub designed: ConfigEval,
    /// Full crossbar, evaluated.
    pub full: ConfigEval,
    /// Single shared bus per direction, evaluated.
    pub shared: ConfigEval,
    /// Average-flow baseline design, evaluated.
    pub avg_based: ConfigEval,
}

impl DesignReport {
    /// Bus-count saving of the design vs the full crossbar
    /// (Table 2 "Ratio").
    #[must_use]
    pub fn component_saving(&self) -> f64 {
        self.full.total_buses() as f64 / self.designed.total_buses() as f64
    }

    /// Average latency of a configuration relative to the full crossbar
    /// (Fig. 4a bars).
    #[must_use]
    pub fn relative_avg_latency(&self, eval: &ConfigEval) -> f64 {
        eval.avg_latency / self.full.avg_latency
    }

    /// Maximum latency of a configuration relative to the full crossbar
    /// (Fig. 4b bars).
    #[must_use]
    pub fn relative_max_latency(&self, eval: &ConfigEval) -> f64 {
        eval.max_latency as f64 / self.full.max_latency as f64
    }

    /// The paper-suite summary row of this report, labelled with the
    /// `solver` that produced it. Hand-rolled and **stable**: the CLI's
    /// `suite --json` rows and the gateway's `/suite` wire format both
    /// emit exactly this string, so the two can be diffed byte for byte.
    #[must_use]
    pub fn paper_row_json(&self, solver: &str) -> String {
        format!(
            "{{\"app\":\"{name}\",\"solver\":\"{solver}\",\
             \"full_buses\":{full},\"designed_buses\":{designed},\
             \"saving\":{saving:.4},\"avg_latency\":{avg:.4},\
             \"max_latency\":{max}}}",
            name = crate::json_escape(&self.app_name),
            full = self.full.total_buses(),
            designed = self.designed.total_buses(),
            saving = self.component_saving(),
            avg = self.designed.avg_latency,
            max = self.designed.max_latency,
        )
    }
}

/// The four-phase design flow.
#[derive(Debug, Clone, Default)]
pub struct DesignFlow {
    params: DesignParams,
}

impl DesignFlow {
    /// Creates a flow with the given parameters.
    #[must_use]
    pub fn new(params: DesignParams) -> Self {
        Self { params }
    }

    /// The parameters in force.
    #[must_use]
    pub fn params(&self) -> &DesignParams {
        &self.params
    }

    /// Runs phases 1–3 for both directions and returns the synthesis
    /// outcomes together with the collected traffic (no validation runs).
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] if the exact solver exhausts its budget.
    pub fn synthesize_only(
        &self,
        app: &Application,
    ) -> Result<(SynthesisOutcome, SynthesisOutcome, CollectedTraffic), FlowError> {
        let collected = Pipeline::collect(app, &self.params);
        let analyzed = collected.analyze(&self.params);
        let synthesized = analyzed.synthesize(&Exact::default())?;
        let (it, ti) = (synthesized.it, synthesized.ti);
        drop(analyzed);
        Ok((it, ti, collected.into_traffic()))
    }

    /// Runs the complete flow: collection, pre-processing, synthesis and
    /// validation, plus the baseline evaluations.
    ///
    /// Equivalent to the staged
    /// `Pipeline::collect(app, params).analyze(params)
    /// .synthesize(&Exact::default())?.report()` — kept as the one-call
    /// convenience entry point.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] if the exact solver exhausts its budget.
    pub fn run(&self, app: &Application) -> Result<DesignReport, FlowError> {
        Pipeline::collect(app, &self.params)
            .analyze(&self.params)
            .synthesize(&Exact::default())?
            .report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbus_traffic::workloads;

    #[test]
    fn mat2_flow_end_to_end() {
        let app = workloads::matrix::mat2(42);
        let report = DesignFlow::new(DesignParams::default())
            .run(&app)
            .expect("flow succeeds");
        // Structure.
        assert_eq!(report.num_initiators, 9);
        assert_eq!(report.num_targets, 12);
        assert_eq!(report.full.total_buses(), 21);
        assert_eq!(report.shared.total_buses(), 2);
        // The design saves buses vs full.
        assert!(report.designed.total_buses() < report.full.total_buses());
        assert!(report.component_saving() > 1.5);
        // Latency ordering: full <= designed <= shared.
        assert!(report.designed.avg_latency >= report.full.avg_latency * 0.999);
        assert!(report.shared.avg_latency > report.designed.avg_latency);
    }

    #[test]
    fn designed_beats_avg_based_latency() {
        let app = workloads::matrix::mat2(43);
        let report = DesignFlow::new(DesignParams::default())
            .run(&app)
            .expect("flow succeeds");
        assert!(
            report.avg_based.avg_latency > report.designed.avg_latency,
            "avg-based {} vs designed {}",
            report.avg_based.avg_latency,
            report.designed.avg_latency
        );
    }

    #[test]
    fn synthesize_only_skips_validation() {
        let app = workloads::qsort::qsort(44);
        let flow = DesignFlow::new(DesignParams::default());
        let (it, ti, collected) = flow.synthesize_only(&app).expect("synthesis");
        assert!(it.num_buses >= 1 && it.num_buses <= 9);
        assert!(ti.num_buses >= 1 && ti.num_buses <= 6);
        assert_eq!(collected.it_trace.len(), app.trace.len());
    }

    #[test]
    fn flow_error_display() {
        let e = FlowError::SolverLimit(stbus_milp::NodeLimitExceeded { limit: 7 });
        assert!(e.to_string().contains("7-node"));
        assert!(e.source().is_some());
        let patched = FlowError::DeltaPatched;
        assert!(patched
            .to_string()
            .contains("collect the edited workload again"));
        assert!(patched.source().is_none());
    }
}
