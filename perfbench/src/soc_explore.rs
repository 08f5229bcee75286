//! `soc_explore`: Fig. 6-style design-space exploration past the paper's
//! size. Each 24-target scaled SoC is collected once and window-analysed
//! once into an artifact; a θ sweep below the transition then re-uses the
//! artifact, each point running `analyze_with` → exact synthesize →
//! validate with no baselines.

use crate::flow::{self, DesignRecord, Tally};
use crate::plan::{
    SocPlan, SETUP_REPS, SOC_MAXTB, SOC_NODE_BUDGET, SOC_TARGETS, SOC_THETAS, SOC_WINDOW,
};
use crate::report::Report;
use crate::trace::Tracer;
use stbus_core::pipeline::{AnalysisArtifact, BaselineSet, Collected, Pipeline};
use stbus_core::synthesizer::Exact;
use stbus_core::{DesignParams, FlowError};
use stbus_milp::SolveLimits;
use stbus_traffic::workloads::{synthetic, Application};
use std::time::Instant;

fn base_params() -> DesignParams {
    DesignParams::default()
        .with_window_size(SOC_WINDOW)
        .with_maxtb(SOC_MAXTB)
}

/// The θ sweep of one SoC: one timed result per θ point. The first
/// point's latency includes the SoC's collection and analysis artifact.
fn explore(
    tracer: &Tracer,
    first_request: u64,
    app: &Application,
    thetas: &[f64],
) -> Vec<(f64, Result<DesignRecord, FlowError>)> {
    let base = base_params();
    let strategy = Exact::with_limits(SolveLimits::nodes(SOC_NODE_BUDGET));
    let mut front: Option<(Collected<'_>, AnalysisArtifact)> = None;
    let mut out = Vec::with_capacity(thetas.len());
    for (k, &theta) in thetas.iter().enumerate() {
        let request = first_request + k as u64;
        let params = base.clone().with_overlap_threshold(theta);
        let start = Instant::now();
        let record = tracer.span("design", None, request, |root| {
            let (collected, artifact) = front.get_or_insert_with(|| {
                let collected =
                    tracer.span("phase1", root, request, |_| Pipeline::collect(app, &base));
                let artifact = tracer.span("phase2", root, request, |_| {
                    collected.analysis_artifact(&base)
                });
                (collected, artifact)
            });
            let analyzed = tracer.span("phase2", root, request, |_| {
                collected.analyze_with(artifact, &params)
            });
            let synthesized = flow::synthesize(tracer, root, request, &analyzed, &strategy)?;
            flow::validate(tracer, root, request, &synthesized, &BaselineSet::none())
        });
        out.push((start.elapsed().as_secs_f64() * 1e3, record));
    }
    out
}

/// Runs the workload.
///
/// # Errors
///
/// When the set-up design fails or does not repeat exactly, or a metric
/// cannot be reported.
pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Report, String> {
    let plan = SocPlan::new(seed, seconds);

    // Set-up: the first SoC's collect, artifact and first design.
    let setup_app = synthetic::scaled_soc(SOC_TARGETS, plan.setup_seed);
    let mut setup_s = Vec::new();
    let mut first: Option<DesignRecord> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (_, record) = explore(&Tracer::new(false), 0, &setup_app, &SOC_THETAS[..1])
            .pop()
            .expect("one point");
        setup_s.push(start.elapsed().as_secs_f64());
        let record = record.map_err(|e| format!("set-up design failed: {e}"))?;
        match &first {
            None => first = Some(record),
            Some(f) if *f != record => return Err("set-up designs disagree".into()),
            Some(_) => {}
        }
    }

    let apps: Vec<Application> = plan
        .socs
        .iter()
        .map(|&s| synthetic::scaled_soc(SOC_TARGETS, s))
        .collect();
    let mut tally = Tally::new();
    let start = Instant::now();
    for (i, app) in apps.iter().enumerate() {
        let first_request = 1 + (i * SOC_THETAS.len()) as u64;
        for (ms, record) in explore(tracer, first_request, app, &SOC_THETAS) {
            tally.add(ms, record);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut report = Report::default();
    tally.report(&mut report, &setup_s, wall_s, tracer)?;
    Ok(report)
}
