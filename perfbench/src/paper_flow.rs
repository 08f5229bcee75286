//! `paper_flow`: rounds of the five paper apps at their paper parameters,
//! each design running collect → analyze → exact synthesize → validate
//! against the paper's baselines (Tables 1–2, Fig. 4).

use crate::flow::{self, DesignRecord, Tally};
use crate::plan::{PaperPlan, SETUP_REPS};
use crate::report::Report;
use crate::stats::RatioMean;
use crate::trace::Tracer;
use stbus_core::pipeline::{BaselineSet, Pipeline};
use stbus_core::synthesizer::Exact;
use stbus_core::{paper_suite_params, FlowError};
use stbus_traffic::workloads::{self, Application};
use std::time::Instant;

/// One design of `app`, timed.
fn design(
    tracer: &Tracer,
    request: u64,
    app: &Application,
) -> (f64, Result<DesignRecord, FlowError>) {
    let params = paper_suite_params(app.name());
    let start = Instant::now();
    let record = tracer.span("design", None, request, |root| {
        let collected = tracer.span("phase1", root, request, |_| Pipeline::collect(app, &params));
        let analyzed = tracer.span("phase2", root, request, |_| collected.analyze(&params));
        let synthesized = flow::synthesize(tracer, root, request, &analyzed, &Exact::default())?;
        flow::validate(tracer, root, request, &synthesized, &BaselineSet::paper())
    });
    (start.elapsed().as_secs_f64() * 1e3, record)
}

/// Runs the workload.
///
/// # Errors
///
/// When the set-up pass fails or does not repeat exactly, or a metric
/// cannot be reported.
pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> Result<Report, String> {
    let plan = PaperPlan::new(seed, seconds);

    // Set-up: a cold pass of real work, one design per app, repeated on
    // the same inputs; every repetition must agree exactly.
    let setup_apps = workloads::paper_suite(plan.setup_seed);
    let mut setup_s = Vec::new();
    let mut first: Option<Vec<DesignRecord>> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let records = setup_apps
            .iter()
            .map(|app| design(&Tracer::new(false), 0, app).1)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("set-up design failed: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some(records),
            Some(f) if *f != records => return Err("set-up passes disagree".into()),
            Some(_) => {}
        }
    }

    let mut tally = Tally::new();
    let mut latency_gain = RatioMean::new(
        "avg-flow design's average packet latency (cycles)",
        "designed crossbar's average packet latency (cycles)",
    );
    let rounds: Vec<Vec<Application>> = plan
        .rounds
        .iter()
        .map(|&r| workloads::paper_suite(r))
        .collect();
    let start = Instant::now();
    for (request, app) in (1u64..).zip(rounds.iter().flatten()) {
        let (ms, record) = design(tracer, request, app);
        if let Some(r) = tally.add(ms, record) {
            let avg = r.avg_flow_latency.ok_or("avg-flow baseline missing")?;
            latency_gain.add(avg, r.designed_latency);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut report = Report::default();
    tally.report(&mut report, &setup_s, wall_s, tracer)?;
    report.ratio("latency_gain_x", &latency_gain);
    Ok(report)
}
