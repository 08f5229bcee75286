//! Phase-4 contracts of `Synthesized::validate`:
//!
//! * the `full` baseline is served from phase 1's full-crossbar run and is
//!   bit-identical to simulating it again, for every paper app and every
//!   collection key, while costing no simulation;
//! * every evaluation equals a reference that builds each comparison
//!   design from the public baseline functions and simulates it with
//!   `phase4::validate`;
//! * when baseline searches run out of budget, the outcome is the one the
//!   sequential evaluation returned;
//! * an analysis whose traffic a delta edited is refused with a typed
//!   error instead of replaying a trace that no longer matches it.
//!
//! `validate` runs its jobs at the executor's width: CI runs this file on
//! a 2-worker executor, and the `stbus-core` unit tests check that widths
//! 1 and 2 give the same evaluations and errors.

use stbus::core::baselines::{average_flow_design, peak_bandwidth_design, random_binding_design};
use stbus::core::pipeline::{Analyzed, BaselineSet, Collected, Evaluation, Pipeline};
use stbus::core::synthesizer::Exact;
use stbus::core::{paper_suite_params, phase4, ConfigEval, DesignParams, FlowError, Validation};
use stbus::milp::{NodeLimitExceeded, SolveLimits};
use stbus::sim::{Arbitration, CrossbarConfig};
use stbus::traffic::workloads::{self, Application};
use stbus::traffic::{InitiatorId, TargetEdit, TargetId, TraceEvent, WorkloadDelta};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `phase4::validate_runs` is process-wide, so the tests of this binary
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The paper parameters of `app` under the paper collection key
/// (round-robin, depth 1) and each non-default one: the other two
/// arbitration policies, depth 2 and response scale 0.9.
fn collection_variants(app: &Application) -> Vec<DesignParams> {
    let base = paper_suite_params(app.name());
    vec![
        base.clone(),
        base.clone().with_arbitration(Arbitration::FixedPriority),
        base.clone()
            .with_arbitration(Arbitration::LeastRecentlyUsed),
        base.clone().with_max_outstanding(2),
        base.with_response_scale(0.9),
    ]
}

/// Each comparison design built from the public baseline functions and
/// simulated with `phase4::validate`, in `BaselineSet` order.
fn reference(
    analyzed: &Analyzed<'_>,
    designed: (&CrossbarConfig, &CrossbarConfig),
    buses: (usize, usize),
    random_seed: u64,
) -> Vec<(String, CrossbarConfig, CrossbarConfig)> {
    let app = analyzed.collected().app();
    let params = analyzed.params();
    let traffic = analyzed.collected().traffic();
    let (ni, nt) = (app.spec.num_initiators(), app.spec.num_targets());
    let arb = params.arbitration;
    let mut specs = vec![
        (
            "designed".to_string(),
            designed.0.clone(),
            designed.1.clone(),
        ),
        (
            "full".to_string(),
            CrossbarConfig::full(nt).with_arbitration(arb),
            CrossbarConfig::full(ni).with_arbitration(arb),
        ),
        (
            "shared".to_string(),
            CrossbarConfig::shared_bus(nt).with_arbitration(arb),
            CrossbarConfig::shared_bus(ni).with_arbitration(arb),
        ),
        (
            "avg-based".to_string(),
            average_flow_design(&traffic.it_trace, params)
                .expect("avg-flow within budget")
                .config,
            average_flow_design(&traffic.ti_trace, params)
                .expect("avg-flow within budget")
                .config,
        ),
        (
            "peak-based".to_string(),
            peak_bandwidth_design(&traffic.it_trace, params)
                .expect("peak within budget")
                .config,
            peak_bandwidth_design(&traffic.ti_trace, params)
                .expect("peak within budget")
                .config,
        ),
    ];
    let rnd_it = random_binding_design(analyzed.pre_it(), buses.0, random_seed, params)
        .expect("random within budget");
    let rnd_ti = random_binding_design(analyzed.pre_ti(), buses.1, random_seed, params)
        .expect("random within budget");
    if let (Some(it), Some(ti)) = (rnd_it, rnd_ti) {
        specs.push((format!("random-{random_seed}"), it.config, ti.config));
    }
    specs
}

fn assert_eval_matches(
    ctx: &str,
    eval: &ConfigEval,
    expected: &(String, CrossbarConfig, CrossbarConfig),
    simulated: &Validation,
) {
    let (label, it, ti) = expected;
    assert_eq!(&eval.label, label, "{ctx}: label order");
    assert_eq!(&eval.it_config, it, "{ctx} {label}: request crossbar");
    assert_eq!(&eval.ti_config, ti, "{ctx} {label}: response crossbar");
    assert_eq!(
        eval.validation.it_report, simulated.it_report,
        "{ctx} {label}: request-path report"
    );
    assert_eq!(
        eval.validation.ti_report, simulated.ti_report,
        "{ctx} {label}: response-path report"
    );
    assert_eq!(
        eval.avg_latency.to_bits(),
        simulated.avg_latency().to_bits(),
        "{ctx} {label}: average latency"
    );
    assert_eq!(
        eval.max_latency,
        simulated.max_latency(),
        "{ctx} {label}: maximum latency"
    );
}

fn all_evals(evaluation: &Evaluation) -> Vec<&ConfigEval> {
    std::iter::once(&evaluation.designed)
        .chain(&evaluation.baselines)
        .collect()
}

#[test]
fn full_baseline_reuses_phase1_bit_identically() {
    let _serial = serial();
    let baselines = BaselineSet::all().with_random(3);
    for app in &workloads::paper_suite(42) {
        for params in collection_variants(app) {
            let collected = Pipeline::collect(app, &params);
            let analyzed = collected.analyze(&params);
            let synthesized = analyzed.synthesize(&Exact::default()).expect("in budget");
            let expected = reference(
                &analyzed,
                (&synthesized.it.config, &synthesized.ti.config),
                (synthesized.it.num_buses, synthesized.ti.num_buses),
                3,
            );
            let simulated: Vec<Validation> = expected
                .iter()
                .map(|(_, it, ti)| phase4::validate(&app.trace, it, ti, &params))
                .collect();
            let ctx = format!(
                "{} {:?} depth {} scale {}",
                app.name(),
                params.arbitration,
                params.max_outstanding,
                params.response_scale
            );
            let before = phase4::validate_runs();
            let evaluation = synthesized.validate(&baselines).expect("in budget");
            let runs = phase4::validate_runs() - before;
            let evals = all_evals(&evaluation);
            assert_eq!(evals.len(), expected.len(), "{ctx}: baseline count");
            // Every design but `full` costs exactly one simulation pair.
            assert_eq!(runs, evals.len() as u64 - 1, "{ctx}: simulations");
            // The full baseline is the phase-1 run itself.
            let full = evaluation.baseline("full").expect("full evaluated");
            assert_eq!(full.validation.it_report, collected.traffic().it_report);
            assert_eq!(full.validation.ti_report, collected.traffic().ti_report);
            for ((eval, spec), sim) in evals.into_iter().zip(&expected).zip(&simulated) {
                assert_eval_matches(&ctx, eval, spec, sim);
            }
        }
    }
}

/// An evaluation reduced to its outcome: `Ok(baselines evaluated)` or
/// `Err(node limit hit)`.
type Shape = Result<usize, u64>;

/// What the sequential evaluation (baseline searches one after the other,
/// then the simulations) returned under a starved node budget, for
/// `paper_suite(42)`: `(app, max_nodes, BaselineSet::all(),
/// BaselineSet::all().with_random(3))`, where `Ok(n)` counts the
/// evaluated baselines and `Err(limit)` is a `SolverLimit` error.
const STARVED: [(&str, u64, Shape, Shape); 10] = [
    ("Mat1", 5, Err(5), Err(5)),
    ("Mat1", 20, Ok(4), Err(20)),
    ("Mat2", 5, Err(5), Err(5)),
    ("Mat2", 20, Ok(4), Err(20)),
    ("FFT", 5, Err(5), Err(5)),
    ("FFT", 20, Err(20), Err(20)),
    ("QSort", 5, Err(5), Err(5)),
    ("QSort", 20, Ok(4), Ok(5)),
    ("DES", 5, Err(5), Err(5)),
    ("DES", 20, Ok(4), Ok(5)),
];

fn shape(result: &Result<Evaluation, FlowError>) -> Shape {
    match result {
        Ok(evaluation) => Ok(evaluation.baselines.len()),
        Err(FlowError::SolverLimit(NodeLimitExceeded { limit })) => Err(*limit),
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn starved_baseline_searches_fail_as_the_sequential_run_did() {
    let _serial = serial();
    let apps = workloads::paper_suite(42);
    // The node budget is not part of the collection key: one phase-1 run
    // per app serves every budget.
    let collections: Vec<Collected<'_>> = apps
        .iter()
        .map(|app| Pipeline::collect(app, &paper_suite_params(app.name())))
        .collect();
    for (name, max_nodes, all, with_random) in STARVED {
        let collected = collections
            .iter()
            .find(|c| c.app().name() == name)
            .expect("paper app");
        let mut params = paper_suite_params(name);
        params.solve_limits.max_nodes = max_nodes;
        let analyzed = collected.analyze(&params);
        if max_nodes == 5 {
            // Both MILP baselines fail here, in both directions.
            let traffic = collected.traffic();
            for trace in [&traffic.it_trace, &traffic.ti_trace] {
                assert!(average_flow_design(trace, &params).is_err(), "{name}");
                assert!(peak_bandwidth_design(trace, &params).is_err(), "{name}");
            }
        }
        // The design itself is searched with the default budget; only the
        // baselines run on the starved one carried by `params`.
        let synthesized = analyzed
            .synthesize(&Exact::with_limits(SolveLimits::default()))
            .expect("in budget");
        let ctx = format!("{name} max_nodes {max_nodes}");
        let got = synthesized.validate(&BaselineSet::all());
        assert_eq!(shape(&got), all, "{ctx}: all()");
        let got = synthesized.validate(&BaselineSet::all().with_random(3));
        assert_eq!(shape(&got), with_random, "{ctx}: all() + random-3");
    }
}

fn one_target_edit() -> WorkloadDelta {
    WorkloadDelta {
        edits: vec![TargetEdit {
            target: TargetId::new(1),
            events: vec![
                TraceEvent::new(InitiatorId::new(0), TargetId::new(1), 40, 25),
                TraceEvent::new(InitiatorId::new(1), TargetId::new(1), 55, 10),
            ],
        }],
        ..WorkloadDelta::default()
    }
}

fn added_target() -> WorkloadDelta {
    WorkloadDelta {
        add_targets: 1,
        ..WorkloadDelta::default()
    }
}

fn validate_none(analyzed: &Analyzed<'_>) -> Result<Evaluation, FlowError> {
    analyzed
        .synthesize(&Exact::default())
        .expect("in budget")
        .validate(&BaselineSet::none())
}

#[test]
fn delta_patched_analyses_are_refused_with_a_typed_error() {
    let _serial = serial();
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default().with_overlap_threshold(0.15);
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);
    for (label, delta) in [("add_targets", added_target()), ("edit", one_target_edit())] {
        // Incremental route.
        let re = analyzed.reanalyze(&delta).expect("valid delta");
        assert!(re.collected().traffic().delta_patched, "{label}");
        assert_eq!(
            validate_none(&re).err(),
            Some(FlowError::DeltaPatched),
            "{label}: reanalyze"
        );
        // A θ step on top keeps the mark.
        let stepped = re.at_threshold(0.2);
        assert_eq!(validate_none(&stepped).err(), Some(FlowError::DeltaPatched));
        // From-scratch route.
        let patched = collected.apply_delta(&delta).expect("valid delta");
        assert_eq!(
            validate_none(&patched.analyze(&params)).err(),
            Some(FlowError::DeltaPatched),
            "{label}: apply_delta"
        );
        // A cache round trip keeps the mark with the traffic.
        let cached = Collected::from_cached(&app, &params, patched.into_traffic());
        assert_eq!(
            validate_none(&cached.analyze(&params)).err(),
            Some(FlowError::DeltaPatched),
            "{label}: from_cached"
        );
    }
}

#[test]
fn threshold_only_deltas_still_validate() {
    let _serial = serial();
    let app = workloads::matrix::mat2(42);
    let params = DesignParams::default().with_overlap_threshold(0.15);
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);
    let delta = WorkloadDelta {
        threshold: Some(0.25),
        ..WorkloadDelta::default()
    };
    let re = analyzed.reanalyze(&delta).expect("valid delta");
    assert!(!re.collected().traffic().delta_patched);
    let via_delta = validate_none(&re).expect("validates");
    let fresh = collected.analyze(&params.clone().with_overlap_threshold(0.25));
    let direct = validate_none(&fresh).expect("validates");
    assert_eq!(
        via_delta.designed.validation.it_report,
        direct.designed.validation.it_report
    );
    assert_eq!(
        via_delta.designed.validation.ti_report,
        direct.designed.validation.ti_report
    );
}
