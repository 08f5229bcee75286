//! The design flow as the in-process workloads call it: phases 3 and 4
//! wrapped in spans, plus the per-design record the metrics are built
//! from.
//!
//! Untraced, phase 4 is one call to `Synthesized::validate`. Traced, the
//! same work runs through its public parts so the baseline MILP and the
//! simulations get spans of their own: `core::baselines::average_flow_design`
//! for the avg-flow baseline, then `core::phase4::validate` once per
//! configuration on the shared executor, exactly as `validate` does.

use crate::layers::{self, Counters};
use crate::report::Report;
use crate::stats::{Failure, Latencies, RatioMean};
use crate::trace::Tracer;
use stbus_core::baselines::average_flow_design;
use stbus_core::phase3::{SynthesisEngine, SynthesisOutcome};
use stbus_core::pipeline::{Analyzed, BaselineSet, Synthesized};
use stbus_core::{exec, phase4, FlowError, Synthesizer, Validation};
use stbus_sim::CrossbarConfig;

/// What one finished design contributes to the metrics and checks.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRecord {
    /// Application name.
    pub app: String,
    /// Buses of the designed crossbars, both directions.
    pub designed_buses: usize,
    /// Buses of the full crossbars, both directions.
    pub full_buses: usize,
    /// Whether both directions came from the exact engine.
    pub exact: bool,
    /// Search nodes of the consumed probes, both directions.
    pub nodes: u64,
    /// Consumed feasibility probes, both directions.
    pub probes: u64,
    /// Consumed probes that proved a bus count infeasible.
    pub infeasible_probes: u64,
    /// Average packet latency of the designed crossbars (cycles).
    pub designed_latency: f64,
    /// Average packet latency of the avg-flow baseline (cycles), when
    /// it was evaluated.
    pub avg_flow_latency: Option<f64>,
    /// Packets simulated in phase 4, every configuration counted.
    pub sim_packets: u64,
}

impl DesignRecord {
    /// The output check shared by the in-process workloads.
    ///
    /// # Errors
    ///
    /// When the design uses more buses than the full crossbar.
    pub fn check(&self) -> Result<(), String> {
        if self.designed_buses > self.full_buses || self.designed_buses == 0 {
            return Err(format!(
                "{}: designed {} buses against {} for the full crossbar",
                self.app, self.designed_buses, self.full_buses
            ));
        }
        Ok(())
    }
}

/// The measured designs of an in-process workload, tallied.
#[derive(Debug, Clone)]
pub struct Tally {
    latencies: Latencies,
    bus_saving: RatioMean,
    exact: usize,
    counters: Counters,
}

impl Tally {
    /// An empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self {
            latencies: Latencies::default(),
            bus_saving: RatioMean::new("full-crossbar buses", "designed buses"),
            exact: 0,
            counters: Counters::default(),
        }
    }

    /// Counts one design; returns its record when it passed the output
    /// check, and counts it failed otherwise.
    pub fn add(
        &mut self,
        ms: f64,
        record: Result<DesignRecord, FlowError>,
    ) -> Option<DesignRecord> {
        match record {
            Err(_) => self.latencies.fail(Failure::SolverLimit),
            Ok(r) => match r.check() {
                Err(e) => self.latencies.fail(Failure::Mismatch(e)),
                Ok(()) => {
                    self.latencies.record(ms);
                    self.bus_saving
                        .add(r.full_buses as f64, r.designed_buses as f64);
                    self.exact += usize::from(r.exact);
                    self.counters.add(&r);
                    return Some(r);
                }
            },
        }
        None
    }

    /// Adds the shared metrics to `report`, and the per-layer ones when
    /// `tracer` recorded spans.
    ///
    /// # Errors
    ///
    /// When a percentile cannot be reported.
    pub fn report(
        &self,
        report: &mut Report,
        setup_s: &[f64],
        wall_s: f64,
        tracer: &Tracer,
    ) -> Result<(), String> {
        report.common(setup_s, &self.latencies, wall_s, "designs")?;
        report.ratio("bus_saving_x", &self.bus_saving);
        report.exact_share(self.exact, self.latencies.attempted());
        self.counters.pin(report);
        if tracer.enabled() {
            layers::in_process(report, tracer, &self.counters, wall_s);
        }
        Ok(())
    }
}

/// Phase 3 inside a span.
///
/// # Errors
///
/// The strategy's solver-limit error.
pub fn synthesize<'a>(
    tracer: &Tracer,
    parent: Option<u32>,
    request: u64,
    analyzed: &'a Analyzed<'a>,
    strategy: &dyn Synthesizer,
) -> Result<Synthesized<'a>, FlowError> {
    tracer.span("phase3", parent, request, |_| analyzed.synthesize(strategy))
}

/// Phase 4 inside a span, then the design record.
///
/// # Errors
///
/// A baseline MILP's solver-limit error.
///
/// # Panics
///
/// When `baselines` asks for the peak or random baselines, which the
/// traced decomposition does not cover.
pub fn validate(
    tracer: &Tracer,
    parent: Option<u32>,
    request: u64,
    synthesized: &Synthesized<'_>,
    baselines: &BaselineSet,
) -> Result<DesignRecord, FlowError> {
    assert!(
        !baselines.peak && baselines.random_seeds.is_empty(),
        "the benchmark validates against full, shared and avg-flow only"
    );
    let analyzed = synthesized.analyzed();
    let app = analyzed.collected().app();
    let validations = tracer.span("phase4", parent, request, |p4| {
        if tracer.enabled() {
            validate_traced(tracer, p4, request, synthesized, baselines)
        } else {
            let evaluation = synthesized.validate(baselines)?;
            Ok(std::iter::once(evaluation.designed)
                .chain(evaluation.baselines)
                .map(|e| (e.label, e.validation))
                .collect())
        }
    })?;
    let latency = |label: &str| {
        validations
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.avg_latency())
    };
    let (it, ti) = (&synthesized.it, &synthesized.ti);
    let full_buses = CrossbarConfig::full(app.spec.num_targets()).num_buses()
        + CrossbarConfig::full(app.spec.num_initiators()).num_buses();
    Ok(DesignRecord {
        app: app.name().to_string(),
        designed_buses: synthesized.total_buses(),
        full_buses,
        exact: it.engine == SynthesisEngine::Exact && ti.engine == SynthesisEngine::Exact,
        nodes: it.stats.nodes + ti.stats.nodes,
        probes: (it.probes.len() + ti.probes.len()) as u64,
        infeasible_probes: infeasible(it) + infeasible(ti),
        designed_latency: latency("designed").expect("designed is always evaluated"),
        avg_flow_latency: latency("avg-based"),
        sim_packets: validations
            .iter()
            .map(|(_, v)| (v.it_report.packets().len() + v.ti_report.packets().len()) as u64)
            .sum(),
    })
}

fn infeasible(outcome: &SynthesisOutcome) -> u64 {
    outcome.probes.iter().filter(|(_, ok)| !ok).count() as u64
}

/// `Synthesized::validate` through its public parts, with spans around
/// the baseline MILP, the parallel simulation stage and each simulation.
fn validate_traced(
    tracer: &Tracer,
    parent: Option<u32>,
    request: u64,
    synthesized: &Synthesized<'_>,
    baselines: &BaselineSet,
) -> Result<Vec<(String, Validation)>, FlowError> {
    let analyzed = synthesized.analyzed();
    let app = analyzed.collected().app();
    let params = analyzed.params();
    let traffic = analyzed.collected().traffic();
    let (ni, nt) = (app.spec.num_initiators(), app.spec.num_targets());
    let arbitration = params.arbitration;
    let mut specs = vec![(
        "designed".to_string(),
        synthesized.it.config.clone(),
        synthesized.ti.config.clone(),
    )];
    if baselines.full {
        specs.push((
            "full".to_string(),
            CrossbarConfig::full(nt).with_arbitration(arbitration),
            CrossbarConfig::full(ni).with_arbitration(arbitration),
        ));
    }
    if baselines.shared {
        specs.push((
            "shared".to_string(),
            CrossbarConfig::shared_bus(nt).with_arbitration(arbitration),
            CrossbarConfig::shared_bus(ni).with_arbitration(arbitration),
        ));
    }
    if baselines.avg_flow {
        let (it, ti) = tracer.span("phase4.baseline_milp", parent, request, |_| {
            Ok::<_, FlowError>((
                average_flow_design(&traffic.it_trace, params)?.config,
                average_flow_design(&traffic.ti_trace, params)?.config,
            ))
        })?;
        specs.push(("avg-based".to_string(), it, ti));
    }
    let validations = tracer.span("phase4.simulate", parent, request, |stage| {
        exec::map(&specs, exec::parallelism(), |(_, it, ti)| {
            tracer.span("phase4.sim", stage, request, |_| {
                phase4::validate(&app.trace, it, ti, params)
            })
        })
    });
    Ok(specs
        .into_iter()
        .zip(validations)
        .map(|((label, _, _), v)| (label, v))
        .collect())
}
