//! Per-layer metrics of the in-process workloads, from the traced run's
//! spans and the counters read off each design's outputs.
//!
//! Layer names follow the modules behind each public call: `phase1` is
//! `Pipeline::collect` (the `sim` module), `phase2` the window analysis
//! (`traffic`), `phase3` `Analyzed::synthesize` (`core::synthesizer`,
//! `milp`), `phase4` `Synthesized::validate`, split into the baseline MILP
//! and the per-configuration simulations.

use crate::flow::DesignRecord;
use crate::report::Report;
use crate::trace::{LayerTimes, Tracer};

/// Counts read off finished designs.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Search nodes of the consumed probes.
    pub nodes: u64,
    /// Consumed feasibility probes.
    pub probes: u64,
    /// Consumed probes that proved infeasibility.
    pub infeasible_probes: u64,
    /// Packets simulated in phase 4.
    pub sim_packets: u64,
}

impl Counters {
    /// Adds one design's counts.
    pub fn add(&mut self, r: &DesignRecord) {
        self.nodes += r.nodes;
        self.probes += r.probes;
        self.infeasible_probes += r.infeasible_probes;
        self.sim_packets += r.sim_packets;
    }

    /// Pins the search counts, which must repeat exactly.
    pub fn pin(&self, report: &mut Report) {
        report.pin("phase3.nodes", self.nodes);
        report.pin("phase3.probes", self.probes);
        report.pin("phase3.infeasible_probes", self.infeasible_probes);
    }
}

/// Adds the search-layer metrics shared by every workload.
pub fn phase3(report: &mut Report, times: &LayerTimes, counters: &Counters) {
    let busy = times.busy("phase3");
    report.layer(
        "phase3.nodes",
        "count",
        counters.nodes as f64,
        "search nodes of consumed probes",
    );
    report.layer(
        "phase3.probes",
        "count",
        counters.probes as f64,
        "consumed probes",
    );
    report.layer(
        "phase3.infeasible_probes",
        "count",
        counters.infeasible_probes as f64,
        "consumed probes proving infeasibility",
    );
    report.layer(
        "phase3.knodes_per_s",
        "1000/s",
        counters.nodes as f64 / busy.max(f64::MIN_POSITIVE),
        "nodes ÷ phase3 busy time",
    );
}

/// Adds `<layer>.busy_ms` and `<layer>.share` (busy ÷ `base_ms`) for
/// each layer, then `unattributed_share`.
pub fn shares(report: &mut Report, times: &LayerTimes, names: &[&str], base_ms: f64, base: &str) {
    let mut total = 0.0;
    for name in names {
        let busy = times.busy(name);
        let share = busy / base_ms;
        total += share;
        report.layer(
            &format!("{name}.busy_ms"),
            "ms",
            busy,
            format!("{} spans", times.count(name)),
        );
        report.layer(
            &format!("{name}.share"),
            "share",
            share,
            format!("busy ÷ {base}"),
        );
    }
    report.layer(
        "unattributed_share",
        "share",
        1.0 - total,
        format!("1 − sum of layer shares of {base}"),
    );
}

/// Every per-layer metric of an in-process workload.
pub fn in_process(report: &mut Report, tracer: &Tracer, counters: &Counters, wall_s: f64) {
    let times = LayerTimes::of(&tracer.spans());
    let wall_ms = wall_s * 1e3;
    shares(
        report,
        &times,
        &["phase1", "phase2", "phase3", "phase4"],
        wall_ms,
        "measured wall time",
    );
    phase3(report, &times, counters);
    let sim_ms = times.busy("phase4.sim");
    report.layer(
        "phase4.sim_ms",
        "ms",
        sim_ms,
        "summed per-configuration simulation time",
    );
    report.layer(
        "phase4.sim_calls",
        "count",
        times.count("phase4.sim") as f64,
        "configuration simulations (both directions each)",
    );
    report.layer(
        "phase4.sim_packets_per_s",
        "1/s",
        counters.sim_packets as f64 / (sim_ms / 1e3),
        "packets simulated ÷ summed simulation time",
    );
    report.layer(
        "phase4.parallel_x",
        "x",
        sim_ms / times.busy("phase4.simulate").max(f64::MIN_POSITIVE),
        "summed simulation time ÷ wall time of the parallel simulation stage",
    );
    report.layer(
        "phase4.baseline_milp_ms",
        "ms",
        times.busy("phase4.baseline_milp"),
        "avg-flow baseline MILP, both directions",
    );
}
