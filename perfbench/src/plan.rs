//! Fixed work lists derived from the run seed.
//!
//! A run never stops on a deadline: `--seconds` only sizes the list,
//! through per-workload rates calibrated once on a 2-core host, so the
//! same `(seed, seconds)` always yields the same designs and requests, on
//! any host and at any speed.

use stbus_core::paper_suite_params;
use stbus_traffic::workloads;

/// Paper-suite rounds (five designs each) per requested second.
pub const PAPER_ROUNDS_PER_S: f64 = 2.8;
/// Scaled SoCs explored per requested second.
pub const SOCS_PER_S: f64 = 4.3;
/// Gateway design sessions (all clients together) per requested second.
pub const SESSIONS_PER_S: f64 = 5.6;

/// Times the set-up is repeated in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Targets of every explored SoC.
pub const SOC_TARGETS: usize = 24;
/// Window length of the SoC exploration (cycles).
pub const SOC_WINDOW: u64 = 2_000;
/// `maxtb` of the SoC exploration.
pub const SOC_MAXTB: usize = 6;
/// The θ sweep run on each SoC, below the 24-target transition.
pub const SOC_THETAS: [f64; 3] = [0.06, 0.08, 0.10];
/// Node budget per direction, which caps a failing design at seconds.
pub const SOC_NODE_BUDGET: u64 = 250_000;

/// Closed-loop gateway clients, one tenant each.
pub const CLIENTS: usize = 2;
/// Design sessions in the untimed journal-recording prep session.
pub const PREP_SESSIONS: usize = 12;
/// Paper suites a gateway session designs from (wire names).
pub const SUITES: [&str; 5] = ["mat1", "mat2", "fft", "qsort", "des"];

/// SplitMix64 finaliser.
#[must_use]
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of derived stream `stream` of run seed `seed`.
/// Streams keep set-up, measured and prep inputs disjoint.
#[must_use]
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)) ^ index)
}

fn count(seconds: u64, per_second: f64) -> usize {
    ((seconds as f64 * per_second).ceil() as usize).max(1)
}

/// Derived streams.
mod stream {
    pub const SETUP: u64 = 1;
    pub const MEASURED: u64 = 2;
    pub const PREP: u64 = 3;
    pub const WARMUP: u64 = 4;
    pub const CLIENT: u64 = 16;
}

/// `paper_flow`: each round designs the five paper apps from one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaperPlan {
    /// Suite seed of the set-up pass.
    pub setup_seed: u64,
    /// Suite seed of each measured round.
    pub rounds: Vec<u64>,
}

impl PaperPlan {
    /// The fixed work of one run.
    #[must_use]
    pub fn new(seed: u64, seconds: u64) -> Self {
        Self {
            setup_seed: derive(seed, stream::SETUP, 0),
            rounds: (0..count(seconds, PAPER_ROUNDS_PER_S) as u64)
                .map(|i| derive(seed, stream::MEASURED, i))
                .collect(),
        }
    }
}

/// `soc_explore`: a θ sweep over each of a list of scaled SoCs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocPlan {
    /// SoC seed of the set-up pass.
    pub setup_seed: u64,
    /// SoC seed of each measured exploration.
    pub socs: Vec<u64>,
}

impl SocPlan {
    /// The fixed work of one run.
    #[must_use]
    pub fn new(seed: u64, seconds: u64) -> Self {
        Self {
            setup_seed: derive(seed, stream::SETUP, 0),
            socs: (0..count(seconds, SOCS_PER_S) as u64)
                .map(|i| derive(seed, stream::MEASURED, i))
                .collect(),
        }
    }
}

/// One request of a gateway design session.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Workload-mode `/synthesize` (`repeat`: identical to the one before).
    Synthesize {
        /// The JSON body.
        body: String,
        /// Whether this repeats the session's cold request.
        repeat: bool,
    },
    /// `{"artifact","delta"}` on the previous response's artifact; the
    /// body is this JSON object's `"delta"` value.
    Delta {
        /// The `"delta"` object.
        delta: String,
    },
}

/// One design session: a cold request, its repeat, then a delta chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Wire suite name.
    pub suite: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// The requests, in order.
    pub steps: Vec<Step>,
}

impl Session {
    /// The session on `suite` at `seed`: cold, repeat, θ up, a target
    /// edit, θ back, θ further up.
    ///
    /// # Panics
    ///
    /// When `suite` is not a paper suite.
    #[must_use]
    pub fn new(suite: &'static str, seed: u64) -> Self {
        let app = build_suite(suite, seed);
        let params = paper_suite_params(app.name());
        let theta = params.overlap_threshold;
        let mut body = format!("{{\"suite\":\"{suite}\",\"seed\":{seed},\"threshold\":{theta}");
        if params.response_scale != 1.0 {
            body.push_str(&format!(",\"response_scale\":{}", params.response_scale));
        }
        body.push('}');
        let edit = target_edit(&app, seed);
        let steps = vec![
            Step::Synthesize {
                body: body.clone(),
                repeat: false,
            },
            Step::Synthesize { body, repeat: true },
            Step::Delta {
                delta: format!("{{\"threshold\":{}}}", round3(theta + 0.05)),
            },
            Step::Delta { delta: edit },
            Step::Delta {
                delta: format!("{{\"threshold\":{theta}}}"),
            },
            Step::Delta {
                delta: format!("{{\"threshold\":{}}}", round3(theta + 0.10)),
            },
        ];
        Self { suite, seed, steps }
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Builds a paper suite by wire name, exactly as the gateway does.
///
/// # Panics
///
/// When `suite` is not a paper suite.
#[must_use]
pub fn build_suite(suite: &str, seed: u64) -> workloads::Application {
    match suite {
        "mat1" => workloads::matrix::mat1(seed),
        "mat2" => workloads::matrix::mat2(seed),
        "fft" => workloads::fft::fft(seed),
        "qsort" => workloads::qsort::qsort(seed),
        "des" => workloads::des::des(seed),
        other => panic!("not a paper suite: {other}"),
    }
}

/// A delta replacing one target's request events with every other one
/// of its current events (the target is chosen from `seed` among those
/// with at least two events).
fn target_edit(app: &workloads::Application, seed: u64) -> String {
    let nt = app.spec.num_targets();
    let start = (splitmix(seed) % nt as u64) as usize;
    for k in 0..nt {
        let t = (start + k) % nt;
        let events: Vec<_> = app
            .trace
            .events()
            .iter()
            .filter(|e| e.target.index() == t)
            .collect();
        if events.len() < 2 {
            continue;
        }
        let kept = events
            .iter()
            .step_by(2)
            .map(|e| {
                if e.critical {
                    format!("[{},{},{},true]", e.initiator.index(), e.start, e.duration)
                } else {
                    format!("[{},{},{}]", e.initiator.index(), e.start, e.duration)
                }
            })
            .collect::<Vec<_>>()
            .join(",");
        return format!("{{\"edits\":[{{\"target\":{t},\"events\":[{kept}]}}]}}");
    }
    panic!("{} has no target with two events", app.name());
}

/// `gateway_session`: per-client session lists plus the prep and
/// warm-up traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayPlan {
    /// Sessions recorded into the journal before set-up (untimed).
    pub prep: Vec<Session>,
    /// One cold request body per client: the set-up's warm-up flight.
    pub warmup: Vec<String>,
    /// Measured sessions of each client, in order.
    pub clients: Vec<Vec<Session>>,
}

impl GatewayPlan {
    /// The fixed work of one run.
    #[must_use]
    pub fn new(seed: u64, seconds: u64) -> Self {
        let per_client = count(seconds, SESSIONS_PER_S / CLIENTS as f64);
        // The suites rotate so every run has the same app mix; the seed
        // picks each app's generator seed and edited target. Wire seeds
        // stay below 2^32: the gateway reads JSON numbers through f64.
        let session = |stream: u64, i: usize, slot: usize| {
            let s = derive(seed, stream, i as u64) & 0xFFFF_FFFF;
            Session::new(SUITES[slot % SUITES.len()], s)
        };
        Self {
            prep: (0..PREP_SESSIONS)
                .map(|i| session(stream::PREP, i, i))
                .collect(),
            warmup: (0..CLIENTS)
                .map(|c| match &session(stream::WARMUP, c, c).steps[0] {
                    Step::Synthesize { body, .. } => body.clone(),
                    Step::Delta { .. } => unreachable!("sessions open cold"),
                })
                .collect(),
            clients: (0..CLIENTS)
                .map(|c| {
                    (0..per_client)
                        .map(|i| session(stream::CLIENT + c as u64, i, i * CLIENTS + c))
                        .collect()
                })
                .collect(),
        }
    }

    /// Measured requests over all clients.
    #[cfg(test)]
    #[must_use]
    pub fn requests(&self) -> usize {
        self.clients.iter().flatten().map(|s| s.steps.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_design_list() {
        assert_eq!(PaperPlan::new(7, 20), PaperPlan::new(7, 20));
        assert_eq!(SocPlan::new(7, 20), SocPlan::new(7, 20));
        assert_ne!(PaperPlan::new(7, 20), PaperPlan::new(8, 20));
        assert_ne!(SocPlan::new(7, 20).socs, SocPlan::new(8, 20).socs);
        assert_eq!(PaperPlan::new(7, 20).rounds.len(), 56);
        assert_eq!(SocPlan::new(7, 20).socs.len(), 86);
    }

    #[test]
    fn same_seed_gives_same_request_list() {
        let a = GatewayPlan::new(11, 2);
        assert_eq!(a, GatewayPlan::new(11, 2));
        assert_ne!(a.clients, GatewayPlan::new(12, 2).clients);
        assert_eq!(a.clients.len(), CLIENTS);
        assert_eq!(a.requests(), CLIENTS * 6 * 6);
    }

    #[test]
    fn work_does_not_depend_on_host_speed() {
        // Sizing reads only the arguments: a longer run extends the list
        // and keeps its prefix.
        let short = PaperPlan::new(3, 5);
        let long = PaperPlan::new(3, 10);
        assert_eq!(short.rounds[..], long.rounds[..short.rounds.len()]);
    }

    #[test]
    fn streams_keep_prep_and_measured_seeds_disjoint() {
        let plan = GatewayPlan::new(5, 4);
        let measured: Vec<u64> = plan.clients.iter().flatten().map(|s| s.seed).collect();
        assert!(plan.prep.iter().all(|p| !measured.contains(&p.seed)));
        let soc = SocPlan::new(5, 4);
        assert!(!soc.socs.contains(&soc.setup_seed));
    }

    #[test]
    fn sessions_parse_as_gateway_requests() {
        let plan = GatewayPlan::new(9, 1);
        for session in plan.clients.iter().flatten().chain(&plan.prep) {
            for step in &session.steps {
                let body = match step {
                    Step::Synthesize { body, .. } => body.clone(),
                    Step::Delta { delta } => format!("{{\"artifact\":\"ab12\",\"delta\":{delta}}}"),
                };
                stbus_gateway::wire::parse_synthesize_route(&body)
                    .unwrap_or_else(|e| panic!("{body}: {e}"));
            }
        }
    }
}
