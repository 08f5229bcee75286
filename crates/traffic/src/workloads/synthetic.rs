//! The 20-core synthetic benchmark of §7.2 used for the window-sizing and
//! overlap-threshold studies (Figs. 5 and 6).
//!
//! Ten processors with ten private memories; every core emits bursts whose
//! *span* is parameterisable (the paper's "typical burst sizes for the
//! benchmark were around 1000 cycles"). Varying the analysis window size
//! relative to the burst size traces out Fig. 5(a); varying the burst size
//! itself and asking for the smallest window that keeps the design at the
//! knee traces out Fig. 5(b); and sweeping the overlap threshold produces
//! Fig. 6.

use super::generator::{generate, CoreProfile, GeneratorParams};
use super::Application;
use crate::model::{CoreKind, SocSpec};

/// Tunable parameters for the synthetic benchmark.
#[derive(Debug, Clone)]
pub struct SyntheticParams {
    /// Number of processors (and private memories): total cores = 2×.
    pub processors: usize,
    /// Target burst span in cycles (paper default ≈ 1000).
    pub burst_span: u64,
    /// Cycles per transaction within a burst.
    pub txn_len: u32,
    /// Duty cycle: fraction of an iteration spent bursting (0..1).
    pub duty: f64,
    /// Iterations per core.
    pub iterations: u32,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        Self {
            processors: 10,
            burst_span: 1_000,
            txn_len: 8,
            duty: 0.30,
            iterations: 30,
        }
    }
}

impl SyntheticParams {
    /// Same benchmark with a different typical burst span (Fig. 5b sweep).
    #[must_use]
    pub fn with_burst_span(mut self, span: u64) -> Self {
        self.burst_span = span;
        self
    }
}

/// Builds the synthetic application from explicit parameters.
///
/// The application is named after its core count, `Synthetic{2 ×
/// processors}`: the paper's default is `Synthetic20`, and a 48-target
/// [`scaled_soc`] is `Synthetic96`.
///
/// # Panics
///
/// Panics if `duty` is not within `(0, 1)`.
#[must_use]
pub fn with_params(params: &SyntheticParams, seed: u64) -> Application {
    assert!(
        params.duty > 0.0 && params.duty < 1.0,
        "duty cycle must be in (0, 1)"
    );
    let mut spec = SocSpec::new(format!("Synthetic{}", 2 * params.processors));
    for c in 0..params.processors {
        spec.add_initiator(format!("Core{c}"));
    }
    let mut private = Vec::with_capacity(params.processors);
    for c in 0..params.processors {
        private.push(spec.add_target(format!("Mem{c}"), CoreKind::PrivateMemory));
    }

    // A burst of span S with txn_len L and gap 1 holds ~S / (L+1) txns.
    let txns = (params.burst_span / u64::from(params.txn_len) / 2).max(1) as u32;
    let txn_gap = u32::try_from(
        (params
            .burst_span
            .saturating_sub(u64::from(txns) * u64::from(params.txn_len)))
            / u64::from(txns.max(1)),
    )
    .unwrap_or(1)
    .max(1);
    let burst_span_actual = u64::from(txns) * u64::from(params.txn_len + txn_gap);
    let compute = ((burst_span_actual as f64) * (1.0 - params.duty) / params.duty) as u64;

    let period = burst_span_actual + compute;
    let profiles: Vec<CoreProfile> = (0..params.processors)
        .map(|c| CoreProfile {
            private_target: private[c],
            compute_cycles: compute,
            burst_transactions: txns,
            txn_len: params.txn_len,
            txn_gap,
            shared_period: 0,
            shared_targets: Vec::new(),
            critical_private: false,
            // Three loose phase waves, as in the paper's burst-structured
            // synthetic benchmark.
            start_offset: (c % 3) as u64 * period / 3,
        })
        .collect();

    let gen_params = GeneratorParams {
        iterations: params.iterations,
        phase_jitter: params.burst_span / 2,
        start_stagger: params.burst_span / 12,
        burst_jitter: 0.10,
        nominal_period: Some(period),
    };
    let trace = generate(
        spec.num_initiators(),
        spec.num_targets(),
        &profiles,
        &gen_params,
        seed,
    );
    Application::new(spec, trace)
}

/// The default 20-core synthetic benchmark (burst span ≈ 1000 cycles).
#[must_use]
pub fn synthetic20(seed: u64) -> Application {
    with_params(&SyntheticParams::default(), seed)
}

/// The scaled SoC family for the phase-3 size sweep: `targets` processors
/// with `targets` private memories, same burst structure as the paper's
/// synthetic benchmark.
///
/// This is the multi-word [`crate::TargetSet`] stress workload — at 48 and
/// 96 targets the conflict rows span one and two full `u64` words beyond
/// the paper's largest suite. The duty cycle eases slightly as the SoC
/// grows so the conflict graph stays dense enough to exercise the solvers
/// without making exact infeasibility proofs intractable at bench time.
///
/// # Panics
///
/// Panics if `targets == 0`.
#[must_use]
pub fn scaled_soc(targets: usize, seed: u64) -> Application {
    assert!(targets > 0, "the SoC needs at least one target");
    // 12/24 keep the historical 0.35 duty (the 24-target point must stay
    // comparable with the PR-2 snapshot); larger SoCs back off so the
    // aggregate bandwidth pressure — and with it the exact search depth —
    // grows sub-linearly with the target count.
    let duty = match targets {
        0..=24 => 0.35,
        25..=48 => 0.28,
        _ => 0.22,
    };
    with_params(
        &SyntheticParams {
            processors: targets,
            duty,
            ..SyntheticParams::default()
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstStats;

    #[test]
    fn twenty_cores() {
        let app = synthetic20(1);
        assert_eq!(app.spec.num_cores(), 20);
        assert_eq!(app.spec.num_initiators(), 10);
        assert_eq!(app.spec.num_targets(), 10);
        assert_eq!(app.name(), "Synthetic20");
    }

    #[test]
    fn burst_span_near_requested() {
        let app = synthetic20(1);
        let bursts = BurstStats::detect(&app.trace, 60);
        let mean = bursts.mean_span();
        assert!(
            (600.0..=1500.0).contains(&mean),
            "mean burst span {mean:.0} far from the requested 1000 cycles"
        );
    }

    #[test]
    fn burst_span_scales() {
        let small = with_params(&SyntheticParams::default().with_burst_span(500), 1);
        let large = with_params(&SyntheticParams::default().with_burst_span(4_000), 1);
        let ms = BurstStats::detect(&small.trace, 60).mean_span();
        let ml = BurstStats::detect(&large.trace, 200).mean_span();
        assert!(
            ml > 3.0 * ms,
            "burst span did not scale: small {ms:.0}, large {ml:.0}"
        );
    }

    #[test]
    fn scaled_family_spans_multiple_words() {
        for targets in [12usize, 24, 48, 96] {
            let app = scaled_soc(targets, 7);
            assert_eq!(app.spec.num_targets(), targets);
            assert_eq!(app.spec.num_initiators(), targets);
            assert_eq!(app.name(), format!("Synthetic{}", 2 * targets));
            assert!(!app.trace.is_empty());
        }
        // 96 targets span two bitset words — the multi-word stress case.
        assert!(scaled_soc(96, 7).spec.num_targets() > 64);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn scaled_family_rejects_empty_soc() {
        let _ = scaled_soc(0, 1);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn invalid_duty_panics() {
        let params = SyntheticParams {
            duty: 1.5,
            ..SyntheticParams::default()
        };
        let _ = with_params(&params, 1);
    }

    #[test]
    fn duty_controls_utilisation() {
        let lazy = with_params(
            &SyntheticParams {
                duty: 0.15,
                ..SyntheticParams::default()
            },
            1,
        );
        let busy_frac = |app: &Application| {
            let horizon = app.trace.horizon() as f64;
            let busy: u64 = app.trace.busy_cycles_per_target().iter().sum();
            busy as f64 / (horizon * app.spec.num_targets() as f64)
        };
        let eager = with_params(
            &SyntheticParams {
                duty: 0.55,
                ..SyntheticParams::default()
            },
            1,
        );
        assert!(busy_frac(&eager) > 2.0 * busy_frac(&lazy));
    }
}
