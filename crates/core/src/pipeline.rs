//! The staged design pipeline — explicit, reusable artifacts for the four
//! phases of the methodology.
//!
//! [`DesignFlow::run`](crate::DesignFlow::run) bundles all four phases
//! behind one call, which is convenient but wasteful for design-space
//! exploration: every parameter point pays the phase-1 full-crossbar
//! reference simulation again even though the collected traffic does not
//! depend on the analysis parameters at all. This module splits the flow
//! into typed stages whose artifacts are cheap to reuse:
//!
//! ```text
//! Pipeline::collect(&app, &params)   -> Collected      (phase 1, expensive)
//! Collected::analyze(&params)        -> Analyzed       (phase 2)
//! Analyzed::synthesize(&strategy)    -> Synthesized    (phase 3)
//! Synthesized::validate(&baselines)  -> Evaluation     (phase 4)
//! ```
//!
//! A sweep over window sizes, overlap thresholds or synthesis strategies
//! holds one [`Collected`] and fans out phases 2–4 per point. Collection
//! *does* depend on the simulation-facing parameters (arbitration policy,
//! outstanding-transaction depth, response scaling); [`CollectionKey`]
//! captures exactly that dependency and [`Collected::analyze`] enforces
//! it, so an artifact can never silently be reused across parameters that
//! would have produced different traffic.
//!
//! Solver knobs ride along in [`DesignParams`] untouched by the staging:
//! in particular [`DesignParams::with_pruning`] selects the per-node
//! lower-bound pruning level of the exact binding search
//! ([`stbus_milp::PruningLevel`]), which [`Analyzed::synthesize`] hands to
//! whatever strategy is plugged in — the default `Standard` level is
//! proven bit-identical to the unpruned search, so staged, legacy and
//! batch routes stay equivalent at every level that claims identity.
//!
//! # Example
//!
//! ```
//! use stbus_core::pipeline::{BaselineSet, Pipeline};
//! use stbus_core::synthesizer::Exact;
//! use stbus_core::DesignParams;
//! use stbus_traffic::workloads;
//!
//! let app = workloads::matrix::mat2(42);
//! let base = DesignParams::default();
//! let collected = Pipeline::collect(&app, &base); // phase 1 runs once…
//! for ws in [500, 1_000, 2_000] {
//!     // …and phases 2–4 sweep the grid on the same artifact.
//!     let params = base.clone().with_window_size(ws);
//!     let evaluation = collected
//!         .analyze(&params)
//!         .synthesize(&Exact::default())
//!         .expect("within solver limits")
//!         .validate(&BaselineSet::none())
//!         .expect("validation succeeds");
//!     assert!(evaluation.designed.total_buses() >= 2);
//! }
//! ```

use crate::baselines::{average_flow_design, peak_bandwidth_design, random_binding_design};
use crate::exec;
use crate::flow::{ConfigEval, DesignReport, FlowError};
use crate::incremental::patch_traffic;
use crate::params::DesignParams;
use crate::params::Windowing;
use crate::phase1::{collect, CollectedTraffic};
use crate::phase2::Preprocessed;
use crate::phase3::SynthesisOutcome;
use crate::phase4::Validation;
use crate::synthesizer::Synthesizer;
use serde::{Deserialize, Serialize};
use stbus_sim::{Arbitration, CrossbarConfig};
use stbus_traffic::workloads::Application;
use stbus_traffic::{DeltaError, OverlapProfile, Trace, WindowStats, WorkloadDelta};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The subset of [`DesignParams`] that phase-1 collection depends on.
///
/// Two parameter sets with equal keys produce byte-identical collected
/// traffic, so phases 2–4 can sweep everything else on one artifact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollectionKey {
    /// Arbitration policy of the reference full-crossbar simulation.
    pub arbitration: Arbitration,
    /// Outstanding-transaction depth per master.
    pub max_outstanding: usize,
    /// Response duration scale (bit pattern, for exact comparison).
    pub response_scale_bits: u64,
}

impl CollectionKey {
    /// Extracts the collection-relevant subset of `params`.
    #[must_use]
    pub fn of(params: &DesignParams) -> Self {
        Self {
            arbitration: params.arbitration,
            max_outstanding: params.max_outstanding,
            response_scale_bits: params.response_scale.to_bits(),
        }
    }

    /// Injective fixed-width encoding of the key, for use in hashed
    /// content-addressed cache identities (the key itself derives only
    /// `PartialEq` — its float bit-pattern field makes a derived `Hash`
    /// easy to get subtly wrong, so cache layers hash these words
    /// instead). Equal keys ⇔ equal fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 3] {
        let arb = match self.arbitration {
            Arbitration::FixedPriority => 0u64,
            Arbitration::RoundRobin => 1,
            Arbitration::LeastRecentlyUsed => 2,
        };
        [arb, self.max_outstanding as u64, self.response_scale_bits]
    }
}

/// The subset of [`DesignParams`] the *window analysis* of phase 2 depends
/// on (given fixed collected traffic).
///
/// Two parameter sets with equal [`CollectionKey`]s **and** equal
/// `AnalysisKey`s produce byte-identical [`WindowStats`] and
/// [`OverlapProfile`]s, so a sweep over the remaining knobs — overlap
/// threshold, `maxtb`, solver limits, synthesis strategy — can share one
/// [`AnalysisArtifact`] and re-threshold in O(pairs) per point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisKey {
    /// Analysis window size `WS`.
    pub window_size: u64,
    /// Window layout policy (uniform or adaptive, with its knobs).
    pub windowing: Windowing,
}

impl AnalysisKey {
    /// Extracts the analysis-relevant subset of `params`.
    #[must_use]
    pub fn of(params: &DesignParams) -> Self {
        Self {
            window_size: params.window_size,
            windowing: params.windowing,
        }
    }

    /// Injective fixed-width encoding of the key, for hashed cache
    /// identities (see [`CollectionKey::fingerprint`]). Equal keys ⇔
    /// equal fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 4] {
        match self.windowing {
            Windowing::Uniform => [self.window_size, 0, 0, 0],
            Windowing::Adaptive {
                coarse,
                quiet_threshold,
            } => [self.window_size, 1, coarse, quiet_threshold.to_bits()],
        }
    }
}

/// Entry point of the staged pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;

impl Pipeline {
    /// Phase 1: runs the application on full crossbars and captures the
    /// arbitrated traffic as a reusable artifact.
    ///
    /// Only the [`CollectionKey`] subset of `params` matters here; the
    /// analysis knobs (window size, threshold, maxtb, windowing, solver
    /// limits) are free to vary in later stages.
    #[must_use]
    pub fn collect<'a>(app: &'a Application, params: &DesignParams) -> Collected<'a> {
        Collected {
            app,
            key: CollectionKey::of(params),
            traffic: collect(app, params),
        }
    }
}

/// Phase-1 artifact: the observed traffic of one application under one
/// [`CollectionKey`].
#[derive(Debug, Clone)]
pub struct Collected<'a> {
    app: &'a Application,
    key: CollectionKey,
    traffic: CollectedTraffic,
}

impl<'a> Collected<'a> {
    /// Rebuilds a collection artifact from traffic captured earlier —
    /// the re-entry point for process-level artifact caches that store
    /// owned [`CollectedTraffic`] (a `Collected` borrows its
    /// application, so it cannot itself outlive one request).
    ///
    /// The caller asserts that `traffic` was produced by
    /// [`Pipeline::collect`] on this `app` under parameters whose
    /// [`CollectionKey`] equals `CollectionKey::of(params)`; downstream
    /// stages then behave bit-identically to the original artifact.
    /// Nothing is re-simulated. Delta-patched traffic keeps its
    /// [`CollectedTraffic::delta_patched`] mark through the round trip.
    #[must_use]
    pub fn from_cached(
        app: &'a Application,
        params: &DesignParams,
        traffic: CollectedTraffic,
    ) -> Self {
        Self {
            app,
            key: CollectionKey::of(params),
            traffic,
        }
    }
    /// The application this traffic was collected from.
    #[must_use]
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The collection-relevant parameters this artifact was built under.
    #[must_use]
    pub fn key(&self) -> CollectionKey {
        self.key
    }

    /// The raw collected traces and reference simulations.
    #[must_use]
    pub fn traffic(&self) -> &CollectedTraffic {
        &self.traffic
    }

    /// Unwraps the artifact into the raw collected traffic.
    #[must_use]
    pub fn into_traffic(self) -> CollectedTraffic {
        self.traffic
    }

    /// Whether `params` can legally reuse this artifact.
    #[must_use]
    pub fn is_compatible(&self, params: &DesignParams) -> bool {
        self.key == CollectionKey::of(params)
    }

    /// Phase 2: window analysis and conflict extraction for both crossbar
    /// directions under `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` differs from the collection parameters in any
    /// [`CollectionKey`] field — the collected traffic would not match the
    /// traffic those parameters produce. Re-run [`Pipeline::collect`] (or
    /// let [`crate::Batch`] group the grid by key) instead.
    #[must_use]
    pub fn analyze(&self, params: &DesignParams) -> Analyzed<'_> {
        assert!(
            self.is_compatible(params),
            "analysis params change the collected traffic (arbitration, \
             max_outstanding or response_scale differ from the collection \
             run); collect again for these parameters"
        );
        let (pre_it, pre_ti) = analyze_directions(&self.traffic, params);
        Analyzed {
            collected: CollectedRef::Borrowed(self),
            params: params.clone(),
            pre_it,
            pre_ti,
        }
    }

    /// Runs the window analysis once and captures it as a sweep-resident
    /// [`AnalysisArtifact`]: stats and overlap profiles for both crossbar
    /// directions, independent of the overlap threshold, `maxtb` and
    /// solver knobs.
    ///
    /// # Panics
    ///
    /// Panics if `params` is incompatible with this collection (see
    /// [`Collected::analyze`]).
    #[must_use]
    pub fn analysis_artifact(&self, params: &DesignParams) -> AnalysisArtifact {
        assert!(
            self.is_compatible(params),
            "analysis params change the collected traffic (arbitration, \
             max_outstanding or response_scale differ from the collection \
             run); collect again for these parameters"
        );
        // Route through `Preprocessed::analyze` so the windowing policy is
        // interpreted in exactly one place.
        let (pre_it, pre_ti) = analyze_directions(&self.traffic, params);
        AnalysisArtifact {
            collection: self.key,
            key: AnalysisKey::of(params),
            it: (pre_it.stats, pre_it.profile),
            ti: (pre_ti.stats, pre_ti.profile),
        }
    }

    /// Phase 2 from a sweep-resident artifact: re-thresholds the cached
    /// profiles for `params` in O(pairs) instead of re-running the window
    /// analysis. Bit-identical to [`Collected::analyze`] for every
    /// compatible `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` is incompatible with this collection, or if the
    /// artifact was built under a different [`CollectionKey`] or
    /// [`AnalysisKey`] than `params` describes.
    #[must_use]
    pub fn analyze_with(&self, artifact: &AnalysisArtifact, params: &DesignParams) -> Analyzed<'_> {
        assert!(
            self.is_compatible(params),
            "analysis params change the collected traffic; collect again \
             for these parameters"
        );
        assert!(
            artifact.collection == self.key && artifact.key == AnalysisKey::of(params),
            "analysis artifact was built under a different collection or \
             window plan; call `analysis_artifact` for these parameters"
        );
        Analyzed {
            collected: CollectedRef::Borrowed(self),
            params: params.clone(),
            pre_it: Preprocessed::from_profile(
                artifact.it.0.clone(),
                artifact.it.1.clone(),
                params,
            ),
            pre_ti: Preprocessed::from_profile(
                artifact.ti.0.clone(),
                artifact.ti.1.clone(),
                params,
            ),
        }
    }

    /// Applies a [`WorkloadDelta`] to this collection, producing the
    /// patched artifact a from-scratch re-analysis would consume — the
    /// reference path the incremental [`Analyzed::reanalyze`] is proven
    /// bit-identical against.
    ///
    /// The request trace is patched exactly per [`WorkloadDelta::apply`];
    /// the response trace follows the ideal-response model documented in
    /// [`crate::incremental`]. The artifact keeps the *base* application
    /// reference and simulation reports, which phases 2–3 never read. The
    /// edited workload has no offered trace to replay, so once a delta
    /// touches traffic, [`Synthesized::validate`] returns
    /// [`FlowError::DeltaPatched`] for every design derived from it.
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`] from validating `delta` against the collected
    /// request trace.
    pub fn apply_delta(&self, delta: &WorkloadDelta) -> Result<Collected<'a>, DeltaError> {
        let scale = f64::from_bits(self.key.response_scale_bits);
        let (traffic, _) = patch_traffic(&self.traffic, delta, scale)?;
        Ok(Collected {
            app: self.app,
            key: self.key,
            traffic,
        })
    }

    /// Analyzes a whole θ-sweep on one window analysis: the first point
    /// pays the sweep-line pass, every further threshold re-derives its
    /// conflict graphs in O(pairs). Each returned [`Analyzed`] is
    /// bit-identical to a fresh [`Collected::analyze`] at that threshold.
    #[must_use]
    pub fn analyze_sweep(&self, base: &DesignParams, thresholds: &[f64]) -> Vec<Analyzed<'_>> {
        if thresholds.is_empty() {
            return Vec::new();
        }
        let artifact = self.analysis_artifact(base);
        thresholds
            .iter()
            .map(|&theta| self.analyze_with(&artifact, &base.clone().with_overlap_threshold(theta)))
            .collect()
    }
}

/// Sweep-resident phase-2 artifact: the window statistics and
/// [`OverlapProfile`]s of both crossbar directions under one
/// ([`CollectionKey`], [`AnalysisKey`]) pair.
///
/// Everything here is threshold-independent, so a θ/`maxtb`/strategy sweep
/// holds one artifact and fans out [`Collected::analyze_with`] per point —
/// window analysis runs once per `(app, key)` instead of once per point.
#[derive(Debug, Clone)]
pub struct AnalysisArtifact {
    collection: CollectionKey,
    key: AnalysisKey,
    /// Request-path (initiator→target) stats and profile.
    it: (WindowStats, OverlapProfile),
    /// Response-path (target→initiator) stats and profile.
    ti: (WindowStats, OverlapProfile),
}

impl AnalysisArtifact {
    /// Rebuilds a sweep-resident artifact from stats and profiles
    /// captured earlier — the re-entry point for caches that persist
    /// phase-2 state across requests (the gateway's incremental
    /// re-synthesis path stores the *reanalyzed* stats/profiles of a
    /// delta-patched workload this way, so a chained delta re-enters
    /// [`Collected::analyze_with`] without re-running the window sweep).
    ///
    /// The caller asserts the parts were produced by an analysis of
    /// traffic collected under `collection` with the window plan of
    /// `key`; downstream stages then behave bit-identically to the
    /// original artifact.
    #[must_use]
    pub fn from_parts(
        collection: CollectionKey,
        key: AnalysisKey,
        it: (WindowStats, OverlapProfile),
        ti: (WindowStats, OverlapProfile),
    ) -> Self {
        Self {
            collection,
            key,
            it,
            ti,
        }
    }

    /// The analysis-relevant parameter subset this artifact was built for.
    #[must_use]
    pub fn key(&self) -> AnalysisKey {
        self.key
    }

    /// The collection key of the traffic this artifact analyzed.
    #[must_use]
    pub fn collection_key(&self) -> CollectionKey {
        self.collection
    }

    /// Whether `params` can legally reuse this artifact (same collection
    /// and window plan; threshold/`maxtb`/solver knobs are free).
    #[must_use]
    pub fn is_compatible(&self, params: &DesignParams) -> bool {
        self.collection == CollectionKey::of(params) && self.key == AnalysisKey::of(params)
    }
}

/// The collection artifact is usually borrowed from the caller; the
/// delta path ([`Analyzed::reanalyze`]) owns a patched copy instead.
/// Either way the downstream stages are oblivious — they read through
/// [`Analyzed::collected`]. (A hand-rolled enum rather than
/// [`std::borrow::Cow`]: `Cow`'s `Owned` variant goes through the
/// `ToOwned` associated-type projection, which would make `Analyzed<'a>`
/// invariant in `'a` and break the lifetime shrinking `synthesize`
/// relies on.)
#[derive(Debug, Clone)]
enum CollectedRef<'a> {
    Borrowed(&'a Collected<'a>),
    Owned(Box<Collected<'a>>),
}

impl<'a> std::ops::Deref for CollectedRef<'a> {
    type Target = Collected<'a>;

    fn deref(&self) -> &Collected<'a> {
        match self {
            CollectedRef::Borrowed(c) => c,
            CollectedRef::Owned(c) => c,
        }
    }
}

/// Phase-2 artifact: windowed statistics and conflicts for both
/// directions, bound to the parameters that produced them.
#[derive(Debug, Clone)]
pub struct Analyzed<'a> {
    collected: CollectedRef<'a>,
    params: DesignParams,
    pre_it: Preprocessed,
    pre_ti: Preprocessed,
}

impl<'a> Analyzed<'a> {
    /// The parameters in force for this analysis.
    #[must_use]
    pub fn params(&self) -> &DesignParams {
        &self.params
    }

    /// Request-path (initiator→target) analysis.
    #[must_use]
    pub fn pre_it(&self) -> &Preprocessed {
        &self.pre_it
    }

    /// Response-path (target→initiator) analysis.
    #[must_use]
    pub fn pre_ti(&self) -> &Preprocessed {
        &self.pre_ti
    }

    /// The collection artifact this analysis was derived from
    /// (borrowed from the caller, or owned when this analysis came out of
    /// [`Analyzed::reanalyze`]).
    #[must_use]
    pub fn collected(&self) -> &Collected<'a> {
        &self.collected
    }

    /// Re-thresholds this analysis at a new overlap threshold without
    /// re-running the window analysis (O(pairs) per direction via the
    /// sweep-resident [`OverlapProfile`]). The result is bit-identical to
    /// `self.collected().analyze(&params_at_theta)`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or not finite.
    #[must_use]
    pub fn at_threshold(&self, threshold: f64) -> Analyzed<'a> {
        Analyzed {
            collected: self.collected.clone(),
            params: self.params.clone().with_overlap_threshold(threshold),
            pre_it: self.pre_it.at_threshold(threshold),
            pre_ti: self.pre_ti.at_threshold(threshold),
        }
    }

    /// Delta-aware re-analysis: patches the collected traffic per `delta`
    /// and re-derives both directions' phase-2 artifacts touching only
    /// the edited targets — O(touched × targets) pairwise work instead of
    /// a full sweep-line pass — with the conflict graphs patched in
    /// place. The result is **bit-identical** to
    /// `self.collected().apply_delta(delta)?.analyze(&new_params)` where
    /// `new_params` applies the delta's θ override, as the
    /// `incremental_equivalence` suite proves under proptest.
    ///
    /// Route by delta shape:
    ///
    /// * **θ-only** deltas skip traffic work entirely and re-threshold
    ///   the cached profiles in O(pairs) ([`Analyzed::at_threshold`]).
    /// * **Traffic** deltas under the *uniform* window layout take the
    ///   incremental path (`apply_delta` on stats and profile, in-place
    ///   conflict-graph patch via `grown` + `patch_conflict_graph`).
    /// * **Adaptive** window plans re-derive their boundaries from the
    ///   trace itself, so a traffic delta falls back to a full phase-2
    ///   re-analysis of the patched traces — still skipping phase 1,
    ///   still bit-identical, just O(events log events) instead of
    ///   O(touched × targets).
    ///
    /// Phase 1 is never re-run: the response direction follows the
    /// ideal-response model documented in [`crate::incremental`]. For the
    /// same reason a traffic delta leaves no offered trace to replay, and
    /// [`Synthesized::validate`] answers [`FlowError::DeltaPatched`] for
    /// designs derived from it; θ-only deltas validate as before.
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`] from validating `delta` against the collected
    /// request trace.
    pub fn reanalyze(&self, delta: &WorkloadDelta) -> Result<Analyzed<'a>, DeltaError> {
        if !delta.touches_traffic() {
            delta.validate(&self.collected.traffic().it_trace)?;
            let theta = delta.threshold.unwrap_or(self.params.overlap_threshold);
            return Ok(self.at_threshold(theta));
        }
        let scale = f64::from_bits(self.collected.key().response_scale_bits);
        let (traffic, touched) = patch_traffic(self.collected.traffic(), delta, scale)?;
        let params = match delta.threshold {
            Some(theta) => self.params.clone().with_overlap_threshold(theta),
            None => self.params.clone(),
        };
        let collected = Collected {
            app: self.collected.app(),
            key: self.collected.key(),
            traffic,
        };
        let same_theta = delta
            .threshold
            .is_none_or(|t| t == self.params.overlap_threshold);
        let incremental_ok = matches!(params.windowing, Windowing::Uniform)
            && self.pre_it.stats.is_uniform()
            && self.pre_ti.stats.is_uniform();
        let (pre_it, pre_ti) = if incremental_ok {
            (
                repreprocess(
                    &self.pre_it,
                    &collected.traffic.it_trace,
                    &touched.it,
                    &params,
                    same_theta,
                ),
                repreprocess(
                    &self.pre_ti,
                    &collected.traffic.ti_trace,
                    &touched.ti,
                    &params,
                    same_theta,
                ),
            )
        } else {
            analyze_directions(&collected.traffic, &params)
        };
        Ok(Analyzed {
            collected: CollectedRef::Owned(Box::new(collected)),
            params,
            pre_it,
            pre_ti,
        })
    }

    /// Phase 3: synthesises both crossbar directions with `strategy`.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] if the strategy's exact search exhausts
    /// its node budget (the [`crate::synthesizer::Portfolio`] strategy
    /// never does — it falls back to the heuristic).
    pub fn synthesize(&self, strategy: &dyn Synthesizer) -> Result<Synthesized<'_>, FlowError> {
        let it = strategy.synthesize(&self.pre_it, &self.params)?;
        let ti = strategy.synthesize(&self.pre_ti, &self.params)?;
        Ok(Synthesized {
            analyzed: self,
            it,
            ti,
        })
    }

    /// Phase 3 with cooperative cancellation: `Ok(None)` when `cancel` is
    /// raised before or during either direction's search, otherwise
    /// bit-identical to [`Analyzed::synthesize`] (see
    /// [`Synthesizer::synthesize_cancellable`]). This is what lets a
    /// service abandon an in-flight design the moment its requester goes
    /// away instead of finishing a solve nobody will read.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] as for [`Analyzed::synthesize`].
    pub fn synthesize_cancellable(
        &self,
        strategy: &dyn Synthesizer,
        cancel: &stbus_exec::CancelToken,
    ) -> Result<Option<Synthesized<'_>>, FlowError> {
        let Some(it) = strategy.synthesize_cancellable(&self.pre_it, &self.params, cancel)? else {
            return Ok(None);
        };
        let Some(ti) = strategy.synthesize_cancellable(&self.pre_ti, &self.params, cancel)? else {
            return Ok(None);
        };
        Ok(Some(Synthesized {
            analyzed: self,
            it,
            ti,
        }))
    }
}

/// One direction of the incremental phase-2 path: re-derives a
/// [`Preprocessed`] from its predecessor touching only the `touched`
/// targets. Stats and profile rows of untouched targets are copied;
/// the conflict graph is grown to the new target count and patched in
/// place when θ is unchanged, or re-thresholded from the (already
/// delta-patched) profile in O(pairs) otherwise.
fn repreprocess(
    base: &Preprocessed,
    patched: &Trace,
    touched: &[usize],
    params: &DesignParams,
    same_theta: bool,
) -> Preprocessed {
    let stats = base.stats.apply_delta(patched, touched);
    let profile = base.profile.apply_delta(&stats, touched);
    let conflicts = if same_theta {
        let mut graph = base.conflicts.grown(stats.num_targets());
        profile.patch_conflict_graph(&mut graph, touched, params.overlap_threshold);
        graph
    } else {
        profile.conflict_graph(params.overlap_threshold)
    };
    Preprocessed {
        stats,
        profile,
        conflicts,
        maxtb: params.maxtb,
    }
}

/// Phase 2 from scratch for both crossbar directions. The two window
/// analyses are independent, so they run side by side on the shared
/// executor; each is a pure function of its trace, so the result is the
/// same at every worker count.
fn analyze_directions(
    traffic: &CollectedTraffic,
    params: &DesignParams,
) -> (Preprocessed, Preprocessed) {
    let traces = [&traffic.it_trace, &traffic.ti_trace];
    let mut pre = exec::map(&traces, exec::parallelism(), |trace| {
        Preprocessed::analyze(trace, params)
    });
    let pre_ti = pre.pop().expect("two directions");
    let pre_it = pre.pop().expect("two directions");
    (pre_it, pre_ti)
}

/// Phase-3 artifact: the synthesised crossbars for both directions.
#[derive(Debug, Clone)]
pub struct Synthesized<'a> {
    analyzed: &'a Analyzed<'a>,
    /// Request-path synthesis outcome.
    pub it: SynthesisOutcome,
    /// Response-path synthesis outcome.
    pub ti: SynthesisOutcome,
}

impl Synthesized<'_> {
    /// Total bus count of the design over both directions.
    #[must_use]
    pub fn total_buses(&self) -> usize {
        self.it.num_buses + self.ti.num_buses
    }

    /// The analysis this synthesis came from.
    #[must_use]
    pub fn analyzed(&self) -> &Analyzed<'_> {
        self.analyzed
    }

    /// Phase 4: validates the design end to end and evaluates exactly the
    /// requested baselines on the same traffic.
    ///
    /// # Errors
    ///
    /// [`FlowError::SolverLimit`] if a baseline's own design search (the
    /// avg-flow and peak baselines solve MILPs too) exhausts its budget;
    /// [`FlowError::DeltaPatched`] if a delta has edited the analysed
    /// traffic, which leaves no offered trace to replay.
    pub fn validate(&self, baselines: &BaselineSet) -> Result<Evaluation, FlowError> {
        self.validate_on(baselines, exec::parallelism())
    }

    /// [`Synthesized::validate`] with at most `width` comparison designs
    /// in flight on the shared executor. The evaluation, and the error
    /// when one occurs, is the same at every width.
    fn validate_on(&self, baselines: &BaselineSet, width: usize) -> Result<Evaluation, FlowError> {
        let app = self.analyzed.collected.app();
        let traffic = self.analyzed.collected.traffic();
        if traffic.delta_patched {
            return Err(FlowError::DeltaPatched);
        }

        // One job per comparison design, in spec order: designed, full,
        // shared, avg-flow, peak, random-k. A baseline that needs a
        // binding search runs it and then simulates inside the same task,
        // so the searches overlap the other designs' simulations. Jobs
        // that search are submitted first to keep the workers evenly
        // loaded; results go back into spec order, and the first error in
        // spec order wins, so the outcome matches a sequential run.
        let mut specs = vec![Baseline::Designed];
        if baselines.full {
            specs.push(Baseline::Full);
        }
        if baselines.shared {
            specs.push(Baseline::Shared);
        }
        if baselines.avg_flow {
            specs.push(Baseline::AvgFlow);
        }
        if baselines.peak {
            specs.push(Baseline::Peak);
        }
        specs.extend(baselines.random_seeds.iter().map(|&s| Baseline::Random(s)));
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| !specs[i].searches());
        // Spec index of the first failed job so far. Once a job has
        // failed, jobs after it in spec order and jobs that cannot fail no
        // longer change the outcome, so they are skipped. The first
        // failure in spec order is never skipped: no job before it fails.
        let first_failure = AtomicUsize::new(usize::MAX);
        let mut finished = exec::map(&order, width, |&i| {
            let failed = first_failure.load(Ordering::Relaxed);
            if failed < i || (failed != usize::MAX && !specs[i].searches()) {
                return (i, Ok(None));
            }
            let result = self.evaluate(specs[i], traffic);
            if result.is_err() {
                first_failure.fetch_min(i, Ordering::Relaxed);
            }
            (i, result)
        });
        finished.sort_by_key(|&(i, _)| i);
        let mut evals = Vec::with_capacity(specs.len());
        for (_, result) in finished {
            evals.extend(result?);
        }
        let designed = evals.remove(0);

        Ok(Evaluation {
            app_name: app.name().to_string(),
            num_initiators: app.spec.num_initiators(),
            num_targets: app.spec.num_targets(),
            it_synthesis: self.it.clone(),
            ti_synthesis: self.ti.clone(),
            designed,
            baselines: evals,
        })
    }

    /// Builds and validates one comparison design. `Ok(None)` when a
    /// random permutation found no feasible binding at the optimal size:
    /// such seeds are skipped rather than failing the evaluation.
    fn evaluate(
        &self,
        spec: Baseline,
        traffic: &CollectedTraffic,
    ) -> Result<Option<ConfigEval>, FlowError> {
        let app = self.analyzed.collected.app();
        let params = &self.analyzed.params;
        let (ni, nt) = (app.spec.num_initiators(), app.spec.num_targets());
        let simulate = |label: &str, it: CrossbarConfig, ti: CrossbarConfig| {
            Ok(Some(ConfigEval::new(label, it, ti, app, params)))
        };
        match spec {
            Baseline::Designed => {
                simulate("designed", self.it.config.clone(), self.ti.config.clone())
            }
            // Phase 1 simulated exactly this: the offered trace on full
            // crossbars under the same arbitration, depth and response
            // scale (`Collected::analyze` enforces the `CollectionKey`).
            Baseline::Full => Ok(Some(ConfigEval::from_validation(
                "full",
                CrossbarConfig::full(nt).with_arbitration(params.arbitration),
                CrossbarConfig::full(ni).with_arbitration(params.arbitration),
                Validation {
                    it_report: traffic.it_report.clone(),
                    ti_report: traffic.ti_report.clone(),
                },
            ))),
            Baseline::Shared => simulate(
                "shared",
                CrossbarConfig::shared_bus(nt).with_arbitration(params.arbitration),
                CrossbarConfig::shared_bus(ni).with_arbitration(params.arbitration),
            ),
            Baseline::AvgFlow => {
                let it = average_flow_design(&traffic.it_trace, params)?.config;
                let ti = average_flow_design(&traffic.ti_trace, params)?.config;
                simulate("avg-based", it, ti)
            }
            Baseline::Peak => {
                let it = peak_bandwidth_design(&traffic.it_trace, params)?.config;
                let ti = peak_bandwidth_design(&traffic.ti_trace, params)?.config;
                simulate("peak-based", it, ti)
            }
            Baseline::Random(seed) => {
                let it =
                    random_binding_design(&self.analyzed.pre_it, self.it.num_buses, seed, params)?;
                let ti =
                    random_binding_design(&self.analyzed.pre_ti, self.ti.num_buses, seed, params)?;
                match (it, ti) {
                    (Some(it), Some(ti)) => {
                        simulate(&format!("random-{seed}"), it.config, ti.config)
                    }
                    _ => Ok(None),
                }
            }
        }
    }

    /// Validates against the paper's baseline set (full, shared,
    /// avg-flow) and packages the result as the classic [`DesignReport`].
    ///
    /// # Errors
    ///
    /// As for [`Synthesized::validate`].
    pub fn report(&self) -> Result<DesignReport, FlowError> {
        let evaluation = self.validate(&BaselineSet::paper())?;
        Ok(evaluation
            .into_report()
            .expect("paper baseline set carries full, shared and avg-flow"))
    }
}

/// One comparison design of phase 4, in the order [`BaselineSet`] lists
/// them.
#[derive(Debug, Clone, Copy)]
enum Baseline {
    Designed,
    Full,
    Shared,
    AvgFlow,
    Peak,
    Random(u64),
}

impl Baseline {
    /// Whether the design comes out of a binding search, the only step of
    /// phase 4 that can fail.
    fn searches(self) -> bool {
        matches!(
            self,
            Baseline::AvgFlow | Baseline::Peak | Baseline::Random(_)
        )
    }
}

/// Selector for the comparison designs phase 4 should evaluate.
///
/// The `full` baseline is free: phase 1 already simulated the full
/// crossbars on the same inputs, and phase 4 reuses those reports. Every
/// other baseline costs a cycle-accurate simulation pair (and the
/// avg-flow/peak/random baselines a binding search first), so sweeps that
/// only need the designed crossbar's latency use [`BaselineSet::none`] and
/// pay for nothing else.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineSet {
    /// Evaluate the full crossbar (latency reference).
    pub full: bool,
    /// Evaluate the single shared bus (cost reference).
    pub shared: bool,
    /// Evaluate the average-flow prior-work design.
    pub avg_flow: bool,
    /// Evaluate the peak-bandwidth (contention-elimination) design.
    pub peak: bool,
    /// Evaluate a random-but-feasible binding per listed seed.
    pub random_seeds: Vec<u64>,
}

impl BaselineSet {
    /// No baselines: only the designed configuration is simulated.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// The paper's evaluation set: full crossbar, shared bus, avg-flow.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            full: true,
            shared: true,
            avg_flow: true,
            ..Self::default()
        }
    }

    /// Every deterministic baseline (paper set plus peak-bandwidth).
    #[must_use]
    pub fn all() -> Self {
        Self {
            peak: true,
            ..Self::paper()
        }
    }

    /// Adds the full-crossbar baseline (builder style).
    #[must_use]
    pub fn with_full(mut self) -> Self {
        self.full = true;
        self
    }

    /// Adds the shared-bus baseline (builder style).
    #[must_use]
    pub fn with_shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Adds the average-flow baseline (builder style).
    #[must_use]
    pub fn with_avg_flow(mut self) -> Self {
        self.avg_flow = true;
        self
    }

    /// Adds the peak-bandwidth baseline (builder style).
    #[must_use]
    pub fn with_peak(mut self) -> Self {
        self.peak = true;
        self
    }

    /// Adds a random-binding baseline for `seed` (builder style).
    #[must_use]
    pub fn with_random(mut self, seed: u64) -> Self {
        self.random_seeds.push(seed);
        self
    }
}

/// Phase-4 artifact: the designed configuration evaluated next to the
/// requested baselines.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Application name.
    pub app_name: String,
    /// Initiator count.
    pub num_initiators: usize,
    /// Target count.
    pub num_targets: usize,
    /// Request-path synthesis detail.
    pub it_synthesis: SynthesisOutcome,
    /// Response-path synthesis detail.
    pub ti_synthesis: SynthesisOutcome,
    /// The methodology's design, evaluated.
    pub designed: ConfigEval,
    /// The evaluated baselines, labelled `full` / `shared` / `avg-based` /
    /// `peak-based` / `random-<seed>`.
    pub baselines: Vec<ConfigEval>,
}

impl Evaluation {
    /// Looks up an evaluated baseline by label.
    #[must_use]
    pub fn baseline(&self, label: &str) -> Option<&ConfigEval> {
        self.baselines.iter().find(|e| e.label == label)
    }

    /// Repackages a paper-baseline evaluation as the classic
    /// [`DesignReport`]. Returns `None` when the `full`, `shared` or
    /// `avg-based` baseline was not evaluated.
    #[must_use]
    pub fn into_report(self) -> Option<DesignReport> {
        let find = |label: &str| self.baselines.iter().find(|e| e.label == label).cloned();
        let full = find("full")?;
        let shared = find("shared")?;
        let avg_based = find("avg-based")?;
        Some(DesignReport {
            app_name: self.app_name,
            num_initiators: self.num_initiators,
            num_targets: self.num_targets,
            it_synthesis: self.it_synthesis,
            ti_synthesis: self.ti_synthesis,
            designed: self.designed,
            full,
            shared,
            avg_based,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesizer::{Exact, Heuristic};
    use stbus_traffic::workloads;
    use stbus_traffic::{InitiatorId, TargetEdit, TargetId, TraceEvent};

    /// The incremental-equivalence contract at pipeline level: for every
    /// delta shape, `reanalyze` must equal the from-scratch route
    /// (`apply_delta` then `analyze`) bit for bit — stats, profiles and
    /// conflict graphs in both directions.
    fn assert_reanalyze_matches(base_params: &DesignParams, delta: &WorkloadDelta) {
        let app = workloads::matrix::mat2(42);
        let collected = Pipeline::collect(&app, base_params);
        let analyzed = collected.analyze(base_params);

        let incremental = analyzed.reanalyze(delta).expect("valid delta");
        let new_params = match delta.threshold {
            Some(theta) => base_params.clone().with_overlap_threshold(theta),
            None => base_params.clone(),
        };
        let scratch_collected = collected.apply_delta(delta).expect("valid delta");
        let scratch = scratch_collected.analyze(&new_params);

        assert_eq!(
            incremental.collected().traffic().it_trace,
            scratch.collected().traffic().it_trace
        );
        assert_eq!(
            incremental.collected().traffic().ti_trace,
            scratch.collected().traffic().ti_trace
        );
        for (label, inc, fresh) in [
            ("it", incremental.pre_it(), scratch.pre_it()),
            ("ti", incremental.pre_ti(), scratch.pre_ti()),
        ] {
            assert_eq!(inc.stats, fresh.stats, "{label} stats");
            assert_eq!(inc.profile, fresh.profile, "{label} profile");
            assert_eq!(inc.conflicts, fresh.conflicts, "{label} conflicts");
            assert_eq!(inc.maxtb, fresh.maxtb, "{label} maxtb");
        }
        assert_eq!(incremental.params(), scratch.params());
    }

    fn edit_delta() -> WorkloadDelta {
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

    #[test]
    fn reanalyze_matches_from_scratch_on_edit() {
        assert_reanalyze_matches(&DesignParams::default(), &edit_delta());
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_removal() {
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(2)],
            ..WorkloadDelta::default()
        };
        assert_reanalyze_matches(&DesignParams::default(), &delta);
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_added_target() {
        let app = workloads::matrix::mat2(42);
        let n = Pipeline::collect(&app, &DesignParams::default())
            .traffic()
            .it_trace
            .num_targets();
        let delta = WorkloadDelta {
            add_targets: 1,
            edits: vec![TargetEdit {
                target: TargetId::new(n),
                events: vec![TraceEvent::new(
                    InitiatorId::new(0),
                    TargetId::new(n),
                    5,
                    30,
                )],
            }],
            ..WorkloadDelta::default()
        };
        assert_reanalyze_matches(&DesignParams::default(), &delta);
    }

    #[test]
    fn reanalyze_matches_from_scratch_on_theta_change() {
        // θ-only rides the at_threshold fast path; θ+traffic re-derives
        // the conflict graph from the patched profile.
        let theta_only = WorkloadDelta {
            threshold: Some(0.35),
            ..WorkloadDelta::default()
        };
        assert_reanalyze_matches(&DesignParams::default(), &theta_only);
        let both = WorkloadDelta {
            threshold: Some(0.05),
            ..edit_delta()
        };
        assert_reanalyze_matches(&DesignParams::default(), &both);
    }

    #[test]
    fn reanalyze_matches_from_scratch_under_adaptive_windows() {
        // Adaptive plans re-derive their boundaries from the trace, so
        // this exercises the documented full-re-analysis fallback.
        let params = DesignParams::default().with_adaptive_windows(2_000, 0.02);
        assert_reanalyze_matches(&params, &edit_delta());
    }

    #[test]
    fn reanalyze_rejects_invalid_deltas() {
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let delta = WorkloadDelta {
            removed: vec![TargetId::new(999)],
            ..WorkloadDelta::default()
        };
        assert!(analyzed.reanalyze(&delta).is_err());
        let bad_theta = WorkloadDelta {
            threshold: Some(-0.5),
            ..WorkloadDelta::default()
        };
        assert!(analyzed.reanalyze(&bad_theta).is_err());
    }

    #[test]
    fn reanalyzed_artifact_synthesizes_like_scratch() {
        // The downstream phase-3 outcome agrees too: same bus counts and
        // probe logs either route.
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let delta = edit_delta();
        let incremental = analyzed.reanalyze(&delta).expect("valid delta");
        let scratch_collected = collected.apply_delta(&delta).expect("valid delta");
        let scratch = scratch_collected.analyze(&params);
        let s_inc = incremental.synthesize(&Exact::default()).expect("ok");
        let s_scr = scratch.synthesize(&Exact::default()).expect("ok");
        assert_eq!(s_inc.it.num_buses, s_scr.it.num_buses);
        assert_eq!(s_inc.ti.num_buses, s_scr.ti.num_buses);
        assert_eq!(s_inc.it.probes, s_scr.it.probes);
        assert_eq!(s_inc.ti.probes, s_scr.ti.probes);
        assert_eq!(s_inc.it.config.assignment(), s_scr.it.config.assignment());
    }

    #[test]
    fn staged_pipeline_reuses_collection() {
        // Phase-1-once is structural here — `Pipeline::collect` is called
        // once and every sweep point analyses the same artifact. (The
        // global `phase1::collect_runs()` counter is not asserted in unit
        // tests: sibling tests collect concurrently, so deltas race. The
        // single-threaded `variable_windows` bench bin asserts it.)
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let mut buses = Vec::new();
        for ws in [500u64, 1_000, 2_000] {
            let params = base.clone().with_window_size(ws);
            assert!(collected.is_compatible(&params));
            let analyzed = collected.analyze(&params);
            let synthesized = analyzed
                .synthesize(&Exact::default())
                .expect("within limits");
            buses.push(synthesized.total_buses());
        }
        // Smaller windows never shrink the crossbar.
        assert!(buses[0] >= buses[1] && buses[1] >= buses[2]);
    }

    #[test]
    fn threshold_sweep_reuses_window_analysis() {
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let thresholds = [0.05, 0.15, 0.25, 0.40];

        // Route 1: fresh analysis per point (the pre-PR sweep cost).
        // Route 2: one artifact, O(pairs) re-threshold per point.
        // Route 3: re-threshold from an existing Analyzed.
        let swept = collected.analyze_sweep(&base, &thresholds);
        let first = collected.analyze(&base.clone().with_overlap_threshold(thresholds[0]));
        assert_eq!(swept.len(), thresholds.len());
        for (&theta, incremental) in thresholds.iter().zip(&swept) {
            let params = base.clone().with_overlap_threshold(theta);
            let fresh = collected.analyze(&params);
            let hopped = first.at_threshold(theta);
            for (label, a) in [("sweep", incremental), ("hop", &hopped)] {
                assert_eq!(
                    a.pre_it().conflicts,
                    fresh.pre_it().conflicts,
                    "{label} IT conflicts at θ={theta}"
                );
                assert_eq!(a.pre_ti().conflicts, fresh.pre_ti().conflicts);
                assert_eq!(a.pre_it().stats, fresh.pre_it().stats);
                assert_eq!(a.params().overlap_threshold, theta);
            }
            // And the synthesis downstream agrees bit for bit.
            let s_fresh = fresh.synthesize(&Exact::default()).expect("ok");
            let s_sweep = incremental.synthesize(&Exact::default()).expect("ok");
            assert_eq!(
                s_fresh.it.config.assignment(),
                s_sweep.it.config.assignment()
            );
            assert_eq!(s_fresh.it.probes, s_sweep.it.probes);
        }
    }

    #[test]
    fn fingerprints_track_key_equality() {
        let base = DesignParams::default();
        let variants = [
            base.clone(),
            base.clone().with_response_scale(0.5),
            base.clone().with_max_outstanding(2),
            base.clone().with_window_size(500),
            base.clone().with_adaptive_windows(4_000, 0.05),
        ];
        for a in &variants {
            for b in &variants {
                assert_eq!(
                    CollectionKey::of(a) == CollectionKey::of(b),
                    CollectionKey::of(a).fingerprint() == CollectionKey::of(b).fingerprint(),
                    "collection fingerprint must mirror key equality"
                );
                assert_eq!(
                    AnalysisKey::of(a) == AnalysisKey::of(b),
                    AnalysisKey::of(a).fingerprint() == AnalysisKey::of(b).fingerprint(),
                    "analysis fingerprint must mirror key equality"
                );
            }
        }
    }

    #[test]
    fn cached_traffic_round_trips_through_from_cached() {
        let app = workloads::matrix::mat2(42);
        let params = DesignParams::default();
        let fresh = Pipeline::collect(&app, &params);
        let analyzed = fresh.analyze(&params);
        let direct = analyzed.synthesize(&Exact::default()).expect("ok");

        // A cache stores the owned traffic; a later request rebuilds the
        // artifact and must land on bit-identical results.
        let stored = fresh.clone().into_traffic();
        let rebuilt = Collected::from_cached(&app, &params, stored);
        assert_eq!(rebuilt.key(), fresh.key());
        let rebuilt_analyzed = rebuilt.analyze(&params);
        let via_cache = rebuilt_analyzed.synthesize(&Exact::default()).expect("ok");
        assert_eq!(direct.it.probes, via_cache.it.probes);
        assert_eq!(direct.it.binding, via_cache.it.binding);
        assert_eq!(direct.ti.binding, via_cache.ti.binding);
    }

    #[test]
    #[should_panic(expected = "different collection or window plan")]
    fn artifact_window_mismatch_rejected() {
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let artifact = collected.analysis_artifact(&base);
        let other = base.with_window_size(500);
        let _ = collected.analyze_with(&artifact, &other);
    }

    #[test]
    #[should_panic(expected = "collect again")]
    fn incompatible_params_rejected() {
        let app = workloads::matrix::mat2(42);
        let base = DesignParams::default();
        let collected = Pipeline::collect(&app, &base);
        let other = base.with_response_scale(0.5);
        let _ = collected.analyze(&other);
    }

    #[test]
    fn baseline_selection_controls_simulation() {
        let app = workloads::qsort::qsort(44);
        let params = DesignParams::default();
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let synthesized = analyzed.synthesize(&Heuristic::default()).expect("ok");

        let lean = synthesized.validate(&BaselineSet::none()).expect("ok");
        assert!(lean.baselines.is_empty());

        let rich = synthesized
            .validate(&BaselineSet::all().with_random(3))
            .expect("ok");
        assert!(rich.baseline("full").is_some());
        assert!(rich.baseline("shared").is_some());
        assert!(rich.baseline("avg-based").is_some());
        assert!(rich.baseline("peak-based").is_some());
        // The random seed may or may not be feasible; if present it is
        // labelled by seed.
        for b in &rich.baselines {
            assert!(["full", "shared", "avg-based", "peak-based", "random-3"]
                .contains(&b.label.as_str()));
        }
    }

    /// Phase 4 runs its jobs at the executor's width; every width gives
    /// the same evaluation, and the same error when a baseline search
    /// runs out of budget (at 5 nodes avg-flow and peak fail, at 20 only
    /// the random baseline does).
    #[test]
    fn validation_is_the_same_at_every_width() {
        let app = workloads::matrix::mat1(42);
        let base = DesignParams::default().with_overlap_threshold(0.15);
        let collected = Pipeline::collect(&app, &base);
        for max_nodes in [5, 20, base.solve_limits.max_nodes] {
            let mut params = base.clone();
            params.solve_limits.max_nodes = max_nodes;
            let analyzed = collected.analyze(&params);
            let synthesized = analyzed
                .synthesize(&Exact::with_limits(base.solve_limits.clone()))
                .expect("in budget");
            for baselines in [BaselineSet::all(), BaselineSet::all().with_random(3)] {
                let one = synthesized.validate_on(&baselines, 1);
                let two = synthesized.validate_on(&baselines, 2);
                match (one, two) {
                    (Ok(a), Ok(b)) => {
                        let a: Vec<_> = std::iter::once(a.designed).chain(a.baselines).collect();
                        let b: Vec<_> = std::iter::once(b.designed).chain(b.baselines).collect();
                        assert_eq!(a.len(), b.len());
                        for (x, y) in a.iter().zip(&b) {
                            assert_eq!(x.label, y.label);
                            assert_eq!(x.it_config, y.it_config);
                            assert_eq!(x.validation.it_report, y.validation.it_report);
                            assert_eq!(x.validation.ti_report, y.validation.ti_report);
                            assert_eq!(x.avg_latency.to_bits(), y.avg_latency.to_bits());
                        }
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "max_nodes {max_nodes}"),
                    (a, b) => panic!(
                        "widths disagree at max_nodes {max_nodes}: {:?} vs {:?}",
                        a.err(),
                        b.err()
                    ),
                }
            }
        }
    }

    #[test]
    fn report_round_trip_matches_baselines() {
        let app = workloads::fft::fft(7);
        let params = DesignParams::default().with_overlap_threshold(0.5);
        let report = Pipeline::collect(&app, &params)
            .analyze(&params)
            .synthesize(&Exact::default())
            .expect("ok")
            .report()
            .expect("ok");
        assert_eq!(report.full.label, "full");
        assert_eq!(report.shared.label, "shared");
        assert_eq!(report.avg_based.label, "avg-based");
        assert!(report.component_saving() >= 1.0);
    }
}
