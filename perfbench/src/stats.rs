//! Honest summary statistics: percentiles that say how many samples back
//! them, geometric means that name their base, and failure accounting in
//! which a failed attempt is a missing latency rather than a skipped one.

use std::fmt;

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Why an attempt did not produce a usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The solver exhausted its node budget.
    SolverLimit,
    /// The gateway refused admission (`429`) or was shutting down (`503`).
    Refused(u16),
    /// Any other non-200 status.
    Status(u16),
    /// No response: the connection failed, or the request was never sent
    /// because an earlier request of its chain failed.
    NoResponse(String),
    /// The output check rejected the result.
    Mismatch(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::SolverLimit => write!(f, "solver limit"),
            Failure::Refused(code) => write!(f, "refused with {code}"),
            Failure::Status(code) => write!(f, "status {code}"),
            Failure::NoResponse(why) => write!(f, "no response: {why}"),
            Failure::Mismatch(what) => write!(f, "output check: {what}"),
        }
    }
}

impl Failure {
    /// Classifies a non-200 HTTP status.
    #[must_use]
    pub fn from_status(status: u16) -> Self {
        match status {
            429 | 503 => Failure::Refused(status),
            other => Failure::Status(other),
        }
    }
}

/// A percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value, in the unit the samples were recorded in.
    pub value: f64,
    /// Attempts the percentile was taken over (failures included).
    pub samples: usize,
    /// Attempts strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Latencies of every attempt of one kind; failures are kept as
/// missing latencies (they sort after every success).
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ok: Vec<f64>,
    failures: Vec<Failure>,
}

impl Latencies {
    /// Records a successful attempt.
    pub fn record(&mut self, latency: f64) {
        self.ok.push(latency);
    }

    /// Records a failed attempt: counted, and missing any latency limit.
    pub fn fail(&mut self, failure: Failure) {
        self.failures.push(failure);
    }

    /// Attempts recorded.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.ok.len() + self.failures.len()
    }

    /// Failed attempts.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    /// The recorded failures, in order.
    #[must_use]
    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// Successful latencies, in recording order.
    #[must_use]
    pub fn successes(&self) -> &[f64] {
        &self.ok
    }

    /// Nearest-rank percentile `p` (0 < p < 100) over every attempt.
    ///
    /// # Errors
    ///
    /// When fewer than [`MIN_BEYOND`] attempts lie beyond the rank, or
    /// when the rank falls on a failed attempt (its latency is missing).
    pub fn percentile(&self, p: f64) -> Result<Percentile, String> {
        assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
        let samples = self.attempted();
        let rank = ((p / 100.0) * samples as f64).ceil().max(1.0) as usize;
        let beyond = samples.saturating_sub(rank);
        if samples == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "p{p} needs at least {MIN_BEYOND} samples beyond it; {samples} samples leave {beyond}"
            ));
        }
        if rank > self.ok.len() {
            return Err(format!(
                "p{p} falls on a failed attempt ({} of {samples} failed)",
                self.failed()
            ));
        }
        let mut sorted = self.ok.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(Percentile {
            value: sorted[rank - 1],
            samples,
            beyond,
        })
    }

    /// Share of attempts that failed (0 when nothing was attempted).
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted() == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted() as f64
        }
    }
}

/// Geometric mean of per-item ratios `numerator ÷ base`, which states
/// both sides of the ratio it averages.
#[derive(Debug, Clone)]
pub struct RatioMean {
    numerator: &'static str,
    base: &'static str,
    log_sum: f64,
    count: usize,
}

impl RatioMean {
    /// An empty mean of `numerator ÷ base`.
    #[must_use]
    pub fn new(numerator: &'static str, base: &'static str) -> Self {
        Self {
            numerator,
            base,
            log_sum: 0.0,
            count: 0,
        }
    }

    /// Adds one item's ratio.
    ///
    /// # Panics
    ///
    /// When either side is not finite and positive.
    pub fn add(&mut self, numerator: f64, base: f64) {
        assert!(
            numerator.is_finite() && numerator > 0.0 && base.is_finite() && base > 0.0,
            "ratio {} ÷ {} needs finite positive sides, got {numerator} ÷ {base}",
            self.numerator,
            self.base
        );
        self.log_sum += (numerator / base).ln();
        self.count += 1;
    }

    /// The geometric mean, or `None` before any item was added.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        (self.count > 0).then(|| (self.log_sum / self.count as f64).exp())
    }

    /// One-line statement of what the mean is taken over.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "geometric mean over {} items of {} ÷ {} (base: {})",
            self.count, self.numerator, self.base, self.base
        )
    }
}

/// Median of a non-empty list.
///
/// # Panics
///
/// When `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Latencies {
        let mut l = Latencies::default();
        for i in 1..=n {
            l.record(i as f64);
        }
        l
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples: rank 90, exactly 10 beyond.
        let p = ramp(100).percentile(90.0).expect("10 beyond");
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
        // 99 samples leave only 9 beyond rank 90.
        assert!(ramp(99).percentile(90.0).is_err());
        // p50 of 20 samples has 10 beyond; of 19, only 9.
        assert_eq!(ramp(20).percentile(50.0).unwrap().beyond, 10);
        assert!(ramp(19).percentile(50.0).is_err());
        assert!(Latencies::default().percentile(50.0).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_free() {
        let mut l = Latencies::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0].repeat(10) {
            l.record(v);
        }
        let p = l.percentile(50.0).unwrap();
        assert_eq!(p.value, 3.0);
        assert_eq!(p.samples, 50);
        assert_eq!(p.beyond, 25);
    }

    #[test]
    fn failures_count_as_missing_latency() {
        let mut l = ramp(100);
        for failure in [
            Failure::from_status(429),
            Failure::from_status(503),
            Failure::from_status(500),
            Failure::Mismatch("buses".into()),
            Failure::SolverLimit,
        ] {
            l.fail(failure);
        }
        assert_eq!(l.attempted(), 105);
        assert_eq!(l.failed(), 5);
        assert!((l.failed_share() - 5.0 / 105.0).abs() < 1e-12);
        assert_eq!(l.failures()[0], Failure::Refused(429));
        assert_eq!(l.failures()[1], Failure::Refused(503));
        assert_eq!(l.failures()[2], Failure::Status(500));
        // The failures sit beyond every success, so p50 moves up: rank
        // ceil(52.5) = 53 over 105 attempts instead of 50 over 100.
        let p50 = l.percentile(50.0).unwrap();
        assert_eq!(p50.value, 53.0);
        assert_eq!(p50.samples, 105);
        // A percentile whose rank lands on a failure has no latency.
        let mut mostly_failed = ramp(20);
        for _ in 0..80 {
            mostly_failed.fail(Failure::Refused(429));
        }
        let err = mostly_failed.percentile(50.0).unwrap_err();
        assert!(err.contains("failed attempt"), "{err}");
    }

    #[test]
    fn geometric_mean_states_its_base() {
        let mut g = RatioMean::new("full-crossbar buses", "designed buses");
        assert_eq!(g.value(), None);
        g.add(2.0, 1.0);
        g.add(32.0, 4.0);
        assert!((g.value().unwrap() - 4.0).abs() < 1e-12);
        let text = g.describe();
        assert!(
            text.contains("full-crossbar buses ÷ designed buses"),
            "{text}"
        );
        assert!(text.contains("base: designed buses"), "{text}");
        assert!(text.contains("2 items"), "{text}");
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn geometric_mean_rejects_zero_base() {
        RatioMean::new("a", "b").add(1.0, 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
