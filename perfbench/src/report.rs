//! What a workload run hands back, and how it is printed.

use crate::stats::{Failure, Latencies, RatioMean};
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Sample count, base or definition, printed beside the value.
    pub note: String,
}

/// Result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Attempts (designs or requests) in the measured part.
    pub attempted: usize,
    /// Failed attempts among them.
    pub failed: usize,
    /// Failed attempts whose output check rejected the result.
    pub incorrect: usize,
    /// Wall time of the measured part (seconds).
    pub wall_s: f64,
    /// End-to-end metrics, including ones only this workload has.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Values that must repeat exactly between runs of one seed.
    pub deterministic: Vec<(String, String)>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.layers.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        });
    }

    /// Records a value that must repeat exactly for the same seed.
    pub fn pin(&mut self, name: &str, value: impl ToString) {
        self.deterministic
            .push((name.to_string(), value.to_string()));
    }

    /// Adds the metrics every workload shares: set-up, throughput, p50,
    /// p90 and failed share.
    ///
    /// # Errors
    ///
    /// When a percentile lacks the samples beyond it or falls on a
    /// failed attempt.
    pub fn common(
        &mut self,
        setup_s: &[f64],
        latencies: &Latencies,
        wall_s: f64,
        per: &str,
    ) -> Result<(), String> {
        self.attempted = latencies.attempted();
        self.failed = latencies.failed();
        self.incorrect = latencies
            .failures()
            .iter()
            .filter(|f| matches!(f, Failure::Mismatch(_)))
            .count();
        self.wall_s = wall_s;
        self.e2e(
            "setup_s",
            "s",
            crate::stats::median(setup_s),
            format!("median of {} set-ups", setup_s.len()),
        );
        let done = latencies.attempted() - latencies.failed();
        self.e2e(
            "throughput_per_s",
            "1/s",
            done as f64 / wall_s,
            format!("{done} {per} in {wall_s:.3} s"),
        );
        for (name, p) in [("latency_ms_p50", 50.0), ("latency_ms_p90", 90.0)] {
            let pct = latencies.percentile(p)?;
            self.e2e(
                name,
                "ms",
                pct.value,
                format!("{} samples, {} beyond", pct.samples, pct.beyond),
            );
        }
        self.e2e(
            "failed_share",
            "share",
            latencies.failed_share(),
            match latencies.failures().first() {
                None => format!("0 of {} failed", latencies.attempted()),
                Some(first) => format!(
                    "{} of {} failed; first: {first}",
                    latencies.failed(),
                    latencies.attempted()
                ),
            },
        );
        Ok(())
    }

    /// Adds a geometric-mean ratio metric and pins it.
    pub fn ratio(&mut self, name: &str, mean: &RatioMean) {
        let value = mean.value().unwrap_or(f64::NAN);
        self.e2e(name, "x", value, mean.describe());
        self.pin(name, format!("{value:.12}"));
    }

    /// Adds `exact_share` and pins it.
    pub fn exact_share(&mut self, exact: usize, total: usize) {
        let value = exact as f64 / total.max(1) as f64;
        self.e2e(
            "exact_share",
            "share",
            value,
            format!("{exact} of {total} with both directions exact"),
        );
        self.pin("exact_share", value);
    }

    /// Looks up a metric by name among both lists.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
    }

    /// Human-readable table, one `# `-prefixed line per metric.
    #[must_use]
    pub fn table(metrics: &[Metric]) -> String {
        let mut out = String::new();
        for m in metrics {
            let _ = writeln!(
                out,
                "# {:<34} {:>16} {:<6} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The result line: `correct`, `attempted`, `failed` and the named
/// metrics with all their digits.
///
/// # Errors
///
/// When a named metric is missing from the report or not finite.
pub fn result_line(report: &Report, names: &[&str], correct: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for name in names {
        let m = report
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {}", m.value));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.e2e("setup_s", "s", 0.5, "");
        r.e2e("other", "ms", 1.0, "");
        let line = result_line(&r, &["setup_s"], true).unwrap();
        let v = stbus_gateway::json::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(3));
        assert_eq!(v.get("failed").and_then(|a| a.as_u64()), Some(0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(|x| x.as_f64()),
            Some(0.5)
        );
        assert!(metrics.get("other").is_none());
        assert!(result_line(&r, &["missing"], true).is_err());
    }
}
