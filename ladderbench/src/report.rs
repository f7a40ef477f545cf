//! What one workload run produces, and how it is summarised.

use crate::stats;
use std::time::{Duration, Instant};

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Collects metrics in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Fresh set-ups, and measured sub-windows, per untraced run: each
/// sub-window starts from its own timed set-up, so set-up is sampled
/// across the run rather than only at its start.
pub const BATCHES: u32 = 10;
/// The percentile of the fast end that `ref_ratio` compares.
pub const LOW_PCT: f64 = 10.0;

/// The end-to-end figures every workload reports. Both ratios divide
/// the workload's operation times by a reference timed in the same
/// sub-windows, interleaved with them, on work the toolchain does not
/// do: a change in the toolchain moves them, while a change in the
/// host's speed moves both sides and cancels.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median time of the run's fresh set-ups, seconds.
    pub setup_s: f64,
    /// Operation time over reference time at the fast end.
    pub ref_ratio: f64,
    /// Operation time over reference time at [`EndToEnd::tail_pct`]:
    /// of each kind's repeated samples, or, on `compile`, of the
    /// programs in the corpus.
    pub tail_ratio: f64,
    /// The percentile `tail_ratio` compares.
    pub tail_pct: f64,
}

impl EndToEnd {
    /// The values in `BENCHMARK.json` order, with units.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("setup_s", self.setup_s, "s");
        m.push("ref_ratio", self.ref_ratio, "x");
        m.push("tail_ratio", self.tail_ratio, "x");
        m
    }
}

/// One workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (error replies, client errors).
    pub failed: u64,
    /// Correctness-gate violations; any entry fails the run.
    pub gate_errors: Vec<String>,
    /// The workload's own figures under the names the README uses
    /// (`suite_cpu_ms`, `serve_p99_us`, ...), printed for people.
    pub named: Metrics,
    /// Per-layer metrics (traced passes only).
    pub layers: Metrics,
}

impl Run {
    /// Records a gate violation (keeps the first few in full).
    pub fn gate(&mut self, msg: String) {
        if self.gate_errors.len() < 20 {
            self.gate_errors.push(msg);
        }
    }
}

/// Latency samples of one operation kind, in milliseconds. A failed
/// operation is `f64::INFINITY`, so it ranks above every percentile.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Median in ms.
    pub fn median(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// Latency figures over several kinds of operation of different cost,
/// each the geometric mean over kinds of one percentile per kind, so
/// every kind weighs the same however slow it is.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Kinds' medians.
    pub p50_ms: f64,
    /// Kinds' `tail_pct` percentiles.
    pub tail_ms: f64,
    /// `max_pct`, unless that leaves fewer than ten samples beyond it
    /// over all kinds; then the highest lower percentile that does.
    pub tail_pct: f64,
}

/// Summarises `kinds`; with a single kind these are the plain
/// percentiles.
pub fn summarize(kinds: &[&Samples], max_pct: f64) -> Summary {
    let sorted: Vec<Vec<f64>> = kinds.iter().map(|k| stats::sorted(&k.0)).collect();
    let geo = |pct: f64| {
        stats::geomean(
            &sorted
                .iter()
                .map(|s| stats::percentile(s, pct))
                .collect::<Vec<_>>(),
        )
    };
    let beyond = |pct: f64| {
        sorted
            .iter()
            .map(|s| stats::samples_beyond(s.len(), pct))
            .sum::<usize>()
    };
    let tail_pct = [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .filter(|p| *p <= max_pct)
        .find(|p| beyond(*p) >= 10)
        .unwrap_or(50.0);
    Summary {
        p50_ms: geo(50.0),
        tail_ms: geo(tail_pct),
        tail_pct,
    }
}

/// Geometric mean over `(operation, reference)` pairs of the ratio of
/// their `pct`-th percentiles.
pub fn ratio_at(pairs: &[(&Samples, &Samples)], pct: f64) -> f64 {
    let at = |s: &Samples| stats::percentile(&stats::sorted(&s.0), pct);
    stats::geomean(&pairs.iter().map(|(op, r)| at(op) / at(r)).collect::<Vec<_>>())
}

/// Wall-clock budget of a measured window.
pub struct Budget {
    start: Instant,
    length: Duration,
}

impl Budget {
    /// Starts a window of `length`.
    pub fn start(length: Duration) -> Budget {
        Budget {
            start: Instant::now(),
            length,
        }
    }

    /// True once the window has elapsed.
    pub fn spent(&self) -> bool {
        self.start.elapsed() >= self.length
    }

    /// Seconds since the window started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_kind_summary_is_plain_percentiles() {
        let s = Samples((1..=100).map(f64::from).collect());
        let sum = summarize(&[&s], 99.0);
        assert!((sum.p50_ms - 50.0).abs() < 1e-9, "{sum:?}");
        assert!((sum.tail_ms - 90.0).abs() < 1e-9, "{sum:?}");
        assert_eq!(sum.tail_pct, 90.0, "100 samples leave ten beyond p90, not p99");
    }

    #[test]
    fn kinds_are_weighted_equally() {
        let fast = Samples(vec![1.0, 1.0, 1.0]);
        let slow = Samples(vec![100.0, 100.0, 200.0]);
        let many = |v: &[f64]| Samples(v.iter().cycle().take(3000).copied().collect());
        let (fast, slow) = (many(&fast.0), many(&slow.0));
        let sum = summarize(&[&fast, &slow], 99.0);
        assert!((sum.p50_ms - 10.0).abs() < 1e-9);
        assert!((sum.tail_ms - (200.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(sum.tail_pct, 99.0);
        assert!((ratio_at(&[(&slow, &fast)], LOW_PCT) - 100.0).abs() < 1e-9);
        assert!((ratio_at(&[(&slow, &fast), (&fast, &fast)], 99.0) - 200f64.sqrt()).abs() < 1e-9);
    }
}
