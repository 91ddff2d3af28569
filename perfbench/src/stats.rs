//! Summary statistics, the metric record every workload reports, and the
//! process-level measurements (peak RSS).

use std::time::Instant;

/// Which clock a number was read from. Every metric names one, because
/// the two disagree by orders of magnitude: the simulator runs 4-100x
/// slower than the device time it models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time (`std::time::Instant`): what a caller waits for.
    Wall,
    /// The simulator's modeled device (or modeled serial-CPU) time:
    /// deterministic for a given seed.
    Modeled,
    /// A count, ratio or size that is read from no clock.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Modeled => "modeled",
            Clock::None => "-",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: Clock,
    pub value: f64,
}

/// The metrics of one workload run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, clock: Clock, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            clock,
            value,
        });
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile, capped at p99,
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported (99 when `samples >= 1000`).
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let index = p99.min(n.saturating_sub(11));
    Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Geometric mean of positive values (0 for an empty input).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times and returns the median duration with the
/// last result: set-up is measured several times per run because one
/// sample of a millisecond-scale step is mostly scheduler noise.
pub fn timed_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut durations = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // Drop the previous result first so its teardown is not timed.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        durations.push(secs(t));
    }
    (median(&durations), last.expect("at least one set-up"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).value, 1980.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
