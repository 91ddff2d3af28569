//! Always-on run metrics: cheap counters the engine maintains for every
//! run, independent of the opt-in per-iteration trace.
//!
//! Where the trace answers "what happened at iteration 17", [`Metrics`]
//! answers "how did this run spend its iterations" — per-variant
//! iteration counts, switch and inspector-census totals, and the
//! accounting identity `setup_ns + iter_ns_total + teardown_ns ==
//! total_ns` that the telemetry property tests pin down.

use agg_gpu_sim::json::Json;
use agg_kernels::Variant;

/// Counters accumulated by every run (no opt-in required). All time
/// figures are modeled simulator time, ns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Traversal iterations executed (same as `RunReport::iterations`).
    pub iterations: u32,
    /// Variant (or processor, for hybrid) switches.
    pub switches: u32,
    /// Working-set size census launches (bitmap count kernel).
    pub census_launches: u32,
    /// Degree census launches (working-set outdegree inspector).
    pub degree_census_launches: u32,
    /// Iterations executed on the host CPU (hybrid runs).
    pub host_iterations: u32,
    /// Bottom-up iterations (direction-optimized BFS).
    pub bottom_up_iterations: u32,
    /// Total modeled time across iterations, ns (sum of per-iteration
    /// time whether or not a trace was recorded).
    pub iter_ns_total: f64,
    /// Modeled time spent in the inspector (census kernels + their result
    /// reads), ns. Subset of `iter_ns_total`.
    pub inspector_ns_total: f64,
    /// Launches analyzed by the data-race detector during this run
    /// (0 unless the device was built with `DeviceConfig::race_detect`).
    pub race_launches_checked: u64,
    /// Words with benign races (deliberate same-value stores etc.) the
    /// detector saw during this run.
    pub race_benign_words: u64,
    /// Words with harmful races the detector saw during this run. The
    /// kernel suite is expected to keep this at 0.
    pub race_harmful_words: u64,
    by_variant: Vec<(Variant, u32)>,
}

impl Metrics {
    /// Records one completed iteration.
    pub(crate) fn record_iteration(&mut self, variant: Variant, iter_ns: f64) {
        self.iterations += 1;
        self.iter_ns_total += iter_ns;
        match self.by_variant.iter_mut().find(|(v, _)| *v == variant) {
            Some((_, count)) => *count += 1,
            None => self.by_variant.push((variant, 1)),
        }
    }

    /// Sums another run's counters into this one. Sessions aggregate the
    /// per-query metrics of a batch this way, so the batch-level identity
    /// `Σ per-query iter_ns_total == batch iter_ns_total` holds by
    /// construction.
    pub fn absorb(&mut self, other: &Metrics) {
        self.iterations += other.iterations;
        self.switches += other.switches;
        self.census_launches += other.census_launches;
        self.degree_census_launches += other.degree_census_launches;
        self.host_iterations += other.host_iterations;
        self.bottom_up_iterations += other.bottom_up_iterations;
        self.iter_ns_total += other.iter_ns_total;
        self.inspector_ns_total += other.inspector_ns_total;
        self.race_launches_checked += other.race_launches_checked;
        self.race_benign_words += other.race_benign_words;
        self.race_harmful_words += other.race_harmful_words;
        for (v, c) in &other.by_variant {
            match self.by_variant.iter_mut().find(|(w, _)| w == v) {
                Some((_, count)) => *count += c,
                None => self.by_variant.push((*v, *c)),
            }
        }
    }

    /// Iteration counts per variant, in first-use order.
    pub fn by_variant(&self) -> &[(Variant, u32)] {
        &self.by_variant
    }

    /// Iterations that ran a given variant.
    pub fn iterations_for(&self, variant: Variant) -> u32 {
        self.by_variant
            .iter()
            .find(|(v, _)| *v == variant)
            .map_or(0, |(_, c)| *c)
    }

    /// These metrics as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", self.iterations.into()),
            ("switches", self.switches.into()),
            ("census_launches", self.census_launches.into()),
            ("degree_census_launches", self.degree_census_launches.into()),
            ("host_iterations", self.host_iterations.into()),
            ("bottom_up_iterations", self.bottom_up_iterations.into()),
            ("iter_ns_total", self.iter_ns_total.into()),
            ("inspector_ns_total", self.inspector_ns_total.into()),
            ("race_launches_checked", self.race_launches_checked.into()),
            ("race_benign_words", self.race_benign_words.into()),
            ("race_harmful_words", self.race_harmful_words.into()),
            (
                "iterations_by_variant",
                Json::Obj(
                    self.by_variant
                        .iter()
                        .map(|(v, c)| (v.name().to_string(), Json::from(*c)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_kernels::Variant;

    #[test]
    fn per_variant_histogram_accumulates() {
        let mut m = Metrics::default();
        let a = Variant::parse("U_T_BM").unwrap();
        let b = Variant::parse("U_B_QU").unwrap();
        m.record_iteration(a, 10.0);
        m.record_iteration(b, 20.0);
        m.record_iteration(a, 5.0);
        assert_eq!(m.iterations, 3);
        assert_eq!(m.iterations_for(a), 2);
        assert_eq!(m.iterations_for(b), 1);
        assert_eq!(m.iterations_for(Variant::parse("O_T_QU").unwrap()), 0);
        assert!((m.iter_ns_total - 35.0).abs() < 1e-12);
        assert_eq!(m.by_variant().len(), 2);
    }

    #[test]
    fn absorb_sums_counters_and_merges_histograms() {
        let a_v = Variant::parse("U_T_BM").unwrap();
        let b_v = Variant::parse("U_B_QU").unwrap();
        let mut a = Metrics::default();
        a.record_iteration(a_v, 10.0);
        a.switches = 1;
        a.census_launches = 2;
        let mut b = Metrics::default();
        b.record_iteration(a_v, 5.0);
        b.record_iteration(b_v, 7.0);
        b.host_iterations = 1;
        b.inspector_ns_total = 3.0;
        a.absorb(&b);
        assert_eq!(a.iterations, 3);
        assert_eq!(a.switches, 1);
        assert_eq!(a.census_launches, 2);
        assert_eq!(a.host_iterations, 1);
        assert!((a.iter_ns_total - 22.0).abs() < 1e-12);
        assert!((a.inspector_ns_total - 3.0).abs() < 1e-12);
        assert_eq!(a.iterations_for(a_v), 2);
        assert_eq!(a.iterations_for(b_v), 1);
    }

    #[test]
    fn json_includes_histogram_keys() {
        let mut m = Metrics::default();
        m.record_iteration(Variant::parse("U_T_BM").unwrap(), 1.0);
        let s = m.to_json().render();
        assert!(s.contains("\"iterations\":1"), "{s}");
        assert!(s.contains("\"U_T_BM\":1"), "{s}");
    }
}
