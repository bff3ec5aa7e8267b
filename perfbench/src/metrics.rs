//! Every metric the benchmark can print, with its unit, and the one
//! result line it prints. `BENCHMARK.json` lists exactly these names
//! (the crate's own test pins that), and [`Report`] refuses a name that
//! is not registered here.

use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
/// The p90 latencies are per-layer: on `serve-cold` they moved by
/// 0.24–0.75 of their median (quartile distance) between runs, more than
/// any bound the benchmark may set. Checks that queue behind an
/// `outcomes` job on their shard form a slow mode near the p90.
pub const END_TO_END: &[(&str, &str)] = &[
    ("check_p50_ms", "ms"),
    ("outcomes_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("walk_x86_s", "s"),
    ("walk_power_s", "s"),
    ("synth_x86_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The ten registered native models; their `.cat` twins carry the same
/// name plus `.cat`.
pub const MODELS: [&str; 10] = [
    "SC", "TSC", "x86", "x86-tm", "power", "power-tm", "armv8", "armv8-tm", "cpp", "cpp-tm",
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // txmm::daemon, txmm::protocol
    ("check_p90_ms", "ms"),
    ("outcomes_p90_ms", "ms"),
    ("daemon.pool_us", "us"),
    ("daemon.transport_us", "us"),
    ("daemon.shard_max_share", "ratio"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("serve.check_p99_ms", "ms"),
    ("serve.check_samples", "count"),
    ("serve.outcomes_p99_ms", "ms"),
    ("serve.outcomes_samples", "count"),
    ("error_rate", "ratio"),
    // txmm::session caches
    ("session.verdict_hit_ratio", "ratio"),
    ("session.observe_hit_ratio", "ratio"),
    ("session.outcome_hit_ratio", "ratio"),
    ("session.interned", "count"),
    ("cat.compile_misses", "count"),
    ("cat.compile_ms", "ms"),
    // txmm-litmus
    ("litmus.parse_us", "us"),
    ("litmus.convert_us", "us"),
    ("litmus.empty_test.x86", "count"),
    ("litmus.empty_test.power", "count"),
    ("litmus.empty_test.armv8", "count"),
    ("outcomes.table_ms", "ms"),
    ("outcomes.candidates", "count"),
    ("outcomes.classes", "count"),
    // txmm-models
    ("models.SC.check_us", "us"),
    ("models.TSC.check_us", "us"),
    ("models.x86.check_us", "us"),
    ("models.x86-tm.check_us", "us"),
    ("models.power.check_us", "us"),
    ("models.power-tm.check_us", "us"),
    ("models.armv8.check_us", "us"),
    ("models.armv8-tm.check_us", "us"),
    ("models.cpp.check_us", "us"),
    ("models.cpp-tm.check_us", "us"),
    // txmm-cat VM
    ("cat.SC.check_us", "us"),
    ("cat.TSC.check_us", "us"),
    ("cat.x86.check_us", "us"),
    ("cat.x86-tm.check_us", "us"),
    ("cat.power.check_us", "us"),
    ("cat.power-tm.check_us", "us"),
    ("cat.armv8.check_us", "us"),
    ("cat.armv8-tm.check_us", "us"),
    ("cat.cpp.check_us", "us"),
    ("cat.cpp-tm.check_us", "us"),
    // txmm-hwsim
    ("hwsim.observe_us", "us"),
    ("hwsim.sweep_observe_s", "s"),
    // txmm-core kernels
    ("core.canon_us", "us"),
    ("core.analysis_us", "us"),
    ("core.rel.plus_ns", "ns"),
    ("core.rel.seq_ns", "ns"),
    ("core.rel.acyclic_ns", "ns"),
    // txmm-core::incr + prune oracles
    ("walk.x86.oracle_s", "s"),
    ("walk.x86.delta_answers", "count"),
    ("walk.x86.fallbacks", "count"),
    ("walk.x86.delta_share", "ratio"),
    ("walk.x86.subtrees_cut", "count"),
    ("walk.x86.candidates_skipped", "count"),
    ("walk.x86.leaf_s", "s"),
    ("walk.x86.par_efficiency", "ratio"),
    ("walk.power.oracle_s", "s"),
    ("walk.power.delta_answers", "count"),
    ("walk.power.fallbacks", "count"),
    ("walk.power.delta_share", "ratio"),
    ("walk.power.subtrees_cut", "count"),
    ("walk.power.candidates_skipped", "count"),
    ("walk.power.leaf_s", "s"),
    ("walk.power.par_efficiency", "ratio"),
    // txmm-synth enumerate + steal
    ("synth.enumerate_s", "s"),
    ("steal.jobs", "count"),
    ("steal.steals", "count"),
    ("steal.busy_share", "ratio"),
    // txmm-synth::suites
    ("synth.suite_s", "s"),
    ("synth.forbid", "count"),
    ("synth.allow", "count"),
    // the traced run's own accounting
    ("trace.total_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.requests", "count"),
];

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One run's outcome: operation counts, answer checks and metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and failures other than the known render/parse
    /// defect; any of them makes the run incorrect.
    pub unexpected: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record a metric; the name must be registered above.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(key, value);
    }

    /// The result line: every end-to-end metric, or with `trace` every
    /// per-layer metric, each with its unit.
    pub fn line(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.unexpected == 0,
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_known() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for m in MODELS {
            assert!(names.contains(&format!("models.{m}.check_us").as_str()));
            assert!(names.contains(&format!("cat.{m}.check_us").as_str()));
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
