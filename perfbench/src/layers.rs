//! The traced run's per-layer metrics: the catalogue, and helpers that
//! time bulk calls and diff the program's own metric registry.
//!
//! Nothing here adds a timer inside the program. A layer is timed by
//! calling its public functions in bulk from the benchmark, and work is
//! counted by diffing `obs::metrics::snapshot()` around an op.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use hlpower_obs::hist::{bucket_high, bucket_low, HistSnapshot, BUCKETS};
use hlpower_obs::report::Snapshot;

use crate::stats::{median, Metric};

const SERVE_STAGES: [&str; 6] = ["parse", "cache", "queue", "pack", "sim", "finalize"];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not cross reports 0 there.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = [
        ("op_p50_ms", "ms"),
        ("op_tail_ms", "ms"),
        ("ops_per_s", "1/s"),
        ("host_probe_ms", "ms"),
        ("trace_overhead_frac", "frac"),
        ("netlist.ingest.parse_ms", "ms"),
        ("netlist.power.model_build_ms", "ms"),
        ("netlist.sim64.compile_ms", "ms"),
        ("netlist.streams.stimulus_ms", "ms"),
        ("netlist.simwide.settle_ns_per_gate_lane_cycle", "ns"),
        ("netlist.simwide.timed_settle_ns_per_gate_lane_cycle", "ns"),
        ("netlist.simwide.finalize_us", "us"),
        ("netlist.montecarlo.zero_delay_ms", "ms"),
        ("netlist.montecarlo.glitch_ms", "ms"),
        ("monte_carlo.batches", "count"),
        ("monte_carlo.waves", "count"),
        ("monte_carlo.discarded_batches", "count"),
        ("sim_packed.gate_evals", "count"),
        ("sim_ev_packed.events", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for stage in SERVE_STAGES {
        for q in ["p50", "p99"] {
            c.push((format!("serve_stage.{stage}_{q}_ms"), "ms"));
        }
    }
    for (n, u) in [
        ("serve.hit_p50_ms", "ms"),
        ("serve.miss_p50_ms", "ms"),
        ("serve.glitch_p50_ms", "ms"),
        ("serve.cache_hit_ratio", "frac"),
        ("serve.lanes_per_word", "count"),
        ("serve.copacked_frac", "frac"),
        ("serve.requests_err", "count"),
        ("serve.untimed_segment_frac", "frac"),
    ] {
        c.push((n.to_string(), u));
    }
    for (id, _) in crate::suite::DIGESTS {
        c.push((format!("repro.{id}_ms"), "ms"));
    }
    for (n, u) in [
        ("bdd.ite_calls", "count"),
        ("bdd.ite_cache_hit_ratio", "frac"),
        ("bdd.nodes_created", "count"),
        ("opt_search.candidates_evaluated", "count"),
        ("opt_search.resim_words", "count"),
        ("sim_incremental.cone_nodes", "count"),
    ] {
        c.push((n.to_string(), u));
    }
    c
}

/// Orders a workload's layer metrics by the catalogue, filling in 0 for
/// every layer the workload does not cross.
///
/// # Panics
///
/// Panics on a metric missing from the catalogue, or one whose unit
/// disagrees with it: both are benchmark bugs.
pub fn complete(measured: Vec<Metric>) -> Vec<Metric> {
    let cat = catalogue();
    for m in &measured {
        let entry = cat.iter().find(|(n, _)| *n == m.name);
        assert_eq!(entry.map(|e| e.1), Some(m.unit), "`{}` is not in the catalogue", m.name);
    }
    cat.into_iter()
        .map(|(name, unit)| {
            let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric { name, value, unit }
        })
        .collect()
}

/// Wall time of `f`, in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` values of `f`.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<f64>>())
}

/// Samples gathered over a traced phase, one per op, reported as
/// medians.
#[derive(Debug, Default)]
pub struct Phase {
    samples: BTreeMap<String, (Vec<f64>, &'static str)>,
}

impl Phase {
    /// Records one op's time for `name`, in milliseconds.
    pub fn time(&mut self, name: impl Into<String>, ms: f64) {
        self.push(name, ms, "ms");
    }

    /// Records one op's exact counts.
    pub fn counts(&mut self, counts: &[(&'static str, f64)]) {
        for &(name, n) in counts {
            self.push(name, n, "count");
        }
    }

    /// Records one op's value for `name` in `unit`.
    pub fn push(&mut self, name: impl Into<String>, v: f64, unit: &'static str) {
        self.samples.entry(name.into()).or_insert_with(|| (Vec::new(), unit)).0.push(v);
    }

    /// The median of every recorded series.
    pub fn into_metrics(self) -> Vec<Metric> {
        self.samples
            .into_iter()
            .map(|(name, (v, unit))| Metric::new(name, median(&v), unit))
            .collect()
    }
}

fn count(d: &Snapshot, section: &str, name: &str) -> f64 {
    d.count(section, name).expect("metric present in the registry") as f64
}

/// Exact Monte-Carlo and simulator work counts from one op's registry
/// delta.
pub fn per_op_counts(d: &Snapshot) -> Vec<(&'static str, f64)> {
    vec![
        ("monte_carlo.batches", count(d, "monte_carlo", "batches")),
        ("monte_carlo.waves", count(d, "monte_carlo", "waves")),
        ("monte_carlo.discarded_batches", count(d, "monte_carlo", "discarded_batches")),
        ("sim_packed.gate_evals", count(d, "sim_packed", "gate_evals")),
        ("sim_ev_packed.events", count(d, "sim_ev_packed", "events")),
    ]
}

/// BDD, optimizer-search and incremental-simulation work from one repro
/// pass's registry delta.
pub fn per_pass_counts(d: &Snapshot) -> Vec<Metric> {
    let calls = count(d, "bdd", "ite_calls");
    let hits = count(d, "bdd", "ite_cache_hits");
    vec![
        Metric::new("bdd.ite_calls", calls, "count"),
        Metric::new(
            "bdd.ite_cache_hit_ratio",
            if calls > 0.0 { hits / calls } else { 0.0 },
            "frac",
        ),
        Metric::new("bdd.nodes_created", count(d, "bdd", "nodes_created"), "count"),
        Metric::new(
            "opt_search.candidates_evaluated",
            count(d, "opt_search", "candidates_evaluated"),
            "count",
        ),
        Metric::new("opt_search.resim_words", count(d, "opt_search", "resim_words"), "count"),
        Metric::new(
            "sim_incremental.cone_nodes",
            count(d, "sim_incremental", "cone_nodes"),
            "count",
        ),
    ]
}

/// The values recorded into a histogram between two of its snapshots.
pub fn hist_delta(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let buckets: Vec<u64> =
        after.buckets.iter().zip(&before.buckets).map(|(a, b)| a.saturating_sub(*b)).collect();
    debug_assert_eq!(buckets.len(), BUCKETS);
    let lowest = buckets.iter().position(|&n| n > 0);
    let highest = buckets.iter().rposition(|&n| n > 0);
    HistSnapshot {
        count: buckets.iter().sum(),
        sum: after.sum.wrapping_sub(before.sum),
        // Bucket bounds stand in for the exact extremes of the window.
        min: lowest.map_or(0, bucket_low),
        max: highest.map_or(0, bucket_high),
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn catalogue_names_and_units_are_legal_and_unique() {
        let cat = catalogue();
        for (i, (name, unit)) in cat.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(cat[..i].iter().all(|(n, _)| n != name), "duplicate {name}");
        }
    }

    #[test]
    fn complete_fills_unmeasured_layers_with_zero() {
        let out = complete(vec![Metric::new("host_probe_ms", 2.0, "ms")]);
        assert_eq!(out.len(), catalogue().len());
        for m in out {
            assert_eq!(m.value, if m.name == "host_probe_ms" { 2.0 } else { 0.0 }, "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn complete_rejects_unknown_metrics() {
        complete(vec![Metric::new("no.such_ms", 1.0, "ms")]);
    }

    #[test]
    fn hist_delta_keeps_only_the_window() {
        let h = hlpower_obs::hist::Hist::new();
        h.record(5);
        let before = h.snapshot();
        for _ in 0..3 {
            h.record(1_000_000);
        }
        let d = hist_delta(&h.snapshot(), &before);
        assert_eq!(d.count, 3);
        assert_eq!(d.sum, 3_000_000);
        assert!(d.quantile(0.5) >= 1_000_000 && d.quantile(0.5) <= d.max);
    }
}
