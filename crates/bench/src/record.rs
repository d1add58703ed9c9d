//! The one measurement harness behind the throughput benches
//! (`benches/mc_throughput.rs`, `benches/opt_throughput.rs`) and the
//! effort level of [`crate::timing`].
//!
//! It owns, in one place:
//!
//! * the smoke/full decision ([`full_mode`], from `HLPOWER_BENCH_FULL`);
//! * the host description (cores and the SIMD level);
//! * an interleaved rep loop over named legs ([`measure`]), which keeps
//!   every wall time and reports its spread as [`Stats`];
//! * the 16-bit array-multiplier fixture ([`multiplier16`]);
//! * the `BENCH_*.json` writer ([`Record`]), which writes the file
//!   *before* its [`Gate`]s are asserted, so a failing run still leaves
//!   its artifact.
//!
//! Every gate compares the minimum over reps (the least noisy estimate
//! of a workload's cost on an otherwise idle host); median, max and MAD
//! are recorded next to it so a reader can judge the spread.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hlpower::netlist::{gen, simd_level, Netlist};

use crate::json;
use crate::report::Json;

/// Whether the benches run their full-length measurement
/// (`HLPOWER_BENCH_FULL` set to anything) instead of the quick smoke
/// workload.
pub fn full_mode() -> bool {
    std::env::var_os("HLPOWER_BENCH_FULL").is_some()
}

/// `"full"` or `"smoke"`, as recorded in every `BENCH_*.json`.
fn mode_name() -> &'static str {
    if full_mode() {
        "full"
    } else {
        "smoke"
    }
}

/// The host a measurement ran on: `{cores, simd_level}`.
fn host() -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    json!({ "cores": cores, "simd_level": format!("{:?}", simd_level()) })
}

/// The spread of one leg's wall times (seconds, or any unit the samples
/// share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub reps: usize,
    /// Smallest sample (the gated statistic).
    pub min: f64,
    /// Median sample (mean of the two middle ones for an even count).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Stats {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// On an empty slice.
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "Stats of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_of_sorted(&sorted);
        let mut deviations: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
        deviations.sort_by(f64::total_cmp);
        Stats {
            reps: sorted.len(),
            min: sorted[0],
            median,
            max: sorted[sorted.len() - 1],
            mad: median_of_sorted(&deviations),
        }
    }
}

fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// How many times faster `candidate` is than `baseline`, on the gated
/// statistic (minimum over reps).
pub fn min_speedup(baseline: &Stats, candidate: &Stats) -> f64 {
    baseline.min / candidate.min
}

/// One measured leg: its wall-time spread and the result of its last rep.
#[derive(Debug)]
pub struct Leg<R> {
    /// Leg name, as recorded.
    pub name: &'static str,
    /// Wall seconds over every rep.
    pub stats: Stats,
    /// What the leg's last rep returned.
    pub last: R,
}

impl<R> Leg<R> {
    /// The leg as recorded, doing `work` units per rep.
    pub fn with_work(&self, work: f64) -> LegRecord {
        LegRecord { name: self.name, stats: self.stats, work }
    }
}

/// Runs `reps` rounds, each timing `run(i)` once for every leg `i` of
/// `names` in order (interleaved, so a slow phase of the host spreads
/// over every leg instead of landing on one).
///
/// # Panics
///
/// If `reps` is zero or `names` is empty.
pub fn measure<R>(
    reps: usize,
    names: &[&'static str],
    mut run: impl FnMut(usize) -> R,
) -> Vec<Leg<R>> {
    assert!(reps > 0 && !names.is_empty(), "measure needs at least one rep and one leg");
    let mut seconds = vec![Vec::with_capacity(reps); names.len()];
    let mut last: Vec<Option<R>> = names.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (i, samples) in seconds.iter_mut().enumerate() {
            let t = Instant::now();
            let result = run(i);
            samples.push(t.elapsed().as_secs_f64());
            last[i] = Some(black_box(result));
        }
    }
    names
        .iter()
        .zip(seconds)
        .zip(last)
        .map(|((&name, samples), last)| Leg {
            name,
            stats: Stats::of(&samples),
            last: last.expect("reps >= 1"),
        })
        .collect()
}

/// The 16-bit array multiplier (2,816 gates, 32 inputs) the Monte-Carlo
/// throughput rows run on.
pub fn multiplier16() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", 16);
    let b = nl.input_bus("b", 16);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    nl
}

/// A threshold a measured value must clear.
#[derive(Debug)]
pub struct Gate {
    /// What is gated (e.g. `"packed64_speedup_vs_scalar"`).
    metric: &'static str,
    value: f64,
    threshold: f64,
    /// Whether `value == threshold` passes (`>=`) or fails (`>`).
    inclusive: bool,
}

impl Gate {
    /// Passes when `value > threshold`.
    pub fn above(metric: &'static str, value: f64, threshold: f64) -> Gate {
        Gate { metric, value, threshold, inclusive: false }
    }

    /// Passes when `value >= threshold`.
    pub fn at_least(metric: &'static str, value: f64, threshold: f64) -> Gate {
        Gate { metric, value, threshold, inclusive: true }
    }

    /// Whether the measured value clears the bound.
    pub fn passed(&self) -> bool {
        if self.inclusive {
            self.value >= self.threshold
        } else {
            self.value > self.threshold
        }
    }

    fn op(&self) -> &'static str {
        if self.inclusive {
            ">="
        } else {
            ">"
        }
    }

    fn to_json(&self) -> Json {
        json!({
            "metric": self.metric,
            "value": self.value,
            "op": self.op(),
            "threshold": self.threshold,
            "passed": self.passed(),
        })
    }
}

/// One leg as written: its spread and the work it does per rep (the
/// `rate_per_s` numerator).
#[derive(Debug)]
pub struct LegRecord {
    name: &'static str,
    stats: Stats,
    work: f64,
}

/// One `BENCH_*.json` file.
#[derive(Debug)]
pub struct Record {
    /// File stem and `id` field (e.g. `"BENCH_sim"`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Reps per leg.
    pub reps: usize,
    /// What was measured on.
    pub circuit: Json,
    /// Workload sizes and seeds.
    pub workload: Json,
    /// What one unit of a leg's `work` is (e.g. `"gate_evals"`).
    pub rate_unit: &'static str,
    /// The timed legs.
    pub legs: Vec<LegRecord>,
    /// The deterministic outcome every leg agreed on.
    pub result: Json,
    /// Whether every leg's result was checked identical to the bit.
    pub bit_identical: bool,
    /// The thresholds this run must clear.
    pub gates: Vec<Gate>,
}

impl Record {
    /// The envelope: `{id, title, mode, host, reps, circuit, workload,
    /// rate_unit, legs, result, bit_identical, gates}`.
    pub fn to_json(&self) -> Json {
        let legs: Vec<Json> = self
            .legs
            .iter()
            .map(|l| {
                json!({
                    "name": l.name,
                    "min_s": l.stats.min,
                    "median_s": l.stats.median,
                    "max_s": l.stats.max,
                    "mad_s": l.stats.mad,
                    "rate_per_s": l.work / l.stats.min,
                })
            })
            .collect();
        json!({
            "id": self.id,
            "title": self.title,
            "mode": mode_name(),
            "host": host(),
            "reps": self.reps,
            "circuit": self.circuit.clone(),
            "workload": self.workload.clone(),
            "rate_unit": self.rate_unit,
            "legs": legs,
            "result": self.result.clone(),
            "bit_identical": self.bit_identical,
            "gates": self.gates.iter().map(Gate::to_json).collect::<Vec<_>>(),
        })
    }

    /// [`Record::write_to`] the workspace-root `results/<id>.json`.
    pub fn write(&self) -> Vec<String> {
        self.write_to(&results_dir().join(format!("{}.json", self.id)))
    }

    /// Prints the legs and gates, writes the envelope to `path` (a write
    /// failure is a warning, not a gate), and returns one line per failed
    /// gate — empty when every gate passed.
    pub fn write_to(&self, path: &Path) -> Vec<String> {
        println!("{} ({} mode, {} reps): {}", self.id, mode_name(), self.reps, self.title);
        for l in &self.legs {
            println!(
                "  {:<20} min {:>10.2} ms  median {:>10.2} ms  mad {:>8.2} ms  {:>10.3e} {}/s",
                l.name,
                l.stats.min * 1e3,
                l.stats.median * 1e3,
                l.stats.mad * 1e3,
                l.work / l.stats.min,
                self.rate_unit
            );
        }
        for g in &self.gates {
            let verdict = if g.passed() { "pass" } else { "FAIL" };
            println!("  gate {} = {:.3} {} {} : {verdict}", g.metric, g.value, g.op(), g.threshold);
        }
        match std::fs::write(path, self.to_json().pretty() + "\n") {
            Ok(()) => println!("  dump written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        self.gates
            .iter()
            .filter(|g| !g.passed())
            .map(|g| {
                format!("{}: {} = {} is not {} {}", self.id, g.metric, g.value, g.op(), g.threshold)
            })
            .collect()
    }
}

/// Panics with every failed gate, if any (call after the files are
/// written).
pub fn assert_gates(failed: &[String]) {
    assert!(failed.is_empty(), "throughput gate failed:\n  {}", failed.join("\n  "));
}

/// The workspace-root `results/` directory (benches run with the package
/// directory as cwd, so a relative `results/` would land inside
/// `crates/bench/`).
fn results_dir() -> PathBuf {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    workspace.expect("crates/bench sits two levels below the workspace root").join("results")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlpower_obs::json::{self as ojson, Value};

    #[test]
    fn stats_on_odd_even_and_single_rep_counts() {
        let odd = Stats::of(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.reps, odd.min, odd.median, odd.max), (3, 1.0, 2.0, 3.0));
        assert_eq!(odd.mad, 1.0);

        let even = Stats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.reps, even.min, even.median, even.max), (4, 1.0, 2.5, 4.0));
        // Deviations from 2.5: 1.5, 0.5, 0.5, 1.5 -> median 1.0.
        assert_eq!(even.mad, 1.0);

        let one = Stats::of(&[0.25]);
        assert_eq!(one, Stats { reps: 1, min: 0.25, median: 0.25, max: 0.25, mad: 0.0 });
    }

    #[test]
    fn stats_mad_ignores_one_outlier() {
        // Median 2; deviations 1, 0, 0, 1, 98 -> MAD 1, whatever the outlier.
        let s = Stats::of(&[1.0, 2.0, 2.0, 3.0, 100.0]);
        assert_eq!((s.median, s.mad, s.max), (2.0, 1.0, 100.0));
    }

    #[test]
    fn measure_interleaves_legs_and_keeps_the_last_result() {
        let mut order = Vec::new();
        let legs = measure(3, &["a", "b"], |i| {
            order.push(i);
            order.len()
        });
        assert_eq!(order, [0, 1, 0, 1, 0, 1]);
        assert_eq!((legs[0].name, legs[0].last), ("a", 5));
        assert_eq!((legs[1].name, legs[1].last), ("b", 6));
        assert!(legs.iter().all(|l| l.stats.reps == 3));
    }

    #[test]
    fn gates_distinguish_strict_and_inclusive_bounds() {
        assert!(!Gate::above("x", 1.0, 1.0).passed());
        assert!(Gate::above("x", 1.01, 1.0).passed());
        assert!(Gate::at_least("x", 10.0, 10.0).passed());
        assert!(!Gate::at_least("x", 9.99, 10.0).passed());
    }

    fn sample(gate: Gate) -> Record {
        Record {
            id: "BENCH_unit",
            title: "unit",
            reps: 2,
            circuit: json!({ "name": "none" }),
            workload: json!({ "seed": 1 }),
            rate_unit: "ops",
            legs: vec![LegRecord { name: "leg", stats: Stats::of(&[0.5, 0.25]), work: 10.0 }],
            result: json!({ "power_uw": 1.5 }),
            bit_identical: true,
            gates: vec![gate],
        }
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hlpower-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    #[test]
    fn envelope_has_every_schema_field() {
        let v = ojson::parse(&sample(Gate::above("m", 2.0, 1.0)).to_json().pretty())
            .expect("valid JSON");
        for key in [
            "id",
            "title",
            "mode",
            "host",
            "reps",
            "circuit",
            "workload",
            "rate_unit",
            "legs",
            "result",
            "bit_identical",
            "gates",
        ] {
            assert!(v.get(key).is_some(), "missing `{key}`");
        }
        let host = v.get("host").expect("host");
        assert!(host.get("cores").and_then(Value::as_u64).is_some_and(|c| c >= 1));
        assert!(host.get("simd_level").and_then(Value::as_str).is_some());
        let legs = v.get("legs").and_then(Value::as_arr).expect("legs array");
        for key in ["name", "min_s", "median_s", "max_s", "mad_s", "rate_per_s"] {
            assert!(legs[0].get(key).is_some(), "leg missing `{key}`");
        }
        assert_eq!(legs[0].get("rate_per_s").and_then(Value::as_f64), Some(40.0));
        let gates = v.get("gates").and_then(Value::as_arr).expect("gates array");
        for key in ["metric", "value", "op", "threshold", "passed"] {
            assert!(gates[0].get(key).is_some(), "gate missing `{key}`");
        }
        assert_eq!(gates[0].get("passed").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn failing_gate_writes_the_file_before_it_panics() {
        let path = temp_file("BENCH_failing.json");
        let _ = std::fs::remove_file(&path);
        let rec = sample(Gate::above("speedup", 0.5, 1.0));
        let outcome = std::panic::catch_unwind(|| assert_gates(&rec.write_to(&path)));
        assert!(outcome.is_err(), "a failed gate must panic");
        let text = std::fs::read_to_string(&path).expect("file written before the panic");
        let v = ojson::parse(&text).expect("valid JSON");
        let gates = v.get("gates").and_then(Value::as_arr).expect("gates array");
        assert_eq!(gates[0].get("passed").and_then(Value::as_bool), Some(false));
        let _ = std::fs::remove_file(&path);
    }
}
