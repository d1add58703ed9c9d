//! Monte-Carlo kernel throughput gates: one row per comparison.
//!
//! Each row runs the seeded Monte-Carlo power engine on the 16-bit array
//! multiplier over one fixed workload (stopping rule off, so every kernel
//! simulates exactly `max_batches * batch_cycles` lane-cycles) with each
//! of its kernels, interleaved over the reps; asserts that every kernel
//! returns the same `power_uw` bits, batch count and cycle count; and
//! writes `results/<id>.json` (see `hlpower_bench::record`):
//!
//! | id             | delay      | kernels (baseline first)  | gate                    |
//! |----------------|------------|---------------------------|-------------------------|
//! | `BENCH_sim`    | zero-delay | scalar, packed64          | packed64 faster         |
//! | `BENCH_glitch` | glitch     | scalar, packed64          | packed64 faster         |
//! | `BENCH_wide`   | zero-delay | packed64, 256, 512        | packed256 faster than 64 |
//!
//! The gate is the second kernel's speedup over the first on the minimum
//! wall time over reps. Every row's file is written before any gate is
//! asserted, so a failing run still leaves all three artifacts. Default
//! is a quick smoke workload; `HLPOWER_BENCH_FULL=1` runs the longer
//! measurement used for the recorded numbers.

use hlpower::netlist::{
    monte_carlo_glitch_power_seeded_threads_kernel, monte_carlo_power_seeded_threads_kernel,
    streams, Delay, Library, McKernel, MonteCarloOptions, MonteCarloResult, Netlist,
};
use hlpower_bench::json;
use hlpower_bench::record::{self, Gate, Record};

/// One comparison: which engine, which kernels, how much work, which gate.
struct Row {
    id: &'static str,
    title: &'static str,
    delay: Delay,
    seed: u64,
    /// Named kernels; the gate compares the second against the first.
    kernels: &'static [(&'static str, McKernel)],
    /// `(batch_cycles, max_batches, reps)` in smoke and in full mode.
    smoke: (usize, usize, usize),
    full: (usize, usize, usize),
    /// Gate metric name and the speedup it must exceed.
    gate: (&'static str, f64),
}

const ROWS: [Row; 3] = [
    Row {
        id: "BENCH_sim",
        title: "Scalar vs bit-parallel 64-lane Monte-Carlo throughput",
        delay: Delay::ZeroDelay,
        seed: 2024,
        kernels: &[("scalar", McKernel::Scalar), ("packed64", McKernel::Packed64)],
        smoke: (50, 128, 3),
        full: (200, 256, 5),
        gate: ("packed64_speedup_vs_scalar", 1.0),
    },
    Row {
        id: "BENCH_glitch",
        title: "Scalar vs bit-parallel 64-lane timed (glitch) simulation throughput",
        delay: Delay::Glitch,
        seed: 2024,
        kernels: &[("scalar", McKernel::Scalar), ("packed64", McKernel::Packed64)],
        smoke: (20, 64, 2),
        full: (60, 256, 3),
        gate: ("packed64_speedup_vs_scalar", 1.0),
    },
    Row {
        id: "BENCH_wide",
        title: "Wide-word packed Monte-Carlo throughput: 64 vs 256 vs 512 lanes",
        delay: Delay::ZeroDelay,
        seed: 2026,
        kernels: &[
            ("packed64", McKernel::Packed64),
            ("packed256", McKernel::Packed256),
            ("packed512", McKernel::Packed512),
        ],
        smoke: (40, 1024, 3),
        full: (100, 2048, 5),
        gate: ("packed256_speedup_vs_packed64", 1.0),
    },
];

fn run(
    nl: &Netlist,
    lib: &Library,
    row: &Row,
    opts: &MonteCarloOptions,
    kernel: McKernel,
) -> MonteCarloResult {
    let w = nl.input_count();
    let stream_fn = |rng| streams::random_rng(rng, w);
    match row.delay {
        Delay::ZeroDelay => {
            monte_carlo_power_seeded_threads_kernel(nl, lib, stream_fn, row.seed, opts, 1, kernel)
        }
        Delay::Glitch => monte_carlo_glitch_power_seeded_threads_kernel(
            nl, lib, stream_fn, row.seed, opts, 1, kernel,
        ),
    }
    .expect("acyclic multiplier")
}

fn measure_row(nl: &Netlist, lib: &Library, row: &Row) -> Record {
    let (batch_cycles, max_batches, reps) = if record::full_mode() { row.full } else { row.smoke };
    let opts = MonteCarloOptions {
        batch_cycles,
        max_batches,
        target_relative_error: 0.0, // fixed workload: never stop early
        z: 1.96,
    };
    let names: Vec<&'static str> = row.kernels.iter().map(|&(name, _)| name).collect();
    let legs = record::measure(reps, &names, |i| run(nl, lib, row, &opts, row.kernels[i].1));

    // The determinism contract: every kernel is a reorganization of the
    // same computation, so the estimates agree to the last bit.
    let reference = &legs[0].last;
    for leg in &legs[1..] {
        assert_eq!(
            reference.power_uw.to_bits(),
            leg.last.power_uw.to_bits(),
            "{}: {} diverged from {}: {} vs {} uW",
            row.id,
            leg.name,
            legs[0].name,
            leg.last.power_uw,
            reference.power_uw
        );
        assert_eq!(reference.batches, leg.last.batches, "{}: {} batch count", row.id, leg.name);
        assert_eq!(reference.cycles, leg.last.cycles, "{}: {} cycle count", row.id, leg.name);
    }

    // One effective gate evaluation = one gate on one cycle of one batch,
    // identical for every kernel by construction (fixed workload).
    let gate_evals = (nl.gate_count() * batch_cycles * max_batches) as f64;
    let (metric, threshold) = row.gate;
    Record {
        id: row.id,
        title: row.title,
        reps,
        circuit: json!({
            "name": "array_multiplier_16",
            "gates": nl.gate_count(),
            "inputs": nl.input_count(),
        }),
        workload: json!({
            "delay": format!("{:?}", row.delay),
            "batch_cycles": batch_cycles,
            "max_batches": max_batches,
            "threads": 1,
            "seed": row.seed,
        }),
        rate_unit: "gate_evals",
        legs: legs.iter().map(|l| l.with_work(gate_evals)).collect(),
        result: json!({
            "power_uw": reference.power_uw,
            "batches": reference.batches,
            "cycles": reference.cycles,
        }),
        bit_identical: true,
        gates: vec![Gate::above(
            metric,
            record::min_speedup(&legs[0].stats, &legs[1].stats),
            threshold,
        )],
    }
}

fn main() {
    let nl = record::multiplier16();
    let lib = Library::default();
    let failed: Vec<String> =
        ROWS.iter().flat_map(|row| measure_row(&nl, &lib, row).write()).collect();
    record::assert_gates(&failed);
}
