//! Optimize-pass candidate-scoring throughput: incremental vs from-scratch.
//!
//! The optimize passes were converted from clone-and-fully-resimulate
//! candidate scoring to a record-once / dirty-cone-replay engine
//! ([`GuardScorer`], [`rewrite_gates`]' internal `IncrementalSim` loop).
//! This bench measures that conversion on the two searches with the
//! largest candidate pools:
//!
//! - **guard**: every candidate from [`guard::find_candidates`] on the
//!   guarded-mux example is scored twice — once with the historical
//!   from-scratch [`guard::evaluate`] (full scalar replay per candidate)
//!   and once through a [`guard::GuardScorer`] (one packed recording,
//!   then a dirty-region replay per candidate). Both paths are asserted
//!   bit-identical per candidate before any timing is trusted.
//! - **rewrite**: [`rewrite::rewrite_gates`] on the De Morgan example.
//!   Its loop shares one recording across candidates, so per-candidate
//!   wall time at this scale is dominated by fixed costs both engines
//!   pay; the leg is therefore gated on the deterministic replay-work
//!   ratio — nodes actually re-evaluated across every candidate's dirty
//!   cone against the `candidates_tried * node_count` a full replay per
//!   candidate (the pre-conversion scorer) would have evaluated.
//!
//! The result is archived as `results/BENCH_opt.json` (see
//! `hlpower_bench::record`), written before its gates are asserted: the
//! run fails if incremental guard scoring is not faster than
//! from-scratch, if the rewrite replay-work ratio is not above 1, and —
//! in full mode — if the guard search is not at least 10x faster, so CI
//! catches a regression in the incremental engine. Default is a quick
//! smoke workload; `HLPOWER_BENCH_FULL=1` runs the longer measurement
//! used for the recorded numbers.

use std::hint::black_box;

use hlpower::netlist::{streams, Library};
use hlpower::optimize::{guard, rewrite};
use hlpower_bench::json;
use hlpower_bench::record::{self, Gate, Record};

fn main() {
    let full = record::full_mode();
    let (width, cycles, max_targets, reps) = if full { (12, 4096, 24, 5) } else { (8, 512, 8, 3) };
    let lib = Library::default();

    // --- Guard search: score the same candidates both ways. ---
    let nl = guard::guarded_mux_example(width);
    let stream: Vec<Vec<bool>> = streams::random(2026, nl.input_count()).take(cycles).collect();
    let candidates = guard::find_candidates(&nl, &lib, max_targets).expect("acyclic example");
    assert!(!candidates.is_empty(), "guard example produced no candidates");

    // Correctness first: every candidate's (base, guarded, ok) triple must
    // agree to the bit between the two scorers.
    let scratch_scores: Vec<(f64, f64, bool)> = candidates
        .iter()
        .map(|c| guard::evaluate(&nl, &lib, c, &stream).expect("acyclic example"))
        .collect();
    {
        let mut scorer = guard::GuardScorer::new(&nl, &lib, &stream).expect("acyclic example");
        for (c, s) in candidates.iter().zip(&scratch_scores) {
            let (base, guarded, ok) = scorer.score(c);
            assert_eq!(base.to_bits(), s.0.to_bits(), "baseline energy diverged");
            assert_eq!(
                guarded.to_bits(),
                s.1.to_bits(),
                "guarded energy diverged on target {:?}",
                c.target
            );
            assert_eq!(ok, s.2, "correctness bit diverged on target {:?}", c.target);
        }
    }

    // From-scratch leg: the historical path, one full scalar replay pair
    // per candidate. Incremental leg: recording construction is part of
    // the search cost, so it stays inside the timed region.
    let guard_legs = record::measure(reps, &["guard_from_scratch", "guard_incremental"], |leg| {
        if leg == 0 {
            for c in &candidates {
                black_box(guard::evaluate(&nl, &lib, c, &stream).expect("acyclic example"));
            }
        } else {
            let mut scorer = guard::GuardScorer::new(&nl, &lib, &stream).expect("acyclic example");
            for c in &candidates {
                black_box(scorer.score(c));
            }
        }
    });
    let guard_speedup = record::min_speedup(&guard_legs[0].stats, &guard_legs[1].stats);

    // --- Rewrite search: wall time is reported, but the CI gate is the
    // deterministic replay-work ratio (dirty-cone nodes re-evaluated vs
    // the full-replay-per-candidate equivalent the old scorer paid). ---
    let rw_bits = if full { 10 } else { 6 };
    let rw = rewrite::demorgan_example(rw_bits);
    let rw_stream: Vec<Vec<bool>> = streams::random(97, rw.input_count()).take(cycles).collect();
    let opts = rewrite::RewriteOptions::default();
    let rw_legs = record::measure(reps, &["rewrite_incremental"], |_| {
        rewrite::rewrite_gates(&rw, &lib, &rw_stream, &opts).expect("acyclic example")
    });
    let outcome = &rw_legs[0].last;
    let full_replay_nodes = outcome.candidates_tried * rw.node_count();
    let work_ratio = full_replay_nodes as f64 / outcome.cone_nodes_resimmed.max(1) as f64;

    let n = candidates.len() as f64;
    let mut gates = vec![
        Gate::above("guard_speedup", guard_speedup, 1.0),
        Gate::above("rewrite_replay_work_ratio", work_ratio, 1.0),
    ];
    if full {
        gates.push(Gate::at_least("guard_speedup", guard_speedup, 10.0));
    }
    let rec = Record {
        id: "BENCH_opt",
        title: "Optimize candidate-scoring throughput: incremental vs from-scratch",
        reps,
        circuit: json!({
            "guard": {
                "name": "guarded_mux_example",
                "width": width,
                "gates": nl.gate_count(),
            },
            "rewrite": {
                "name": "demorgan_example",
                "bits": rw_bits,
                "gates": rw.gate_count(),
            },
        }),
        workload: json!({
            "cycles": cycles,
            "guard_candidates": candidates.len(),
            "guard_seed": 2026,
            "rewrite_seed": 97,
        }),
        rate_unit: "candidates",
        legs: vec![
            guard_legs[0].with_work(n),
            guard_legs[1].with_work(n),
            rw_legs[0].with_work(outcome.candidates_tried.max(1) as f64),
        ],
        result: json!({
            "rewrite_candidates_tried": outcome.candidates_tried,
            "rewrite_accepted": outcome.steps.len(),
            "rewrite_cone_nodes_resimmed": outcome.cone_nodes_resimmed,
            "rewrite_full_replay_equivalent_nodes": full_replay_nodes,
        }),
        bit_identical: true,
        gates,
    };
    record::assert_gates(&rec.write());
}
