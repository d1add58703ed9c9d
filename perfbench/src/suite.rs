//! `repro_suite`: serial in-process passes over the 24 `repro`
//! experiment runners.
//!
//! One op is one pass over all 24 runners, in an order drawn from the
//! seed (the work is the same in any order). It is the only workload that
//! loads `bdd`, `fsm`, `cdfg`, `swpower`, `estimate` and the optimizer
//! passes' incremental scoring. Each experiment's JSON is checked
//! against a digest recorded from the repository; the committed
//! `results/` files are not used, since some of them are stale.

use std::hint::black_box;
use std::time::Instant;

use hlpower_bench::experiments::{estimation, hls, logic, software, system};
use hlpower_bench::report::{ExperimentResult, Json};
use hlpower_obs::metrics as obs;
use hlpower_rng::Rng;

use crate::host::{OpLog, Probe, MIN_OPS};
use crate::layers::{per_op_counts, per_pass_counts, Phase};
use crate::stats::{median, Metric};
use crate::Report;

/// See `host` for why this workload divides by this probe.
const PROBE: Probe = Probe::Throughput;

type Runner = fn() -> ExperimentResult;

/// The runners, in `repro`'s registry order (the order of [`DIGESTS`]).
const RUNNERS: [Runner; 24] = [
    hls::table1,
    hls::figs_4_5,
    hls::pm_scheduling,
    hls::allocation,
    hls::multivoltage,
    software::tiwari,
    software::profile_synthesis,
    software::cold_scheduling,
    software::fig2_memopt,
    software::memory_exploration,
    estimation::entropy_models,
    estimation::tyagi,
    estimation::complexity,
    estimation::macromodel_ladder,
    estimation::sampling_cosim,
    logic::precomputation,
    logic::gated_clocks,
    logic::guarded_evaluation,
    logic::retiming,
    logic::path_balancing,
    logic::fsm_encoding,
    logic::fsm_decomposition,
    system::shutdown_policies,
    system::bus_encoding,
];

/// Experiment ids and FNV-1a digests of each experiment's pretty-printed
/// JSON, in registry order, recorded
/// with `hlpower-perfbench digests`. Regenerate them only in a change
/// that means to alter an experiment's results.
pub const DIGESTS: [(&str, u64); 24] = [
    ("T1", 0xaad2219bde8a92b9),
    ("F4F5", 0xb44d5b1e114cfee8),
    ("S3D", 0x8fbc3908e97af2e6),
    ("S3E", 0x5d419d4a5844e1ac),
    ("S3F", 0x3996d54a3f1ce4e8),
    ("S2A-1", 0x9319ab7da08ee8af),
    ("S2A-2", 0x12a6335349abfc06),
    ("S3A", 0x90b430830fdc2b66),
    ("F2", 0x4bd2b4dca0c8e72c),
    ("S2C-M", 0x61d56ac92b477965),
    ("S2B-1", 0x194699e6f625691b),
    ("S2B-1T", 0x848242883c860432),
    ("S2B-2", 0x4364622a1e783f01),
    ("S2C-1", 0x679ef06a56467a44),
    ("S2C-2", 0x2318d1f6110b823e),
    ("F6", 0xd19beedf19faa7b1),
    ("F7", 0x9c6f374b6f702a3f),
    ("F8", 0x174c5cd1af7fa296),
    ("F9", 0x762b97e472ade1cf),
    ("F9-B", 0xe06b2362352622af),
    ("S3H", 0x7deedb3cae7b6aaa),
    ("S3H-D", 0x010072451b7f10b0),
    ("F3", 0x95b9ae39d7fd2e3d),
    ("S3G", 0x79e09f1bb149d7ea),
];

/// Warm-up passes; the median of their times is the set-up metric (the
/// first runs cold, the rest fill the allocator and caches).
const WARMUP_PASSES: usize = 3;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Experiments whose last float digits change from run to run at HEAD:
/// `swpower::tiwari` sums per-pair costs in `HashMap` iteration order,
/// which differs per map instance. Their numbers are compared to 12
/// significant digits, which still catches any change to the model.
const ORDER_SENSITIVE: [&str; 1] = ["S2A-1"];

fn round12(j: &Json) -> Json {
    match j {
        Json::Num(x) => Json::Num(format!("{x:.11e}").parse().expect("formatted f64 parses")),
        Json::Array(v) => Json::Array(v.iter().map(round12).collect()),
        Json::Object(v) => Json::Object(v.iter().map(|(k, x)| (k.clone(), round12(x))).collect()),
        other => other.clone(),
    }
}

fn digest(r: &ExperimentResult) -> u64 {
    let json = r.to_json();
    let json = if ORDER_SENSITIVE.contains(&r.id) { round12(&json) } else { json };
    fnv1a(json.pretty().as_bytes())
}

/// Whether runner `i` produced the recorded experiment.
fn matches(i: usize, r: &ExperimentResult, digests: &[(&str, u64)]) -> bool {
    r.id == digests[i].0 && digest(r) == digests[i].1
}

/// Prints the digest table for [`DIGESTS`].
pub fn print_digests() {
    for runner in RUNNERS {
        let r = runner();
        println!("    (\"{}\", 0x{:016x}),", r.id, digest(&r));
    }
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `trace` is set).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rng = Rng::seed_from_u64(seed);
    let setup: Vec<f64> = (0..WARMUP_PASSES)
        .map(|_| {
            let t = Instant::now();
            RUNNERS.iter().for_each(|r| drop(black_box(r())));
            PROBE.at_reference_s(t.elapsed().as_secs_f64())
        })
        .collect();
    if !trace {
        let ops = measure(&mut rng, seconds, &DIGESTS, None);
        return Report { setup_s: median(&setup), ops, layers: Vec::new() };
    }
    let mut ops = measure(&mut rng, seconds / 2.0, &DIGESTS, None);
    let untraced_norm = median(&ops.norm);
    let mut phase = Phase::default();
    let traced = measure(&mut rng, seconds / 2.0, &DIGESTS, Some(&mut phase));
    let mut layers = phase.into_metrics();
    layers.push(Metric::new(
        "trace_overhead_frac",
        median(&traced.norm) / untraced_norm - 1.0,
        "frac",
    ));
    ops.extend(traced);
    Report { setup_s: median(&setup), ops, layers }
}

/// Seeded Fisher-Yates order of the 24 runners.
fn order(rng: &mut Rng) -> [usize; 24] {
    let mut o: [usize; 24] = std::array::from_fn(|i| i);
    for i in (1..o.len()).rev() {
        o.swap(i, rng.gen_range(0..=i));
    }
    o
}

/// Closed loop of passes. Each experiment is followed by one probe and
/// normalised by it; a pass's normalised time is the sum over its
/// experiments. With a `phase`, each experiment's time and each pass's
/// registry delta are recorded.
fn measure(
    rng: &mut Rng,
    seconds: f64,
    digests: &[(&str, u64)],
    mut phase: Option<&mut Phase>,
) -> OpLog {
    let mut log = OpLog::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || log.ms.len() < MIN_OPS {
        let before = phase.as_ref().map(|_| obs::snapshot());
        let (mut ms, mut norm, mut ok) = (0.0, 0.0, true);
        for i in order(rng) {
            let t = Instant::now();
            let r = RUNNERS[i]();
            let dt = t.elapsed().as_secs_f64() * 1e3;
            let probe = PROBE.ms();
            log.probes.push(probe);
            ms += dt;
            norm += dt / probe;
            ok &= matches(i, &r, digests);
            if let Some(p) = phase.as_deref_mut() {
                p.time(format!("repro.{}_ms", DIGESTS[i].0), dt);
            }
        }
        log.ms.push(ms);
        log.norm.push(norm);
        log.busy_s += ms / 1e3;
        log.busy_probes += norm;
        log.attempted += 1;
        log.failed += u64::from(!ok);
        if let (Some(p), Some(before)) = (phase.as_deref_mut(), before) {
            let d = obs::snapshot().delta(&before);
            p.counts(&per_op_counts(&d));
            for m in per_pass_counts(&d) {
                p.push(m.name, m.value, m.unit);
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn rounding_keeps_twelve_significant_digits() {
        let a = round12(&Json::Num(21468.59999999987));
        assert_eq!(a, round12(&Json::Num(21468.599999999875)));
        assert_ne!(a, round12(&Json::Num(21468.6001)));
        assert_eq!(round12(&Json::Int(3)), Json::Int(3));
    }

    #[test]
    fn a_flipped_digest_bit_fails_the_experiment() {
        let i = DIGESTS.iter().position(|&(id, _)| id == "S2B-1T").expect("id");
        let r = RUNNERS[i]();
        assert!(matches(i, &r, &DIGESTS), "recorded digest for {}", r.id);
        let mut flipped = DIGESTS;
        flipped[i].1 ^= 1;
        assert!(!matches(i, &r, &flipped));
    }
}
