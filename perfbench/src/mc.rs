//! `mc_offline`: offline Monte-Carlo power estimation, no server.
//!
//! One op is a zero-delay run of the 16-bit array multiplier (512 batches
//! of 64 cycles, so `McKernel::Auto` picks 512 lanes) followed by a
//! glitch run of the 8-bit multiplier (256 batches of 32 cycles, 256
//! lanes). The stopping rule is off (`target_relative_error = 0`), so
//! every op simulates the same batches whatever the seed, and both delay
//! models are in every op: a change to either Monte-Carlo path shows on
//! the same number.

use std::hint::black_box;
use std::time::Instant;

use hlpower_netlist::{
    emit_verilog, gen, ingest_auto, monte_carlo_glitch_power_seeded_threads_kernel,
    monte_carlo_power_seeded_threads_kernel, streams, CompiledKernel, Library, McKernel,
    MonteCarloOptions, MonteCarloResult, Netlist, NetlistError, PowerModel, TimedKernel, WideSim,
    WideTimedSim, Word, W256, W512,
};
use hlpower_obs::metrics as obs;
use hlpower_rng::Rng;

use crate::host::{OpLog, Probe, MIN_OPS};
use crate::layers::{median_of, per_op_counts, time_ms, Phase};
use crate::stats::{median, Metric};
use crate::Report;

/// See `host` for why this workload divides by this probe.
const PROBE: Probe = Probe::Throughput;

const ZERO_DELAY: MonteCarloOptions =
    MonteCarloOptions { batch_cycles: 64, max_batches: 512, target_relative_error: 0.0, z: 1.96 };
const GLITCH: MonteCarloOptions =
    MonteCarloOptions { batch_cycles: 32, max_batches: 256, target_relative_error: 0.0, z: 1.96 };

/// Distinct seed pairs per run; ops cycle through them so references are
/// computed once per pair, before timing starts.
const VARIANTS: usize = 4;
/// Set-up repetitions at each end of the run; the median of all is
/// reported. Sampling both ends spans the host's slow and fast phases.
const SETUP_REPS: usize = 2;
/// Untimed ops before the measured loop (fills caches, faults in pages).
const WARMUP_OPS: usize = 2;

struct Variant {
    zero_delay_seed: u64,
    glitch_seed: u64,
    zero_delay_ref: MonteCarloResult,
    glitch_ref: MonteCarloResult,
}

struct Circuits {
    mul16_src: String,
    mul8_src: String,
    mul16: Netlist,
    mul8: Netlist,
    lib: Library,
}

fn multiplier_verilog(bits: usize) -> String {
    let mut nl = Netlist::new();
    let a = nl.input_bus("a", bits);
    let b = nl.input_bus("b", bits);
    let p = gen::array_multiplier(&mut nl, &a, &b);
    nl.output_bus("p", &p);
    emit_verilog(&nl, &format!("mul{bits}"))
}

fn ingest(src: &str) -> Netlist {
    ingest_auto(None, src).expect("emitted Verilog re-ingests").1
}

/// Whether a run reproduced its reference to the bit.
fn matches(got: &Result<MonteCarloResult, NetlistError>, want: &MonteCarloResult) -> bool {
    got.as_ref().is_ok_and(|r| {
        r.power_uw.to_bits() == want.power_uw.to_bits()
            && r.half_width_uw.to_bits() == want.half_width_uw.to_bits()
            && r.batches == want.batches
            && r.cycles == want.cycles
    })
}

impl Circuits {
    fn zero_delay(&self, seed: u64, kernel: McKernel) -> Result<MonteCarloResult, NetlistError> {
        let w = self.mul16.input_count();
        monte_carlo_power_seeded_threads_kernel(
            &self.mul16,
            &self.lib,
            |rng| streams::random_rng(rng, w),
            seed,
            &ZERO_DELAY,
            1,
            kernel,
        )
    }

    fn glitch(&self, seed: u64, kernel: TimedKernel) -> Result<MonteCarloResult, NetlistError> {
        let w = self.mul8.input_count();
        monte_carlo_glitch_power_seeded_threads_kernel(
            &self.mul8,
            &self.lib,
            |rng| streams::random_rng(rng, w),
            seed,
            &GLITCH,
            1,
            kernel,
        )
    }
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `trace` is set).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mul16_src = multiplier_verilog(16);
    let mul8_src = multiplier_verilog(8);
    let mut setup: Vec<f64> = (0..SETUP_REPS).map(|_| set_up(&mul16_src, &mul8_src)).collect();
    let c = Circuits {
        mul16: ingest(&mul16_src),
        mul8: ingest(&mul8_src),
        mul16_src,
        mul8_src,
        lib: Library::default(),
    };
    eprintln!(
        "mc_offline: mul16 {} gates, mul8 {} gates",
        c.mul16.gate_count(),
        c.mul8.gate_count()
    );

    // References on the 64-lane kernels, outside every timed region.
    let mut rng = Rng::seed_from_u64(seed);
    let variants: Vec<Variant> = (0..VARIANTS)
        .map(|_| {
            let (zero_delay_seed, glitch_seed) = (rng.next_u64(), rng.next_u64());
            Variant {
                zero_delay_seed,
                glitch_seed,
                zero_delay_ref: c
                    .zero_delay(zero_delay_seed, McKernel::Packed64)
                    .expect("reference"),
                glitch_ref: c.glitch(glitch_seed, TimedKernel::Packed64).expect("reference"),
            }
        })
        .collect();
    for v in variants.iter().cycle().take(WARMUP_OPS) {
        let warm = (
            c.zero_delay(v.zero_delay_seed, McKernel::Auto),
            c.glitch(v.glitch_seed, TimedKernel::Auto),
        );
        assert!(warm.0.is_ok() && warm.1.is_ok(), "warm-up op failed");
    }

    let mut layers = Vec::new();
    let ops = if trace {
        let mut ops = measure(&c, &variants, seconds / 2.0, None);
        let untraced_norm = median(&ops.norm);
        let mut phase = Phase::default();
        let traced = measure(&c, &variants, seconds / 2.0, Some(&mut phase));
        let overhead = median(&traced.norm) / untraced_norm - 1.0;
        ops.extend(traced);
        layers = phase.into_metrics();
        layers.push(Metric::new("trace_overhead_frac", overhead, "frac"));
        layers.extend(layer_metrics(&c, &variants[0]));
        ops
    } else {
        measure(&c, &variants, seconds, None)
    };
    setup.extend((0..SETUP_REPS).map(|_| set_up(&c.mul16_src, &c.mul8_src)));
    Report { setup_s: median(&setup), ops, layers }
}

/// One set-up: what a user pays before the first estimate, ingesting
/// both circuits from Verilog. Seconds at the reference host speed.
fn set_up(mul16_src: &str, mul8_src: &str) -> f64 {
    let t = Instant::now();
    black_box((ingest(mul16_src), ingest(mul8_src)));
    PROBE.at_reference_s(t.elapsed().as_secs_f64())
}

/// The closed loop: one op, then one probe, until `seconds` have passed.
/// With a `phase`, each half of the op is timed on its own and the
/// metric registry is diffed around it.
fn measure(
    c: &Circuits,
    variants: &[Variant],
    seconds: f64,
    mut phase: Option<&mut Phase>,
) -> OpLog {
    let mut log = OpLog::default();
    let start = Instant::now();
    for v in variants.iter().cycle() {
        if start.elapsed().as_secs_f64() >= seconds && log.ms.len() >= MIN_OPS {
            break;
        }
        let before = phase.as_ref().map(|_| obs::snapshot());
        let t = Instant::now();
        let zd = c.zero_delay(v.zero_delay_seed, McKernel::Auto);
        let t_mid = Instant::now();
        let gl = c.glitch(v.glitch_seed, TimedKernel::Auto);
        let t_end = Instant::now();
        let probe = PROBE.ms();
        log.probes.push(probe);
        let ok = matches(&zd, &v.zero_delay_ref) && matches(&gl, &v.glitch_ref);
        log.push_serial((t_end - t).as_secs_f64() * 1e3, probe, ok);
        if let (Some(p), Some(before)) = (phase.as_deref_mut(), before) {
            p.time("netlist.montecarlo.zero_delay_ms", (t_mid - t).as_secs_f64() * 1e3);
            p.time("netlist.montecarlo.glitch_ms", (t_end - t_mid).as_secs_f64() * 1e3);
            // Work counts depend on the stimulus, so they are taken on one
            // seed pair only and repeat exactly for a given seed.
            if std::ptr::eq(v, &variants[0]) {
                p.counts(&per_op_counts(&obs::snapshot().delta(&before)));
            }
        }
    }
    log
}

/// Bulk calls into each layer the op crosses, on the op's own circuits.
fn layer_metrics(c: &Circuits, v: &Variant) -> Vec<Metric> {
    let model16 = PowerModel::new(&c.mul16, &c.lib);
    let gates16 = CompiledKernel::compile(&c.mul16).expect("acyclic").instr_count();
    let gates8 = CompiledKernel::compile(&c.mul8).expect("acyclic").instr_count();
    let mut rng = Rng::seed_from_u64(v.zero_delay_seed);
    let words512 = random_words::<W512>(&mut rng, c.mul16.input_count(), ZERO_DELAY.batch_cycles);
    let words256 = random_words::<W256>(&mut rng, c.mul8.input_count(), GLITCH.batch_cycles);

    let mut finalize_us = Vec::new();
    let settle = median_of(5, || {
        let mut sim = WideSim::<W512>::new(&c.mul16).expect("acyclic");
        let ms = time_ms(|| words512.iter().for_each(|w| sim.step(w).expect("step")));
        let t = Instant::now();
        black_box(sim.take_lane_powers(&model16));
        finalize_us.push(t.elapsed().as_secs_f64() * 1e6);
        ms * 1e6 / (gates16 * W512::LANES * words512.len()) as f64
    });
    let timed_settle = median_of(5, || {
        let mut sim = WideTimedSim::<W256>::new(&c.mul8, &c.lib).expect("acyclic");
        let ms = time_ms(|| words256.iter().for_each(|w| sim.step(w).expect("step")));
        ms * 1e6 / (gates8 * W256::LANES * words256.len()) as f64
    });
    vec![
        Metric::new(
            "netlist.ingest.parse_ms",
            median_of(3, || time_ms(|| black_box((ingest(&c.mul16_src), ingest(&c.mul8_src))))),
            "ms",
        ),
        Metric::new(
            "netlist.power.model_build_ms",
            median_of(5, || {
                time_ms(|| {
                    black_box((PowerModel::new(&c.mul16, &c.lib), PowerModel::new(&c.mul8, &c.lib)))
                })
            }),
            "ms",
        ),
        Metric::new(
            "netlist.sim64.compile_ms",
            median_of(5, || {
                time_ms(|| {
                    black_box((CompiledKernel::compile(&c.mul16), CompiledKernel::compile(&c.mul8)))
                })
            }),
            "ms",
        ),
        Metric::new(
            "netlist.streams.stimulus_ms",
            median_of(3, || {
                time_ms(|| {
                    drain(v.zero_delay_seed, c.mul16.input_count(), &ZERO_DELAY);
                    drain(v.glitch_seed, c.mul8.input_count(), &GLITCH);
                })
            }),
            "ms",
        ),
        Metric::new("netlist.simwide.settle_ns_per_gate_lane_cycle", settle, "ns"),
        Metric::new("netlist.simwide.timed_settle_ns_per_gate_lane_cycle", timed_settle, "ns"),
        Metric::new("netlist.simwide.finalize_us", median(&finalize_us), "us"),
    ]
}

/// Consumes every vector an op's batches draw: batch `b` reads
/// `batch_cycles` vectors from `root.split(b)`, as the engine does.
pub fn drain(seed: u64, width: usize, opts: &MonteCarloOptions) {
    let root = Rng::seed_from_u64(seed);
    for b in 0..opts.max_batches as u64 {
        for v in streams::random_rng(root.split(b), width).take(opts.batch_cycles) {
            black_box(v);
        }
    }
}

fn random_words<W: Word>(rng: &mut Rng, inputs: usize, cycles: usize) -> Vec<Vec<W>> {
    (0..cycles)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    let mut w = W::zero();
                    (0..W::LANES).for_each(|l| w.set_lane(l, rng.gen_bool(0.5)));
                    w
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Circuits {
        let src = multiplier_verilog(4);
        Circuits {
            mul16: ingest(&src),
            mul8: ingest(&src),
            mul16_src: src.clone(),
            mul8_src: src,
            lib: Library::default(),
        }
    }

    #[test]
    fn packed_widths_agree_with_the_64_lane_reference() {
        let c = small();
        let want = c.zero_delay(7, McKernel::Packed64).expect("reference");
        assert!(matches(&c.zero_delay(7, McKernel::Auto), &want));
        let want = c.glitch(9, TimedKernel::Packed64).expect("reference");
        assert!(matches(&c.glitch(9, TimedKernel::Auto), &want));
    }

    #[test]
    fn a_flipped_bit_in_the_reference_fails_the_op() {
        let c = small();
        let good = c.zero_delay(7, McKernel::Packed64).expect("reference");
        let mut bad = good;
        bad.power_uw = f64::from_bits(good.power_uw.to_bits() ^ 1);
        let variants = vec![
            Variant {
                zero_delay_seed: 7,
                glitch_seed: 9,
                zero_delay_ref: good,
                glitch_ref: c.glitch(9, TimedKernel::Packed64).expect("reference"),
            },
            Variant {
                zero_delay_seed: 7,
                glitch_seed: 9,
                zero_delay_ref: bad,
                glitch_ref: c.glitch(9, TimedKernel::Packed64).expect("reference"),
            },
        ];
        let log = measure(&c, &variants, 0.2, None);
        assert!(log.attempted >= 2);
        assert_eq!(log.failed, log.attempted / 2, "every op on the flipped reference fails");
        let ok_frac = (log.attempted - log.failed) as f64 / log.attempted as f64;
        assert!(ok_frac < 1.0);
    }

    #[test]
    fn an_error_is_a_failure_not_a_crash() {
        let c = small();
        let want = c.zero_delay(7, McKernel::Packed64).expect("reference");
        assert!(!matches(&Err(NetlistError::InvalidThreadCount { reason: "test".into() }), &want));
    }
}
