//! Host-speed probes, the per-op log every workload fills, and peak RSS.
//!
//! A probe is a fixed integer loop owned by the benchmark: it runs no
//! program code, so it only changes when the host does. Each workload
//! times one next to its ops and divides, which cancels host swings that
//! a raw wall time would report as a regression or a gain.
//!
//! The host (a shared VM) slows in two ways that one loop cannot both
//! see: phases that throttle throughput (a busy sibling core, shared
//! cache) and leave latency alone, and the reverse. So each workload
//! uses the probe bound by the same resource as its ops:
//! [`Probe::Throughput`] for the packed kernels and the experiment suite,
//! [`Probe::Latency`] for served requests, which are chains of short
//! dependent steps. Across runs of identical code, op ÷ probe with the
//! other workload's probe spread up to 7 times wider.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Which probe loop a workload divides by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Eight independent add-xor-shift accumulators streaming a 1 MiB
    /// (L2-resident) buffer: bound by load and ALU throughput.
    Throughput,
    /// One serial multiply-xorshift chain: bound by instruction latency.
    Latency,
}

impl Probe {
    /// Times one run of the probe loop (about 1.5 ms), in milliseconds.
    pub fn ms(self) -> f64 {
        match self {
            Probe::Throughput => throughput_ms(),
            Probe::Latency => latency_ms(),
        }
    }

    /// The loop's time on a quiet run of the 2-vCPU VM the benchmark was
    /// built on, in milliseconds: the speed set-up times are scaled to.
    fn reference_ms(self) -> f64 {
        match self {
            Probe::Throughput => 1.4,
            Probe::Latency => 1.45,
        }
    }

    /// `secs` of work just finished, scaled to the reference host speed
    /// by a probe taken right after it. Set-up is timed once per
    /// repetition, too briefly to average the host's phases out, and its
    /// raw time moved 35% between two sets of runs of identical code.
    pub fn at_reference_s(self, secs: f64) -> f64 {
        secs * self.reference_ms() / self.ms()
    }
}

fn throughput_ms() -> f64 {
    const WORDS: usize = 1 << 17;
    const PASSES: usize = 32;
    static BUF: OnceLock<Vec<u64>> = OnceLock::new();
    let buf = BUF.get_or_init(|| (0..WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect());
    let t = Instant::now();
    let mut acc = [0u64; 8];
    for _ in 0..PASSES {
        for chunk in black_box(buf).chunks_exact(8) {
            for (a, &w) in acc.iter_mut().zip(chunk) {
                *a = a.wrapping_add(w) ^ (w >> 3);
            }
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

fn latency_ms() -> f64 {
    const ROUNDS: u64 = 1 << 19;
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..ROUNDS {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
        x ^= x >> 29;
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time the hypervisor has stolen from this VM since boot, in clock
/// ticks summed over all CPUs (the `steal` column of `/proc/stat`); 0
/// where it is not reported.
pub fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Fewest ops a measured phase runs, however short its time budget, so
/// the tail rule of `stats::tail` always has a percentile to report.
pub const MIN_OPS: usize = 2 * crate::stats::TAIL_BEYOND;

/// The measured ops of one run.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall time of each op, in milliseconds.
    pub ms: Vec<f64>,
    /// Each op's time divided by its adjacent probe time.
    pub norm: Vec<f64>,
    /// Every probe time taken, in milliseconds.
    pub probes: Vec<f64>,
    /// Seconds of load during which the ops ran (probes and reference
    /// checks excluded).
    pub busy_s: f64,
    /// The same load time in probe units: each stretch of load divided by
    /// its adjacent probe time.
    pub busy_probes: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or disagreed with their reference.
    pub failed: u64,
}

impl OpLog {
    /// Records one op that ran alone for `ms` milliseconds, normalised by
    /// the probe `probe` taken next to it.
    pub fn push_serial(&mut self, ms: f64, probe: f64, ok: bool) {
        self.ms.push(ms);
        self.norm.push(ms / probe);
        self.busy_s += ms / 1e3;
        self.busy_probes += ms / probe;
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Appends another log (the ops of a later phase of the same run).
    pub fn extend(&mut self, other: OpLog) {
        self.ms.extend(other.ms);
        self.norm.extend(other.norm);
        self.probes.extend(other.probes);
        self.busy_s += other.busy_s;
        self.busy_probes += other.busy_probes;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_take_measurable_time() {
        for probe in [Probe::Throughput, Probe::Latency] {
            let p = probe.ms();
            assert!(p > 0.0 && p.is_finite(), "{probe:?}: {p}");
        }
    }

    #[test]
    fn stolen_ticks_never_go_backwards() {
        let a = stolen_ticks();
        assert!(stolen_ticks() >= a);
    }

    #[test]
    fn a_failed_op_is_counted_not_dropped() {
        let mut log = OpLog::default();
        log.push_serial(4.0, 2.0, true);
        log.push_serial(6.0, 2.0, false);
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert_eq!(log.norm, vec![2.0, 3.0]);
        assert!((log.busy_s - 0.01).abs() < 1e-15);
        assert_eq!(log.busy_probes, 5.0);
    }
}
