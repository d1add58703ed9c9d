//! Monte-Carlo average-power estimation with confidence intervals (survey
//! reference 32, Burch et al.), batching, and a deterministic parallel
//! engine.
//!
//! Zero-delay and real-delay (glitch) power are one estimator on two
//! simulators: the delay model is a value ([`Delay`]), and so is the lane
//! width ([`McKernel`]).
//!
//! * [`monte_carlo_power`] — the serial form: one zero-delay simulator
//!   consumes an arbitrary vector iterator, carrying state across batches.
//! * [`monte_carlo_power_seeded_threads_kernel`] and its glitch twin
//!   [`monte_carlo_glitch_power_seeded_threads_kernel`] — the seeded form:
//!   batch `b` consumes its own stream `root.split(b)`, batches run on a
//!   scoped pool in fixed-size waves, and the stopping rule
//!   ([`StoppingReplay`]) is replayed in batch order, so the result is
//!   **bit-identical for any thread count and any width**.
//! * [`simulate_lanes`] — the one word runner under the seeded form and
//!   the estimation server: each lane runs one [`LaneRequest`] on the
//!   scalar oracle or a 64/256/512-lane packed simulator. Per-lane toggle
//!   counts are exact integers, so the packed widths are purely a
//!   wall-clock optimization.

use hlpower_obs::metrics as obs;
use hlpower_obs::trace;
use hlpower_rng::{par, Rng};

use crate::error::NetlistError;
use crate::event::EventDrivenSim;
use crate::library::Library;
use crate::netlist::Netlist;
use crate::power::PowerModel;
use crate::sim::ZeroDelaySim;
use crate::sim64::CompiledKernel;
use crate::simwide::{WideSim, WideTimedSim};
use crate::words::{Word, W256, W512};

/// Batches dispatched per scheduling wave of the scalar kernel.
///
/// The wave size is a fixed constant — *never* derived from the worker
/// count — because the set of batches simulated ahead of the stopping
/// check must not depend on parallelism for results to be bit-identical
/// across thread counts.
const WAVE: usize = 16;

/// Packed words dispatched per scheduling wave of the packed kernels
/// (`WAVE_WORDS * lanes` batches per wave). Fixed for the same reason as
/// `WAVE`.
const WAVE_WORDS: usize = 4;

/// The delay model a Monte-Carlo run simulates under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delay {
    /// Functional (zero-delay) switching: [`ZeroDelaySim`] /
    /// [`WideSim`].
    ZeroDelay,
    /// Real-delay, glitch-capturing switching under the library's
    /// transport delays: [`EventDrivenSim`] / [`WideTimedSim`].
    Glitch,
}

/// The simulation kernel (lane width) of a Monte-Carlo run, of
/// [`simulate_lanes`], and of [`crate::timed_activity`] (as
/// [`crate::TimedKernel`]). Every kernel returns bit-identical results;
/// the only difference between kernels is wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McKernel {
    /// One scalar simulator per batch ([`ZeroDelaySim`] or
    /// [`EventDrivenSim`]) — the differential oracle.
    Scalar,
    /// One bit-parallel 64-lane simulator per 64 batches.
    Packed64,
    /// One 256-lane simulator ([`W256`] words) per 256 batches.
    Packed256,
    /// One 512-lane simulator ([`W512`] words) per 512 batches.
    Packed512,
    /// Picks the packed width from the workload size at run time (the
    /// default): [`Packed512`](Self::Packed512) when it is at least 512,
    /// [`Packed256`](Self::Packed256) when at least 256, else
    /// [`Packed64`](Self::Packed64). Result-invariant — every width
    /// computes identical samples.
    #[default]
    Auto,
}

impl McKernel {
    /// Resolves [`Auto`](Self::Auto) against the workload size — the
    /// batch budget of a seeded run, the request count of
    /// [`simulate_lanes`], or the stream transitions of
    /// [`crate::timed_activity`]; explicit kernels resolve to themselves.
    pub fn resolve(self, workload: usize) -> Self {
        match self {
            McKernel::Auto if workload >= W512::LANES => McKernel::Packed512,
            McKernel::Auto if workload >= W256::LANES => McKernel::Packed256,
            McKernel::Auto => McKernel::Packed64,
            explicit => explicit,
        }
    }

    /// Lanes one simulator instance advances per step: 1 for the scalar
    /// kernel, the word's lane count for packed kernels.
    ///
    /// # Panics
    ///
    /// Panics on [`Auto`](Self::Auto) — call [`resolve`](Self::resolve)
    /// first.
    pub fn lanes(self) -> usize {
        match self {
            McKernel::Scalar => 1,
            McKernel::Packed64 => u64::LANES,
            McKernel::Packed256 => W256::LANES,
            McKernel::Packed512 => W512::LANES,
            McKernel::Auto => panic!("McKernel::Auto must be resolved before lanes()"),
        }
    }
}

/// Options controlling a Monte-Carlo power-estimation run.
///
/// # Batching and stopping contract
///
/// Simulation proceeds in batches of [`batch_cycles`](Self::batch_cycles)
/// cycles; each batch contributes one power sample. After at least 5
/// samples, the run stops as soon as the two-sided normal-approximation
/// confidence interval (multiplier [`z`](Self::z)) has half-width below
/// [`target_relative_error`](Self::target_relative_error) × mean, or
/// unconditionally after [`max_batches`](Self::max_batches) batches. The
/// returned [`MonteCarloResult`] reports the achieved half-width so the
/// caller can check which stop fired:
///
/// ```
/// use hlpower_netlist::{gen, streams, Library, Netlist};
/// use hlpower_netlist::{monte_carlo_power, MonteCarloOptions};
///
/// let mut nl = Netlist::new();
/// let a = nl.input_bus("a", 8);
/// let b = nl.input_bus("b", 8);
/// let c0 = nl.constant(false);
/// let s = gen::ripple_adder(&mut nl, &a, &b, c0);
/// nl.output_bus("s", &s);
///
/// let opts = MonteCarloOptions {
///     batch_cycles: 100,          // 100 cycles -> one power sample
///     max_batches: 500,           // hard budget: <= 50_000 cycles
///     target_relative_error: 0.05, // stop at +/-5% of the mean...
///     z: 1.96,                    // ...at 95% confidence
/// };
/// let r = monte_carlo_power(
///     &nl,
///     &Library::default(),
///     streams::random(7, nl.input_count()),
///     &opts,
/// ).unwrap();
///
/// // The stopping rule guarantees the advertised precision (or the
/// // budget ran out — not the case for this easy circuit):
/// assert!(r.batches >= 5 && r.batches <= 500);
/// assert!(r.relative_error() <= 0.05);
/// // Each batch consumed `batch_cycles` vectors; the very first vector
/// // of the run only initializes the simulator (no transition to
/// // measure), so one fewer cycle is counted than vectors consumed.
/// assert_eq!(r.cycles, r.batches as u64 * 100 - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloOptions {
    /// Cycles per batch (each batch yields one power sample).
    pub batch_cycles: usize,
    /// Maximum number of batches.
    pub max_batches: usize,
    /// Stop when the half-width of the confidence interval falls below this
    /// fraction of the running mean.
    pub target_relative_error: f64,
    /// Two-sided confidence multiplier (1.96 ~ 95% under normality).
    pub z: f64,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            batch_cycles: 200,
            max_batches: 200,
            target_relative_error: 0.02,
            z: 1.96,
        }
    }
}

/// Result of a Monte-Carlo power estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Estimated average power, in microwatts.
    pub power_uw: f64,
    /// Half-width of the confidence interval, in microwatts.
    pub half_width_uw: f64,
    /// Number of batches simulated.
    pub batches: usize,
    /// Total cycles simulated.
    pub cycles: u64,
}

impl MonteCarloResult {
    /// Relative half-width of the confidence interval.
    pub fn relative_error(&self) -> f64 {
        if self.power_uw == 0.0 {
            0.0
        } else {
            self.half_width_uw / self.power_uw
        }
    }
}

/// Estimates average power by batched Monte-Carlo simulation over a stream.
///
/// The stream supplies input vectors; each batch of `opts.batch_cycles`
/// cycles contributes one power sample to a [`StoppingReplay`], which
/// stops when the normal-approximation confidence interval is tighter than
/// `opts.target_relative_error` (after at least 5 batches) or when
/// `opts.max_batches` is exhausted.
///
/// For parallel estimation with a determinism guarantee, see
/// [`monte_carlo_power_seeded`].
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists or
/// [`NetlistError::EmptyStream`] if the stream ends before one full batch.
pub fn monte_carlo_power(
    netlist: &Netlist,
    lib: &Library,
    stream: impl IntoIterator<Item = Vec<bool>>,
    opts: &MonteCarloOptions,
) -> Result<MonteCarloResult, NetlistError> {
    obs::MC_RUNS.inc();
    let _t = obs::MC_TIME.span();
    let mut sim = ZeroDelaySim::new(netlist)?;
    let mut it = stream.into_iter();
    let mut replay = StoppingReplay::new(opts);
    for batch in 0..opts.max_batches {
        let _batch_t = obs::MC_BATCH_NS.time();
        let _span = trace::span_dyn("mc", || format!("mc.batch:{batch}"));
        let mut got = 0usize;
        for v in it.by_ref().take(opts.batch_cycles) {
            sim.step(&v)?;
            got += 1;
        }
        if got == 0 {
            break;
        }
        let act = sim.take_activity();
        if replay.push(act.power(netlist, lib).total_power_uw(), act.cycles).is_some() {
            break;
        }
    }
    replay.finish()
}

/// Parallel zero-delay Monte-Carlo power estimation on `HLPOWER_THREADS`
/// workers (all cores when unset) and the default [`McKernel::Auto`].
///
/// `stream_fn` is called once per batch with that batch's *split* RNG
/// stream (`root.split(batch_index)`) and must return the batch's input
/// vectors; typically one of the `_rng` constructors in
/// [`streams`](crate::streams):
///
/// ```
/// use hlpower_netlist::{gen, streams, Library, Netlist};
/// use hlpower_netlist::{monte_carlo_power_seeded, MonteCarloOptions};
///
/// let mut nl = Netlist::new();
/// let a = nl.input_bus("a", 8);
/// let b = nl.input_bus("b", 8);
/// let c0 = nl.constant(false);
/// let s = gen::ripple_adder(&mut nl, &a, &b, c0);
/// nl.output_bus("s", &s);
/// let w = nl.input_count();
///
/// let r = monte_carlo_power_seeded(
///     &nl,
///     &Library::default(),
///     |rng| streams::random_rng(rng, w),
///     42,
///     &MonteCarloOptions::default(),
/// ).unwrap();
/// assert!(r.power_uw > 0.0);
/// ```
///
/// The result never depends on the worker count; see
/// [`monte_carlo_power_seeded_threads_kernel`].
///
/// # Errors
///
/// As [`monte_carlo_power`], plus [`NetlistError::InvalidThreadCount`]
/// for an invalid `HLPOWER_THREADS`.
pub fn monte_carlo_power_seeded<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
{
    let threads = par::num_threads_checked()
        .map_err(|e| NetlistError::InvalidThreadCount { reason: e.to_string() })?;
    seeded(netlist, lib, stream_fn, seed, opts, threads, McKernel::default(), Delay::ZeroDelay)
}

/// Parallel zero-delay Monte-Carlo power estimation with an explicit
/// worker count and simulation kernel.
///
/// Batch `b` is fed by `stream_fn(root.split(b))` under every kernel, a
/// batch's sample is a pure function of the seed and its index, and the
/// stopping decision is a pure function of the ordered sample prefix, so
/// **every thread count and every kernel computes the identical result**;
/// only the count of speculative batches discarded at the stop point (an
/// `hlpower-obs` counter) depends on the kernel's wave granularity.
/// [`McKernel::Auto`] resolves against `opts.max_batches`.
///
/// # Errors
///
/// As [`monte_carlo_power`], plus [`NetlistError::InvalidThreadCount`]
/// when `threads` is 0.
pub fn monte_carlo_power_seeded_threads_kernel<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
    threads: usize,
    kernel: McKernel,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
{
    seeded(netlist, lib, stream_fn, seed, opts, threads, kernel, Delay::ZeroDelay)
}

/// [`monte_carlo_power_seeded_threads_kernel`] under the real-delay
/// [`Delay::Glitch`] model: identical batching, splitting, stopping, and
/// determinism, but each batch is simulated under the library's
/// transport delays, so the power samples include the glitch transitions
/// the zero-delay estimator cannot see (on arithmetic circuits these can
/// dominate — the survey's motivation for real-delay estimation).
///
/// # Errors
///
/// As [`monte_carlo_power_seeded_threads_kernel`].
pub fn monte_carlo_glitch_power_seeded_threads_kernel<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
    threads: usize,
    kernel: McKernel,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
{
    seeded(netlist, lib, stream_fn, seed, opts, threads, kernel, Delay::Glitch)
}

/// The seeded engine: fixed-size speculative waves of words plus the
/// serial stopping-rule replay in batch-index order.
///
/// Batch `b` is lane request `{seed, b, opts.batch_cycles}`; a wave holds
/// `WAVE` batches (scalar) or `WAVE_WORDS` words of `kernel.lanes()`
/// batches (packed), and [`simulate_lanes`] runs each word on the pool.
/// The last word is *ragged* when the remaining budget is not a multiple
/// of the width, so no batch past `max_batches` is simulated. Wave shapes
/// never depend on the thread count, so neither does the result.
#[allow(clippy::too_many_arguments)]
fn seeded<F, I>(
    netlist: &Netlist,
    lib: &Library,
    stream_fn: F,
    seed: u64,
    opts: &MonteCarloOptions,
    threads: usize,
    kernel: McKernel,
    delay: Delay,
) -> Result<MonteCarloResult, NetlistError>
where
    F: Fn(Rng) -> I + Sync,
    I: IntoIterator<Item = Vec<bool>>,
{
    // Surface cyclic-netlist errors once, up front, rather than from
    // whichever worker happens to hit them first.
    ZeroDelaySim::new(netlist)?;
    // One coefficient table for the whole run: converting per-lane
    // activities to power samples is the per-batch fixed cost, and doing
    // it through `Activity::power` (which re-derives load caps and the
    // group breakdown every call) used to dwarf the packed simulation.
    let model = PowerModel::new(netlist, lib);
    if threads == 0 {
        return Err(NetlistError::InvalidThreadCount {
            reason: "explicit worker count 0".to_string(),
        });
    }
    let kernel = kernel.resolve(opts.max_batches);
    let lanes = kernel.lanes();
    obs::MC_RUNS.inc();
    let _t = obs::MC_TIME.span();
    let mut replay = StoppingReplay::new(opts);
    let mut exhausted = false;
    let mut next_batch = 0u64;
    while !exhausted && !replay.is_done() && replay.batches() < opts.max_batches {
        let remaining = opts.max_batches - replay.batches();
        let dispatched = remaining.min(if lanes > 1 { WAVE_WORDS * lanes } else { WAVE });
        let requests: Vec<LaneRequest> = (next_batch..next_batch + dispatched as u64)
            .map(|batch| LaneRequest { seed, batch, cycles: opts.batch_cycles })
            .collect();
        next_batch += dispatched as u64;
        obs::MC_WAVES.inc();
        let wave_span =
            trace::span_dyn("mc", || format!("mc.wave:{}+{dispatched}", requests[0].batch));
        let words: Vec<&[LaneRequest]> = requests.chunks(lanes).collect();
        let wave = par::map_with_threads(threads, &words, |_, word| {
            simulate_lanes(netlist, lib, &model, None, delay, kernel, &stream_fn, word)
        });
        drop(wave_span);
        let mut consumed = 0usize;
        'replay: for outcome in wave {
            for sample in outcome? {
                if replay.is_done() {
                    break 'replay;
                }
                match sample {
                    None => {
                        exhausted = true;
                        break 'replay;
                    }
                    Some((power, cycles)) => {
                        consumed += 1;
                        replay.push(power, cycles);
                    }
                }
            }
        }
        // Batches simulated this wave but never consumed by the stopping
        // rule (speculation past the stop point, the budget, or a dead
        // stream). Pure function of the kernel and the sample prefix.
        obs::MC_DISCARDED_BATCHES.add((dispatched - consumed - usize::from(exhausted)) as u64);
    }
    replay.finish()
}

/// The Monte-Carlo stopping rule as a reusable object: push power samples
/// **in batch-index order** and the replay decides when the run is done
/// and what the result is.
///
/// Both engines run on this type, so any scheduler that produces the same
/// per-batch samples (for example the estimation server's multi-tenant
/// lane packer) and replays them through a `StoppingReplay` is
/// **bit-identical by construction** to the offline entry points. The
/// replay also drives the `monte_carlo` metric counters (`batches`,
/// `cycles`, CI trajectory).
#[derive(Debug, Clone)]
pub struct StoppingReplay {
    opts: MonteCarloOptions,
    samples: Vec<f64>,
    total_cycles: u64,
    stopped: Option<MonteCarloResult>,
}

impl StoppingReplay {
    /// A replay with no samples yet, governed by `opts`.
    pub fn new(opts: &MonteCarloOptions) -> Self {
        StoppingReplay { opts: *opts, samples: Vec::new(), total_cycles: 0, stopped: None }
    }

    /// Samples consumed so far.
    pub fn batches(&self) -> usize {
        self.samples.len()
    }

    /// Whether a stop has fired (confidence target met after >= 5
    /// samples, or the batch budget consumed). Further pushes are
    /// ignored once done.
    pub fn is_done(&self) -> bool {
        self.stopped.is_some()
    }

    /// Running `(mean, half-width)` over the samples so far (`None`
    /// before the first sample). For streamed progress updates; reading
    /// it never perturbs the stopping decision.
    pub fn interim(&self) -> Option<(f64, f64)> {
        if self.samples.is_empty() {
            None
        } else {
            Some(mean_half_width(&self.samples, self.opts.z))
        }
    }

    /// Consumes the next batch's sample (in batch-index order). Returns
    /// the final result as soon as the run is done; pushes after that
    /// are discarded speculation and leave the result untouched.
    pub fn push(&mut self, power: f64, cycles: u64) -> Option<&MonteCarloResult> {
        if self.stopped.is_some() {
            return self.stopped.as_ref();
        }
        self.samples.push(power);
        self.total_cycles += cycles;
        obs::MC_BATCHES.inc();
        obs::MC_CYCLES.add(cycles);
        if self.samples.len() >= 2 {
            let (_, hw) = mean_half_width(&self.samples, self.opts.z);
            obs::MC_CI_HALF_WIDTH_UW.push(hw);
            obs::MC_CI_HALF_WIDTH_NW.record((hw * 1000.0).round() as u64);
        }
        if self.samples.len() >= 5 {
            let (mean, hw) = mean_half_width(&self.samples, self.opts.z);
            if mean > 0.0 && hw / mean < self.opts.target_relative_error {
                self.stopped = Some(MonteCarloResult {
                    power_uw: mean,
                    half_width_uw: hw,
                    batches: self.samples.len(),
                    cycles: self.total_cycles,
                });
            }
        }
        if self.stopped.is_none() && self.samples.len() >= self.opts.max_batches {
            let (mean, hw) = mean_half_width(&self.samples, self.opts.z);
            self.stopped = Some(MonteCarloResult {
                power_uw: mean,
                half_width_uw: hw,
                batches: self.samples.len(),
                cycles: self.total_cycles,
            });
        }
        self.stopped.as_ref()
    }

    /// The result: the stop point if one fired, otherwise the estimate
    /// over every pushed sample (a stream that ended before the budget).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyStream`] when no sample was pushed.
    pub fn finish(self) -> Result<MonteCarloResult, NetlistError> {
        if let Some(r) = self.stopped {
            return Ok(r);
        }
        if self.samples.is_empty() {
            return Err(NetlistError::EmptyStream);
        }
        let (mean, hw) = mean_half_width(&self.samples, self.opts.z);
        Ok(MonteCarloResult {
            power_uw: mean,
            half_width_uw: hw,
            batches: self.samples.len(),
            cycles: self.total_cycles,
        })
    }
}

/// One lane of a [`simulate_lanes`] word: batch `batch` of the
/// Monte-Carlo job rooted at `seed`, simulated for `cycles` vectors of
/// `stream_fn(Rng::seed_from_u64(seed).split(batch))` — exactly the
/// stream that batch of a seeded run consumes, so requests of different
/// jobs can share one word without perturbing each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneRequest {
    /// Root seed of the owning Monte-Carlo job.
    pub seed: u64,
    /// Batch index within that job.
    pub batch: u64,
    /// Input vectors this lane consumes (the job's `batch_cycles`).
    pub cycles: usize,
}

/// Simulates independent Monte-Carlo batches, one per [`LaneRequest`],
/// under `delay` at lane width `width` — the word runner under both the
/// seeded engine and the estimation server's multi-tenant lane packer.
///
/// Each lane runs its own split stream for its own cycle budget, then is
/// masked out (the prefix-closed contract of [`WideSim::step_masked`]),
/// so its `(power, cycles)` sample is **bit-identical** to the same batch
/// simulated alone, whatever its neighbours. Replaying each job's samples
/// through a [`StoppingReplay`] in batch order therefore reproduces the
/// seeded engine exactly.
///
/// [`McKernel::Scalar`] runs each request on its own scalar oracle;
/// [`McKernel::Auto`] resolves against `lanes.len()`; requests beyond one
/// word run as consecutive words. `kernel` is a pre-compiled instruction
/// stream (a kernel-cache hit); `None` compiles from scratch. A lane
/// whose stream yields no vectors reports `None`.
///
/// # Errors
///
/// As [`monte_carlo_power_seeded_threads_kernel`], plus
/// [`NetlistError::KernelMismatch`] for a foreign `kernel` and
/// [`NetlistError::InputWidthMismatch`] for a vector of the wrong width.
#[allow(clippy::too_many_arguments)]
pub fn simulate_lanes<F, I>(
    netlist: &Netlist,
    lib: &Library,
    model: &PowerModel,
    kernel: Option<&CompiledKernel>,
    delay: Delay,
    width: McKernel,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError>
where
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
{
    type Runner<'n, F> = fn(
        &'n Netlist,
        &Library,
        &PowerModel,
        Option<&CompiledKernel>,
        &F,
        &[LaneRequest],
    ) -> Result<Vec<Option<(f64, u64)>>, NetlistError>;
    // One dispatch per call; the step loop below is monomorphized.
    let run: Runner<'_, F> = match (delay, width.resolve(lanes.len())) {
        (Delay::ZeroDelay, McKernel::Scalar) => run_words::<ZeroDelaySim, F, I>,
        (Delay::ZeroDelay, McKernel::Packed64) => run_words::<WideSim<u64>, F, I>,
        (Delay::ZeroDelay, McKernel::Packed256) => run_words::<WideSim<W256>, F, I>,
        (Delay::ZeroDelay, McKernel::Packed512) => run_words::<WideSim<W512>, F, I>,
        (Delay::Glitch, McKernel::Scalar) => run_words::<EventDrivenSim, F, I>,
        (Delay::Glitch, McKernel::Packed64) => run_words::<WideTimedSim<u64>, F, I>,
        (Delay::Glitch, McKernel::Packed256) => run_words::<WideTimedSim<W256>, F, I>,
        (Delay::Glitch, McKernel::Packed512) => run_words::<WideTimedSim<W512>, F, I>,
        (_, McKernel::Auto) => unreachable!("resolve never returns Auto"),
    };
    run(netlist, lib, model, kernel, stream_fn, lanes)
}

/// A simulator [`simulate_lanes`] can drive: `LANES` independent lanes
/// stepped by masked words, finalized into per-lane `(power µW, counted
/// cycles)` samples. The scalar oracles are one-lane instances that read
/// lane 0 of each word.
trait LaneSim<'a>: Sized {
    type W: Word;
    const LANES: usize;
    /// Trace span name of one instance's run.
    const SPAN: &'static str;
    /// A fresh simulator, from `kernel` when given.
    fn build(
        netlist: &'a Netlist,
        kernel: Option<&CompiledKernel>,
        lib: &Library,
    ) -> Result<Self, NetlistError>;
    /// One clock cycle of the lanes set in `active`.
    fn step(&mut self, inputs: &[Self::W], active: Self::W) -> Result<(), NetlistError>;
    /// Per-lane `(power µW, cycles)` of the run so far.
    fn lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)>;
}

impl<'a, W: Word> LaneSim<'a> for WideSim<'a, W> {
    type W = W;
    const LANES: usize = W::LANES;
    const SPAN: &'static str = "mc.word";
    fn build(
        netlist: &'a Netlist,
        kernel: Option<&CompiledKernel>,
        _lib: &Library,
    ) -> Result<Self, NetlistError> {
        match kernel {
            Some(k) => WideSim::with_kernel(netlist, k),
            None => WideSim::new(netlist),
        }
    }
    fn step(&mut self, inputs: &[W], active: W) -> Result<(), NetlistError> {
        self.step_masked(inputs, active)
    }
    fn lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        self.take_lane_powers(model)
    }
}

impl<'a, W: Word> LaneSim<'a> for WideTimedSim<'a, W> {
    type W = W;
    const LANES: usize = W::LANES;
    const SPAN: &'static str = "mc.glitch_word";
    fn build(
        netlist: &'a Netlist,
        kernel: Option<&CompiledKernel>,
        lib: &Library,
    ) -> Result<Self, NetlistError> {
        match kernel {
            Some(k) => WideTimedSim::with_kernel(netlist, lib, k),
            None => WideTimedSim::new(netlist, lib),
        }
    }
    fn step(&mut self, inputs: &[W], active: W) -> Result<(), NetlistError> {
        self.step_masked(inputs, active)
    }
    fn lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        self.take_lane_powers(model)
    }
}

impl<'a> LaneSim<'a> for ZeroDelaySim<'a> {
    type W = u64;
    const LANES: usize = 1;
    const SPAN: &'static str = "mc.batch";
    fn build(
        netlist: &'a Netlist,
        kernel: Option<&CompiledKernel>,
        _lib: &Library,
    ) -> Result<Self, NetlistError> {
        kernel.map_or(Ok(()), |k| k.check_matches(netlist))?;
        ZeroDelaySim::new(netlist)
    }
    fn step(&mut self, inputs: &[u64], _active: u64) -> Result<(), NetlistError> {
        ZeroDelaySim::step(self, &inputs.iter().map(|w| w.lane(0)).collect::<Vec<_>>())
    }
    fn lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        let act = self.take_activity();
        vec![(model.total_power_uw(&act), act.cycles)]
    }
}

impl<'a> LaneSim<'a> for EventDrivenSim<'a> {
    type W = u64;
    const LANES: usize = 1;
    const SPAN: &'static str = "mc.glitch_batch";
    fn build(
        netlist: &'a Netlist,
        kernel: Option<&CompiledKernel>,
        lib: &Library,
    ) -> Result<Self, NetlistError> {
        kernel.map_or(Ok(()), |k| k.check_matches(netlist))?;
        EventDrivenSim::new(netlist, lib)
    }
    fn step(&mut self, inputs: &[u64], _active: u64) -> Result<(), NetlistError> {
        EventDrivenSim::step(self, &inputs.iter().map(|w| w.lane(0)).collect::<Vec<_>>())
    }
    fn lane_powers(&mut self, model: &PowerModel) -> Vec<(f64, u64)> {
        let act = self.take_activity().activity;
        vec![(model.total_power_uw(&act), act.cycles)]
    }
}

/// The one word runner: chunks `lanes` into `S::LANES`-lane words and
/// steps each word until every lane has spent its cycle budget or ended
/// its stream. A ragged word (fewer requests than lanes) starts with its
/// unused trailing lanes already dead.
fn run_words<'a, S, F, I>(
    netlist: &'a Netlist,
    lib: &Library,
    model: &PowerModel,
    kernel: Option<&CompiledKernel>,
    stream_fn: &F,
    lanes: &[LaneRequest],
) -> Result<Vec<Option<(f64, u64)>>, NetlistError>
where
    S: LaneSim<'a>,
    F: Fn(Rng) -> I,
    I: IntoIterator<Item = Vec<bool>>,
{
    let width = netlist.input_count();
    let mut out = Vec::with_capacity(lanes.len());
    for word in lanes.chunks(S::LANES) {
        let _batch_t = obs::MC_BATCH_NS.time();
        let _span =
            trace::span_dyn("mc", || format!("{}:{}+{}", S::SPAN, word[0].batch, word.len()));
        let mut sim = S::build(netlist, kernel, lib)?;
        let mut iters: Vec<I::IntoIter> = word
            .iter()
            .map(|r| stream_fn(Rng::seed_from_u64(r.seed).split(r.batch)).into_iter())
            .collect();
        let mut got = vec![0usize; word.len()];
        let mut words = vec![S::W::zero(); width];
        let mut live = S::W::low_mask(word.len());
        let max_cycles = word.iter().map(|r| r.cycles).max().unwrap_or(0);
        for _ in 0..max_cycles {
            words.iter_mut().for_each(|w| *w = S::W::zero());
            let mut active = S::W::zero();
            for (l, it) in iters.iter_mut().enumerate() {
                // A lane past its own budget (or whose stream died) stays
                // masked: active sets are prefix-closed per lane.
                if !live.lane(l) || got[l] >= word[l].cycles {
                    continue;
                }
                if let Some(v) = it.next() {
                    if v.len() != width {
                        return Err(NetlistError::InputWidthMismatch {
                            got: v.len(),
                            expected: width,
                        });
                    }
                    for (i, &b) in v.iter().enumerate() {
                        words[i].set_lane(l, b);
                    }
                    active.set_lane(l, true);
                    got[l] += 1;
                }
            }
            if active.is_zero() {
                break;
            }
            sim.step(&words, active)?;
            live = active;
        }
        let samples = sim.lane_powers(model);
        out.extend(got.iter().zip(samples).map(|(&g, s)| (g > 0).then_some(s)));
    }
    Ok(out)
}

fn mean_half_width(samples: &[f64], z: f64) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, f64::INFINITY);
    }
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, z * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim64timed::TimedKernel;
    use crate::streams;

    fn adder() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let c0 = nl.constant(false);
        let s = crate::gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        nl
    }

    #[test]
    fn converges_on_random_stimulus() {
        let nl = adder();
        let lib = Library::default();
        let r = monte_carlo_power(
            &nl,
            &lib,
            streams::random(77, nl.input_count()),
            &MonteCarloOptions::default(),
        )
        .unwrap();
        assert!(r.power_uw > 0.0);
        assert!(r.relative_error() <= 0.02 + 1e-9);
        assert!(r.batches >= 5);
    }

    #[test]
    fn matches_exhaustive_average() {
        let nl = adder();
        let lib = Library::default();
        let mc = monte_carlo_power(
            &nl,
            &lib,
            streams::random(5, nl.input_count()),
            &MonteCarloOptions {
                target_relative_error: 0.01,
                max_batches: 400,
                ..Default::default()
            },
        )
        .unwrap();
        let mut sim = ZeroDelaySim::new(&nl).unwrap();
        let act = sim.run(streams::random(123, nl.input_count()).take(40_000)).unwrap();
        let full = act.power(&nl, &lib).total_power_uw();
        let rel = (mc.power_uw - full).abs() / full;
        assert!(rel < 0.03, "mc {:.2} vs full {:.2}", mc.power_uw, full);
    }

    #[test]
    fn empty_stream_is_an_error() {
        let nl = adder();
        let lib = Library::default();
        let err =
            monte_carlo_power(&nl, &lib, Vec::<Vec<bool>>::new(), &MonteCarloOptions::default());
        assert!(matches!(err, Err(NetlistError::EmptyStream)));
    }

    #[test]
    fn seeded_engine_is_bit_identical_across_thread_counts() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions::default();
        let run = |threads: usize| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                99,
                &opts,
                threads,
                McKernel::Auto,
            )
            .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert_eq!(one, run(16));
        assert!(one.power_uw > 0.0);
        assert!(one.relative_error() <= opts.target_relative_error + 1e-9);
    }

    #[test]
    fn packed_kernel_is_bit_identical_to_scalar_kernel() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions::default();
        let run = |kernel: McKernel, threads: usize| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                99,
                &opts,
                threads,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(McKernel::Scalar, 1);
        assert_eq!(scalar, run(McKernel::Packed64, 1));
        assert_eq!(scalar, run(McKernel::Packed64, 4));
        // And on short per-batch streams (lane masking in play).
        let short = MonteCarloOptions { batch_cycles: 37, max_batches: 70, ..Default::default() };
        let run_short = |kernel: McKernel| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w).take(23).collect::<Vec<_>>(),
                5,
                &short,
                2,
                kernel,
            )
            .unwrap()
        };
        assert_eq!(run_short(McKernel::Scalar), run_short(McKernel::Packed64));
    }

    #[test]
    fn auto_kernel_resolves_by_batch_budget() {
        assert_eq!(McKernel::Auto.resolve(1), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(255), McKernel::Packed64);
        assert_eq!(McKernel::Auto.resolve(256), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(511), McKernel::Packed256);
        assert_eq!(McKernel::Auto.resolve(512), McKernel::Packed512);
        assert_eq!(McKernel::default(), McKernel::Auto);
        // Explicit kernels resolve to themselves, whatever the budget.
        for k in [McKernel::Scalar, McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
            assert_eq!(k.resolve(0), k);
            assert_eq!(k.resolve(10_000), k);
        }
        assert_eq!(McKernel::Scalar.lanes(), 1);
        assert_eq!(McKernel::Packed64.lanes(), 64);
        assert_eq!(McKernel::Packed256.lanes(), 256);
        assert_eq!(McKernel::Packed512.lanes(), 512);
    }

    #[test]
    fn wide_kernels_are_bit_identical_to_scalar_kernel() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        // Small batches, no early stop: every kernel must consume the
        // exact same 300-sample prefix.
        let opts = MonteCarloOptions {
            batch_cycles: 20,
            max_batches: 300,
            target_relative_error: 0.0,
            ..Default::default()
        };
        let run = |kernel: McKernel, threads: usize| {
            monte_carlo_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                13,
                &opts,
                threads,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(McKernel::Scalar, 1);
        assert_eq!(scalar.batches, 300);
        for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
            assert_eq!(scalar, run(kernel, 1), "{kernel:?} @ 1 thread");
            assert_eq!(scalar, run(kernel, 4), "{kernel:?} @ 4 threads");
        }
        // Auto resolves to Packed256 for this budget and stays identical.
        assert_eq!(scalar, run(McKernel::Auto, 2));
    }

    #[test]
    fn ragged_batch_budgets_are_exact_at_every_width() {
        // A budget that is not a multiple of any lane width must produce
        // exactly `max_batches` samples — trailing lanes of the final
        // word are masked out, never silently rounded up or down — and
        // stay bit-identical to the scalar kernel.
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        for max_batches in [37usize, 100, 300] {
            let opts = MonteCarloOptions {
                batch_cycles: 25,
                max_batches,
                target_relative_error: 0.0,
                ..Default::default()
            };
            let run = |kernel: McKernel| {
                monte_carlo_power_seeded_threads_kernel(
                    &nl,
                    &lib,
                    |rng| streams::random_rng(rng, w),
                    41,
                    &opts,
                    2,
                    kernel,
                )
                .unwrap()
            };
            let scalar = run(McKernel::Scalar);
            assert_eq!(scalar.batches, max_batches);
            for kernel in [McKernel::Packed64, McKernel::Packed256, McKernel::Packed512] {
                let r = run(kernel);
                assert_eq!(r.batches, max_batches, "{kernel:?} budget {max_batches}");
                assert_eq!(r, scalar, "{kernel:?} budget {max_batches}");
            }
        }
    }

    #[test]
    fn glitch_wide_kernels_are_bit_identical_to_scalar_kernel() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions {
            batch_cycles: 15,
            max_batches: 70,
            target_relative_error: 0.0,
            ..Default::default()
        };
        let run = |kernel: TimedKernel| {
            monte_carlo_glitch_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                33,
                &opts,
                2,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(TimedKernel::Scalar);
        assert_eq!(scalar.batches, 70);
        for kernel in [
            TimedKernel::Packed64,
            TimedKernel::Packed256,
            TimedKernel::Packed512,
            TimedKernel::Auto,
        ] {
            assert_eq!(scalar, run(kernel), "{kernel:?}");
        }
    }

    #[test]
    fn seeded_engine_agrees_with_serial_estimate() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions {
            target_relative_error: 0.01,
            max_batches: 400,
            ..Default::default()
        };
        let par = monte_carlo_power_seeded(&nl, &lib, |rng| streams::random_rng(rng, w), 7, &opts)
            .unwrap();
        let ser = monte_carlo_power(&nl, &lib, streams::random(1234, w), &opts).unwrap();
        let rel = (par.power_uw - ser.power_uw).abs() / ser.power_uw;
        assert!(rel < 0.03, "par {:.2} vs serial {:.2}", par.power_uw, ser.power_uw);
    }

    #[test]
    fn seeded_engine_depends_on_seed() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions { max_batches: 8, ..Default::default() };
        let run = |seed| {
            monte_carlo_power_seeded(&nl, &lib, |rng| streams::random_rng(rng, w), seed, &opts)
                .unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).power_uw, run(6).power_uw);
    }

    #[test]
    fn zero_threads_is_an_error_not_a_clamp() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let err = monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            99,
            &MonteCarloOptions::default(),
            0,
            McKernel::Auto,
        );
        assert!(matches!(err, Err(NetlistError::InvalidThreadCount { .. })), "got {err:?}");
    }

    #[test]
    fn glitch_engine_is_kernel_and_thread_invariant() {
        // Use a multiplier so glitch power actually differs from
        // zero-delay power.
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", 4);
        let b = nl.input_bus("b", 4);
        let p = crate::gen::array_multiplier(&mut nl, &a, &b);
        nl.output_bus("p", &p);
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions { batch_cycles: 40, max_batches: 80, ..Default::default() };
        let run = |kernel: TimedKernel, threads: usize| {
            monte_carlo_glitch_power_seeded_threads_kernel(
                &nl,
                &lib,
                |rng| streams::random_rng(rng, w),
                21,
                &opts,
                threads,
                kernel,
            )
            .unwrap()
        };
        let scalar = run(TimedKernel::Scalar, 1);
        assert_eq!(scalar, run(TimedKernel::Packed64, 1));
        assert_eq!(scalar, run(TimedKernel::Packed64, 4));
        assert_eq!(scalar, run(TimedKernel::Scalar, 3));
        // Glitches make real-delay power strictly exceed zero-delay power
        // for the same stimulus distribution.
        let zd = monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w),
            21,
            &opts,
            2,
            McKernel::Auto,
        )
        .unwrap();
        assert!(scalar.power_uw > zd.power_uw, "glitch {} vs zd {}", scalar.power_uw, zd.power_uw);
    }

    #[test]
    fn seeded_engine_respects_finite_streams() {
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let opts = MonteCarloOptions { batch_cycles: 50, ..Default::default() };
        // Empty per-batch streams -> EmptyStream, like the serial engine.
        let err = monte_carlo_power_seeded(&nl, &lib, |_| Vec::<Vec<bool>>::new(), 1, &opts);
        assert!(matches!(err, Err(NetlistError::EmptyStream)));
        // Short per-batch streams still produce samples.
        let r = monte_carlo_power_seeded(
            &nl,
            &lib,
            |rng| streams::random_rng(rng, w).take(10).collect::<Vec<_>>(),
            1,
            &opts,
        )
        .unwrap();
        assert!(r.batches > 0);
    }

    /// Runs `lanes` through [`simulate_lanes`] and checks every lane
    /// against the same request run alone on the scalar oracle, at every
    /// delay model and width.
    fn assert_lanes_match_solo(nl: &Netlist, lanes: &[LaneRequest]) {
        let lib = Library::default();
        let w = nl.input_count();
        let model = PowerModel::new(nl, &lib);
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let kernel = CompiledKernel::compile(nl).unwrap();
        let run = |delay, width, kernel, lanes: &[LaneRequest]| {
            simulate_lanes(nl, &lib, &model, kernel, delay, width, &stream_fn, lanes).unwrap()
        };
        for delay in [Delay::ZeroDelay, Delay::Glitch] {
            let solo: Vec<_> = lanes
                .iter()
                .map(|r| run(delay, McKernel::Scalar, None, std::slice::from_ref(r))[0])
                .collect();
            for width in
                [McKernel::Scalar, McKernel::Packed64, McKernel::Packed256, McKernel::Packed512]
            {
                let packed = run(delay, width, Some(&kernel), lanes);
                for (l, r) in lanes.iter().enumerate() {
                    assert_eq!(packed[l], solo[l], "{delay:?} {width:?} lane {l} ({r:?})");
                    assert!(packed[l].is_some());
                }
            }
        }
    }

    #[test]
    fn tenant_lanes_are_bit_identical_to_solo_batches() {
        // Heterogeneous tenants — different root seeds, batch indices,
        // and cycle budgets — packed into one word must each produce the
        // exact sample the scalar kernel produces for that batch alone.
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let model = PowerModel::new(&nl, &lib);
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let lanes = [
            LaneRequest { seed: 99, batch: 0, cycles: 60 },
            LaneRequest { seed: 0x1997, batch: 7, cycles: 25 },
            LaneRequest { seed: 99, batch: 3, cycles: 60 },
            LaneRequest { seed: 5, batch: 1, cycles: 1 },
        ];
        assert_lanes_match_solo(&nl, &lanes);
        // Mixed budgets over more requests than one 64-lane word: the
        // second word (and every wider word) is ragged.
        let many: Vec<LaneRequest> = (0..70u64)
            .map(|i| LaneRequest { seed: 7 + i % 3, batch: i, cycles: 1 + (i as usize * 7) % 40 })
            .collect();
        assert_lanes_match_solo(&nl, &many);
        // Packing next to *different* neighbors must not change a sample.
        let run = |kernel, lanes: &[LaneRequest]| {
            simulate_lanes(
                &nl,
                &lib,
                &model,
                kernel,
                Delay::ZeroDelay,
                McKernel::Packed64,
                &stream_fn,
                lanes,
            )
            .unwrap()
        };
        let kernel = CompiledKernel::compile(&nl).unwrap();
        let packed = run(Some(&kernel), &lanes);
        let alone = run(None, &lanes[..1]);
        assert_eq!(alone[0], packed[0]);
        // An empty-stream lane reports None without disturbing neighbors.
        let with_dead = [lanes[0], lanes[1]];
        let dead = simulate_lanes(
            &nl,
            &lib,
            &model,
            None,
            Delay::ZeroDelay,
            McKernel::Packed64,
            &|rng: Rng| {
                let s = rng.clone().next_u64();
                let take = if s == Rng::seed_from_u64(0x1997).split(7).next_u64() { 0 } else { 60 };
                streams::random_rng(rng, w).take(take).collect::<Vec<_>>()
            },
            &with_dead,
        )
        .unwrap();
        assert!(dead[0].is_some());
        assert_eq!(dead[1], None);
    }

    #[test]
    fn tenant_glitch_lanes_are_bit_identical_to_solo_batches() {
        let nl = adder();
        let lanes = [
            LaneRequest { seed: 33, batch: 2, cycles: 15 },
            LaneRequest { seed: 4242, batch: 0, cycles: 40 },
        ];
        assert_lanes_match_solo(&nl, &lanes);
        // A multiplier, where glitch and zero-delay samples differ.
        let mut mul = Netlist::new();
        let a = mul.input_bus("a", 4);
        let b = mul.input_bus("b", 4);
        let p = crate::gen::array_multiplier(&mut mul, &a, &b);
        mul.output_bus("p", &p);
        let mixed: Vec<LaneRequest> = (0..5u64)
            .map(|i| LaneRequest { seed: 21, batch: i, cycles: 10 + 9 * i as usize })
            .collect();
        assert_lanes_match_solo(&mul, &mixed);
    }

    #[test]
    fn foreign_kernel_is_rejected() {
        let nl = adder();
        let mut other = Netlist::new();
        let a = other.input_bus("a", 2);
        other.set_output("y", a[0]);
        let lib = Library::default();
        let model = PowerModel::new(&nl, &lib);
        let kernel = CompiledKernel::compile(&other).unwrap();
        let err = simulate_lanes(
            &nl,
            &lib,
            &model,
            Some(&kernel),
            Delay::ZeroDelay,
            McKernel::Packed64,
            &|rng: Rng| streams::random_rng(rng, nl.input_count()),
            &[LaneRequest { seed: 1, batch: 0, cycles: 5 }],
        );
        assert!(matches!(err, Err(NetlistError::KernelMismatch { .. })), "got {err:?}");
    }

    #[test]
    fn stopping_replay_reproduces_the_engine_exactly() {
        // An external scheduler — here a toy multi-tenant packer that
        // interleaves two jobs' batches into shared words — must land on
        // the engine's exact result when it replays each job's samples
        // through a StoppingReplay in batch order.
        let nl = adder();
        let lib = Library::default();
        let w = nl.input_count();
        let stream_fn = |rng: Rng| streams::random_rng(rng, w);
        let jobs = [
            (99u64, MonteCarloOptions::default()),
            (
                0x1997,
                MonteCarloOptions {
                    batch_cycles: 60,
                    max_batches: 60,
                    target_relative_error: 0.01,
                    ..Default::default()
                },
            ),
        ];
        let offline: Vec<MonteCarloResult> = jobs
            .iter()
            .map(|(seed, opts)| {
                monte_carlo_power_seeded_threads_kernel(
                    &nl,
                    &lib,
                    stream_fn,
                    *seed,
                    opts,
                    1,
                    McKernel::Packed64,
                )
                .unwrap()
            })
            .collect();
        let model = PowerModel::new(&nl, &lib);
        let kernel = CompiledKernel::compile(&nl).unwrap();
        let mut replays: Vec<StoppingReplay> =
            jobs.iter().map(|(_, opts)| StoppingReplay::new(opts)).collect();
        let mut batch = 0u64;
        while replays.iter().any(|r| !r.is_done()) {
            // Pack the next batch of every live job into one word.
            let live: Vec<usize> = (0..jobs.len()).filter(|&j| !replays[j].is_done()).collect();
            let lanes: Vec<LaneRequest> = live
                .iter()
                .map(|&j| LaneRequest { seed: jobs[j].0, batch, cycles: jobs[j].1.batch_cycles })
                .collect();
            let samples = simulate_lanes(
                &nl,
                &lib,
                &model,
                Some(&kernel),
                Delay::ZeroDelay,
                McKernel::Packed64,
                &stream_fn,
                &lanes,
            )
            .unwrap();
            for (slot, &j) in live.iter().enumerate() {
                let (power, cycles) = samples[slot].expect("random streams never end");
                replays[j].push(power, cycles);
            }
            batch += 1;
        }
        for (j, replay) in replays.into_iter().enumerate() {
            assert_eq!(replay.finish().unwrap(), offline[j], "job {j}");
        }
    }

    #[test]
    fn stopping_replay_edge_cases() {
        let opts = MonteCarloOptions { max_batches: 3, ..Default::default() };
        let mut r = StoppingReplay::new(&opts);
        assert!(!r.is_done());
        assert_eq!(r.interim(), None);
        assert!(r.push(1.0, 10).is_none());
        let (m, hw) = r.interim().unwrap();
        assert_eq!(m, 1.0);
        assert!(hw.is_infinite());
        assert!(r.push(2.0, 10).is_none());
        // Budget stop fires on the third push; later pushes are ignored.
        let done = r.push(3.0, 10).cloned().unwrap();
        assert_eq!(done.batches, 3);
        assert_eq!(done.cycles, 30);
        assert!(r.is_done());
        assert_eq!(r.push(99.0, 10).cloned().unwrap(), done);
        assert_eq!(r.finish().unwrap(), done);
        // The exported CI arithmetic is the engine's own.
        let (mean, half) = mean_half_width(&[1.0, 2.0, 3.0], opts.z);
        assert_eq!((mean, half), (done.power_uw, done.half_width_uw));
        // No samples -> EmptyStream, like the engine.
        let empty = StoppingReplay::new(&opts);
        assert!(matches!(empty.finish(), Err(NetlistError::EmptyStream)));
    }
}
