//! `serve_small`: small estimates posted to an in-process server.
//!
//! Two client threads each run a closed loop against one `Server`
//! (`threads = 1`, no access log, no slow-request dump). Of every 8
//! requests a client sends, 6 are zero-delay posts of
//! `examples/gray_counter4.v` (kernel-cache hits), 1 is a glitch post of
//! `examples/majority.edf`, and 1 is a never-seen 200-gate random netlist
//! emitted as Verilog (a cache miss, so ingest and compile run on the
//! request path). Jobs are 64 batches of 200 cycles at width 256 with the
//! stopping rule off: four jobs fit one word, so concurrent hits
//! co-pack. Stimulus, HTTP, the gather window and the cache dominate;
//! settle is small.
//!
//! Load runs in segments. The host probe runs between segments, and the
//! next segment's miss netlists and their offline references are built
//! there too, outside the timed load.

use std::hint::black_box;
use std::time::Instant;

use hlpower_netlist::{
    emit_verilog, gen, ingest_auto, monte_carlo_glitch_power_seeded_threads_kernel,
    monte_carlo_power_seeded_threads_kernel, streams, CompiledKernel, Library, McKernel,
    MonteCarloOptions, MonteCarloResult, Netlist, PowerModel, TimedKernel,
};
use hlpower_obs::hist::HistSnapshot;
use hlpower_obs::json::{self, Value};
use hlpower_obs::metrics as obs;
use hlpower_rng::Rng;
use hlpower_serve::{client, Server, ServerConfig};

use crate::host::{stolen_ticks, OpLog, Probe};
use crate::layers::{hist_delta, median_of, per_op_counts, time_ms, Phase};
use crate::mc::drain;
use crate::stats::{median, Metric};
use crate::Report;

/// See `host` for why this workload divides by this probe.
const PROBE: Probe = Probe::Latency;

const GRAY: &str = include_str!("../../examples/gray_counter4.v");
const MAJORITY: &str = include_str!("../../examples/majority.edf");

const OPTS: MonteCarloOptions =
    MonteCarloOptions { batch_cycles: 200, max_batches: 64, target_relative_error: 0.0, z: 1.96 };
const WIDTH: u64 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Glitch,
    Miss,
}

/// One client's mix: 6 hits, 1 glitch post, 1 miss in every 8 requests.
const PATTERN: [Kind; 8] =
    [Kind::Hit, Kind::Hit, Kind::Hit, Kind::Glitch, Kind::Hit, Kind::Hit, Kind::Hit, Kind::Miss];
const CLIENTS: usize = 2;
/// Pattern repeats per client per segment.
const SEGMENT_ROUNDS: usize = 4;
/// Distinct seeds for hit and glitch posts; ops cycle through them.
const VARIANTS: usize = 4;
/// Set-up repetitions at each end of the run; the median of all is
/// reported.
const SETUP_REPS: usize = 5;
/// A load segment during which the hypervisor stole this many clock
/// ticks (10 ms each, summed over both vCPUs) or more, about 8% of a
/// ~180 ms segment's CPU, is checked but not timed. Stolen time lands on
/// the misses' long ingest bursts, and no probe loop tracked it: over
/// five unfiltered runs the p99 rose in step with each run's stolen CPU
/// (13.8 probes at 3 s stolen, 19.2 at 11 s).
const STOLEN_TICKS_MAX: u64 = 3;
const MISS_GATES: usize = 200;
const MISS_INPUTS: usize = 16;

/// A request and the offline answer it must reproduce to the bit.
struct Post {
    kind: Kind,
    body: String,
    want: MonteCarloResult,
}

fn body(src: &str, seed: u64, mode: &str) -> String {
    format!(
        "{{\"netlist\": {}, \"seed\": {seed}, \"mode\": \"{mode}\", \"width\": {WIDTH}, \
         \"options\": {{\"batch_cycles\": {}, \"max_batches\": {}, \
         \"target_relative_error\": 0.0, \"z\": 1.96}}}}",
        json::escaped(src),
        OPTS.batch_cycles,
        OPTS.max_batches,
    )
}

/// The offline answer for `src`: the same ingest, seed and options on
/// the 64-lane kernels.
fn reference(src: &str, seed: u64, kind: Kind) -> MonteCarloResult {
    let (_, nl) = ingest_auto(None, src).expect("benchmark inputs ingest");
    let lib = Library::default();
    let w = nl.input_count();
    let stream = |rng| streams::random_rng(rng, w);
    match kind {
        Kind::Glitch => monte_carlo_glitch_power_seeded_threads_kernel(
            &nl,
            &lib,
            stream,
            seed,
            &OPTS,
            1,
            TimedKernel::Packed64,
        ),
        Kind::Hit | Kind::Miss => monte_carlo_power_seeded_threads_kernel(
            &nl,
            &lib,
            stream,
            seed,
            &OPTS,
            1,
            McKernel::Packed64,
        ),
    }
    .expect("reference run")
}

fn post(src: &str, seed: u64, kind: Kind) -> Post {
    let mode = if kind == Kind::Glitch { "glitch" } else { "zero_delay" };
    Post { kind, body: body(src, seed, mode), want: reference(src, seed, kind) }
}

fn random_verilog(rng: &mut Rng, index: u64) -> String {
    let mut nl = Netlist::new();
    gen::random_logic(&mut nl, rng.next_u64(), MISS_INPUTS, MISS_GATES, 8);
    emit_verilog(&nl, &format!("miss{index}"))
}

/// Whether a response is a success that reproduces `p.want` to the bit
/// and reports the expected cache outcome.
fn response_ok(status: u16, body: &str, p: &Post) -> bool {
    let Ok(v) = json::parse(body) else { return false };
    let bits = |k: &str| v.get(k).and_then(Value::as_f64).map(f64::to_bits);
    let cache = if p.kind == Kind::Miss { "miss" } else { "hit" };
    status == 200
        && v.get("ok").and_then(Value::as_bool) == Some(true)
        && bits("power_uw") == Some(p.want.power_uw.to_bits())
        && bits("half_width_uw") == Some(p.want.half_width_uw.to_bits())
        && v.get("batches").and_then(Value::as_u64) == Some(p.want.batches as u64)
        && v.get("cycles").and_then(Value::as_u64) == Some(p.want.cycles)
        && v.get("cache").and_then(Value::as_str) == Some(cache)
}

/// Kernel-cache budget: room for the two examples and a few dozen
/// misses, so evictions keep memory flat however long the run is.
const CACHE_BYTES: usize = 4 << 20;

fn config() -> ServerConfig {
    // Every field that `Default` would take from the environment is set
    // here, so an exported HLPOWER_ACCESS_LOG cannot add file writes.
    ServerConfig {
        threads: 1,
        cache_bytes: CACHE_BYTES,
        access_log: None,
        slow_ms: None,
        ..ServerConfig::default()
    }
}

/// One completed request.
struct Sample {
    kind: Kind,
    ms: f64,
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `trace` is set).
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rng = Rng::seed_from_u64(seed);
    let hits: Vec<Post> = (0..VARIANTS).map(|_| post(GRAY, rng.next_u64(), Kind::Hit)).collect();
    let glitches: Vec<Post> =
        (0..VARIANTS).map(|_| post(MAJORITY, rng.next_u64(), Kind::Glitch)).collect();

    // The load runs on the last of the opening set-ups.
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let (secs, s) = set_up(&hits[0], &glitches[0]);
        setup.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up repetition");
    let addr = server.addr().to_string();
    let mut load = Segments {
        addr,
        hits,
        glitches,
        rng,
        misses: 0,
        probe: PROBE.ms(),
        segments: 0,
        untimed: 0,
    };

    let mut layers = Vec::new();
    let ops = if trace {
        let (mut ops, _) = load.measure(seconds / 2.0, None);
        let untraced_norm = median(&ops.norm);
        let before = Window::open();
        let mut work = Phase::default();
        let (traced, samples) = load.measure(seconds / 2.0, Some(&mut work));
        layers = before.close();
        layers.extend(work.into_metrics());
        layers.push(Metric::new(
            "trace_overhead_frac",
            median(&traced.norm) / untraced_norm - 1.0,
            "frac",
        ));
        for (kind, name) in [
            (Kind::Hit, "serve.hit_p50_ms"),
            (Kind::Glitch, "serve.glitch_p50_ms"),
            (Kind::Miss, "serve.miss_p50_ms"),
        ] {
            let ms: Vec<f64> = samples.iter().filter(|s| s.kind == kind).map(|s| s.ms).collect();
            layers.push(Metric::new(name, median(&ms), "ms"));
        }
        ops.extend(traced);
        layers.extend(layer_metrics(&mut load.rng));
        ops
    } else {
        load.measure(seconds, None).0
    };
    server.stop();
    println!(
        "serve_small: {} of {} load segments untimed for stolen CPU",
        load.untimed, load.segments
    );
    if trace {
        layers.push(Metric::new(
            "serve.untimed_segment_frac",
            load.untimed as f64 / load.segments as f64,
            "frac",
        ));
    }
    for _ in 0..SETUP_REPS {
        let (secs, s) = set_up(&load.hits[0], &load.glitches[0]);
        setup.push(secs);
        s.stop();
    }
    Report { setup_s: median(&setup), ops, layers }
}

/// One set-up: start a server and warm its kernel cache with one post of
/// each example circuit. Seconds at the reference host speed.
fn set_up(hit: &Post, glitch: &Post) -> (f64, Server) {
    let t = Instant::now();
    let s = Server::start(config()).expect("bind a localhost port");
    let addr = s.addr().to_string();
    for p in [hit, glitch] {
        let r = client::request(&addr, "POST", "/estimate", Some(&p.body)).expect("warm post");
        assert_eq!(r.status, 200, "warm-up post failed: {}", r.body);
    }
    (PROBE.at_reference_s(t.elapsed().as_secs_f64()), s)
}

struct Segments {
    addr: String,
    hits: Vec<Post>,
    glitches: Vec<Post>,
    rng: Rng,
    misses: u64,
    /// The probe taken after the last segment (or before the first).
    probe: f64,
    /// Load segments run, and those left untimed for stolen CPU.
    segments: u64,
    untimed: u64,
}

impl Segments {
    /// Runs load segments until `seconds` of load have been timed. Every
    /// segment's answers are checked; a segment the hypervisor stole CPU
    /// from (see [`STOLEN_TICKS_MAX`]) is not timed unless the run has
    /// already taken 1.5 times its budget. With `work`, the program's
    /// Monte-Carlo and simulator counters are
    /// diffed around each segment's load only (so the offline references
    /// built between segments are not counted as server work) and
    /// recorded per request.
    fn measure(&mut self, seconds: f64, mut work: Option<&mut Phase>) -> (OpLog, Vec<Sample>) {
        let mut log = OpLog::default();
        let mut all = Vec::new();
        log.probes.push(self.probe);
        let start = Instant::now();
        while log.busy_s < seconds {
            // Untimed: this segment's never-seen circuits and references.
            let misses: Vec<Post> = (0..CLIENTS * SEGMENT_ROUNDS)
                .map(|_| {
                    let src = random_verilog(&mut self.rng, self.misses);
                    self.misses += 1;
                    post(&src, self.rng.next_u64(), Kind::Miss)
                })
                .collect();
            let plans: Vec<Vec<&Post>> = (0..CLIENTS)
                .map(|c| {
                    let mut plan = Vec::with_capacity(SEGMENT_ROUNDS * PATTERN.len());
                    for j in 0..SEGMENT_ROUNDS * PATTERN.len() {
                        // Clients run the pattern half a cycle apart.
                        let k = j + c * PATTERN.len() / 2;
                        let v = (j / PATTERN.len() + c) % VARIANTS;
                        plan.push(match PATTERN[k % PATTERN.len()] {
                            Kind::Hit => &self.hits[(k + v) % VARIANTS],
                            Kind::Glitch => &self.glitches[v],
                            Kind::Miss => &misses[c * SEGMENT_ROUNDS + j / PATTERN.len()],
                        });
                    }
                    plan
                })
                .collect();

            let before = work.as_ref().map(|_| obs::snapshot());
            let stolen_before = stolen_ticks();
            let t = Instant::now();
            let results: Vec<Vec<(f64, u16, String)>> = std::thread::scope(|s| {
                let handles: Vec<_> = plans
                    .iter()
                    .map(|plan| {
                        let addr = &self.addr;
                        s.spawn(move || {
                            plan.iter()
                                .map(|p| {
                                    let t = Instant::now();
                                    let r =
                                        client::request(addr, "POST", "/estimate", Some(&p.body));
                                    let ms = t.elapsed().as_secs_f64() * 1e3;
                                    match r {
                                        Ok(r) => (ms, r.status, r.body),
                                        Err(e) => (ms, 0, e.to_string()),
                                    }
                                })
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("client thread")).collect()
            });
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            let stolen = stolen_ticks().saturating_sub(stolen_before);
            if let (Some(w), Some(before)) = (work.as_deref_mut(), before) {
                let requests = plans.iter().map(Vec::len).sum::<usize>() as f64;
                for (name, n) in per_op_counts(&obs::snapshot().delta(&before)) {
                    w.push(name, n / requests, "count");
                }
            }

            let probe = PROBE.ms();
            log.probes.push(probe);
            let host = (self.probe + probe) / 2.0;
            self.probe = probe;
            let timed = stolen < STOLEN_TICKS_MAX || start.elapsed().as_secs_f64() > 1.5 * seconds;
            self.segments += 1;
            self.untimed += u64::from(!timed);
            if timed {
                log.busy_s += wall_ms / 1e3;
                log.busy_probes += wall_ms / host;
            }
            for (plan, res) in plans.iter().zip(results) {
                for (p, (ms, status, body)) in plan.iter().zip(res) {
                    log.attempted += 1;
                    log.failed += u64::from(!response_ok(status, &body, p));
                    if timed {
                        log.ms.push(ms);
                        log.norm.push(ms / host);
                        all.push(Sample { kind: p.kind, ms });
                    }
                }
            }
        }
        (log, all)
    }
}

/// Registry state at the start of a traced window.
struct Window {
    snap: hlpower_obs::report::Snapshot,
    stages: Vec<HistSnapshot>,
    occupancy: HistSnapshot,
}

const STAGES: [(&str, &hlpower_obs::hist::Hist); 6] = [
    ("parse", &obs::SERVE_STAGE_PARSE_NS),
    ("cache", &obs::SERVE_STAGE_CACHE_NS),
    ("queue", &obs::SERVE_STAGE_QUEUE_NS),
    ("pack", &obs::SERVE_STAGE_PACK_NS),
    ("sim", &obs::SERVE_STAGE_SIM_NS),
    ("finalize", &obs::SERVE_STAGE_FINALIZE_NS),
];

impl Window {
    fn open() -> Self {
        Window {
            snap: obs::snapshot(),
            stages: STAGES.iter().map(|(_, h)| h.snapshot()).collect(),
            occupancy: obs::SERVE_LANE_OCCUPANCY.snapshot(),
        }
    }

    /// The server's own view of the window: per-stage latency quantiles,
    /// cache and packing ratios, and errors.
    fn close(self) -> Vec<Metric> {
        let d = obs::snapshot().delta(&self.snap);
        let mut out = Vec::new();
        for ((stage, h), before) in STAGES.iter().zip(&self.stages) {
            let w = hist_delta(&h.snapshot(), before);
            out.push(Metric::new(
                format!("serve_stage.{stage}_p50_ms"),
                w.quantile(0.50) as f64 / 1e6,
                "ms",
            ));
            out.push(Metric::new(
                format!("serve_stage.{stage}_p99_ms"),
                w.quantile(0.99) as f64 / 1e6,
                "ms",
            ));
        }
        let n = |k: &str| d.count("serve", k).expect("serve counter") as f64;
        let occupancy = hist_delta(&obs::SERVE_LANE_OCCUPANCY.snapshot(), &self.occupancy);
        let solo = occupancy.buckets[1] as f64;
        out.push(Metric::new(
            "serve.cache_hit_ratio",
            n("cache_hits") / (n("cache_hits") + n("cache_misses")),
            "frac",
        ));
        out.push(Metric::new(
            "serve.lanes_per_word",
            n("packed_lanes") / n("packed_words"),
            "count",
        ));
        out.push(Metric::new("serve.copacked_frac", 1.0 - solo / occupancy.count as f64, "frac"));
        out.push(Metric::new("serve.requests_err", n("requests_err"), "count"));
        out
    }
}

/// Bulk calls into the layers a request crosses, on this workload's own
/// circuits: both examples and one miss-sized random netlist.
fn layer_metrics(rng: &mut Rng) -> Vec<Metric> {
    let miss = random_verilog(rng, u64::MAX);
    let sources = [GRAY, MAJORITY, miss.as_str()];
    let lib = Library::default();
    let nets: Vec<Netlist> =
        sources.iter().map(|s| ingest_auto(None, s).expect("benchmark inputs ingest").1).collect();
    let gray_inputs = nets[0].input_count();
    vec![
        Metric::new(
            "netlist.ingest.parse_ms",
            median_of(9, || time_ms(|| sources.map(|s| ingest_auto(None, s).map(|r| r.1)))),
            "ms",
        ),
        Metric::new(
            "netlist.power.model_build_ms",
            median_of(9, || {
                time_ms(|| nets.iter().map(|n| PowerModel::new(n, &lib)).collect::<Vec<_>>())
            }),
            "ms",
        ),
        Metric::new(
            "netlist.sim64.compile_ms",
            median_of(9, || {
                time_ms(|| nets.iter().map(CompiledKernel::compile).collect::<Vec<_>>())
            }),
            "ms",
        ),
        Metric::new(
            "netlist.streams.stimulus_ms",
            median_of(9, || time_ms(|| drain(black_box(1), gray_inputs, &OPTS))),
            "ms",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_or_wrong_cache_state_fails_the_request() {
        let server = Server::start(config()).expect("bind");
        let addr = server.addr().to_string();
        let p = post(GRAY, 11, Kind::Hit);
        // The first post of a circuit is a miss; the second hits.
        client::request(&addr, "POST", "/estimate", Some(&p.body)).expect("post");
        let r = client::request(&addr, "POST", "/estimate", Some(&p.body)).expect("post");
        assert!(response_ok(r.status, &r.body, &p), "{}", r.body);

        let mut flipped = Post { kind: p.kind, body: p.body.clone(), want: p.want };
        flipped.want.power_uw = f64::from_bits(p.want.power_uw.to_bits() ^ 1);
        assert!(!response_ok(r.status, &r.body, &flipped));
        let as_miss = Post { kind: Kind::Miss, body: p.body.clone(), want: p.want };
        assert!(!response_ok(r.status, &r.body, &as_miss));
        assert!(!response_ok(500, &r.body, &p));
        assert!(!response_ok(200, "not json", &p));
        server.stop();
    }

    #[test]
    fn glitch_posts_match_the_offline_glitch_engine() {
        let server = Server::start(config()).expect("bind");
        let addr = server.addr().to_string();
        let p = post(MAJORITY, 5, Kind::Glitch);
        client::request(&addr, "POST", "/estimate", Some(&p.body)).expect("post");
        let r = client::request(&addr, "POST", "/estimate", Some(&p.body)).expect("post");
        assert!(response_ok(r.status, &r.body, &p), "{}", r.body);
        server.stop();
    }
}
