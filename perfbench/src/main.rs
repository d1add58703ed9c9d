//! `hlpower-perfbench`: runs one benchmark workload and prints its
//! metrics; see `README.md` beside this crate.
//!
//! ```text
//! hlpower-perfbench --workload <mc_offline|serve_small|repro_suite>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! hlpower-perfbench digests    # prints repro_suite's digest table
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod host;
mod layers;
mod mc;
mod serve;
mod stats;
mod suite;

use std::process::ExitCode;

use host::OpLog;
use stats::{median, tail, Metric};

/// What a workload hands back: its set-up time, its measured ops, and
/// (traced runs only) its per-layer metrics.
pub struct Report {
    /// Median set-up time over the workload's set-up repetitions.
    pub setup_s: f64,
    /// The measured ops.
    pub ops: OpLog,
    /// Per-layer metrics; empty in an untraced run.
    pub layers: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Raw wall-clock figures of a run: host-dependent, so printed for
/// reading and reported by the traced run, but not gated.
fn raw(ops: &OpLog) -> Vec<Metric> {
    let t = tail(&ops.ms).expect("every workload measures at least MIN_OPS ops");
    vec![
        Metric::new("op_p50_ms", median(&ops.ms), "ms"),
        Metric::new("op_tail_ms", t.value, "ms"),
        Metric::new("ops_per_s", ops.ms.len() as f64 / ops.busy_s, "1/s"),
        Metric::new("host_probe_ms", median(&ops.probes), "ms"),
    ]
}

/// The end-to-end metrics of a run. Op times are divided by the probe
/// time taken next to them, so the figures hold steady while the host's
/// speed swings.
fn end_to_end(r: &Report) -> Vec<Metric> {
    let ops = &r.ops;
    let t = tail(&ops.norm).expect("every workload measures at least MIN_OPS ops");
    println!("op_tail_norm is p{} of n={} ops", t.pct, t.n);
    vec![
        Metric::new("setup_s", r.setup_s, "s"),
        Metric::new("ok_frac", (ops.attempted - ops.failed) as f64 / ops.attempted as f64, "frac"),
        Metric::new("op_p50_norm", median(&ops.norm), "probe"),
        Metric::new("op_tail_norm", t.value, "probe"),
        Metric::new("ops_per_kprobe", 1e3 * ops.norm.len() as f64 / ops.busy_probes, "1/kprobe"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ]
}

/// Pins the program's environment-driven settings: one worker thread,
/// no span tracing, no access log. Runs before any thread exists.
fn isolate() {
    for (key, _) in std::env::vars() {
        if key.starts_with("HLPOWER_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("HLPOWER_THREADS", "1");
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("digests") {
        isolate();
        suite::print_digests();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: hlpower-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    isolate();
    let run = match args.workload.as_str() {
        "mc_offline" => mc::run,
        "serve_small" => serve::run,
        "repro_suite" => suite::run,
        other => {
            eprintln!("error: unknown workload `{other}` (mc_offline, serve_small, repro_suite)");
            return ExitCode::from(2);
        }
    };
    let report = run(args.seed, args.seconds, args.trace);
    let mut metrics = end_to_end(&report);
    let raw = raw(&report.ops);
    for m in metrics.iter().chain(&raw) {
        println!("{:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let mut layers = report.layers;
        layers.extend(raw);
        metrics = layers::complete(layers);
        for m in &metrics {
            println!("{:<52} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    let ops = &report.ops;
    println!("{}", stats::result_line(ops.failed == 0, ops.attempted, ops.failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload mc_offline --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mc_offline", 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload mc_offline --seed 7 --seconds 20",
            "--workload mc_offline --seed x --seconds 20 --trace 0",
            "--workload mc_offline --seed 7 --seconds 0 --trace 0",
            "--workload mc_offline --seed 7 --seconds 20 --trace 2",
            "--workload mc_offline --seed 7 --seconds 20 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ok_frac_counts_every_failed_op() {
        let mut ops = OpLog::default();
        for i in 0..20 {
            ops.probes.push(1.0);
            ops.push_serial(1.0 + f64::from(i), 1.0, i != 3);
        }
        let r = Report { setup_s: 0.5, ops, layers: Vec::new() };
        let m = end_to_end(&r);
        let ok = m.iter().find(|m| m.name == "ok_frac").expect("ok_frac");
        assert_eq!(ok.value, 19.0 / 20.0);
    }
}
