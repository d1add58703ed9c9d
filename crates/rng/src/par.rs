//! A scoped `std::thread` worker pool for embarrassingly parallel
//! estimation work.
//!
//! The pool is deliberately minimal: no queues, no channels, no global
//! state. Each call to [`map`] (or [`map_with_threads`]) spawns scoped
//! workers that pull item indices from a shared atomic counter, then
//! reassembles results **in item order**. Because work items must be
//! independent and results are merged positionally, the output is
//! identical for any worker count — the scheduling order never leaks into
//! the result. Combined with [`Rng::split`](crate::Rng::split) streams
//! keyed by item index, this gives the workspace's determinism contract:
//! seed + any thread count ⇒ bit-identical output.
//!
//! ```
//! use hlpower_rng::par;
//!
//! let squares = par::map_with_threads(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! // Same result at any worker count:
//! assert_eq!(squares, par::map_with_threads(1, &[1, 2, 3, 4, 5], |_, &x| x * x));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hlpower_obs::metrics as obs;
use hlpower_obs::{ctx, trace};

/// The `HLPOWER_THREADS` environment variable holds a value that does not
/// parse as a positive integer.
///
/// Returned by [`num_threads_checked`]; callers that must not silently
/// fall back (e.g. the Monte-Carlo entry points) surface this to the user
/// instead of clamping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadConfigError {
    /// The offending raw value of `HLPOWER_THREADS`.
    pub value: String,
}

impl std::fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HLPOWER_THREADS={:?} is not a positive integer", self.value)
    }
}

impl std::error::Error for ThreadConfigError {}

/// Worker count resolution that rejects invalid `HLPOWER_THREADS` values.
///
/// * unset (or non-unicode) → `Ok(available_parallelism)` (1 if unknown)
/// * set to a positive integer `n` → `Ok(n)`
/// * set to `0` or anything unparseable → `Err(ThreadConfigError)`
pub fn num_threads_checked() -> Result<usize, ThreadConfigError> {
    match std::env::var("HLPOWER_THREADS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(ThreadConfigError { value: v }),
        },
        Err(_) => Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
    }
}

/// Default worker count: the `HLPOWER_THREADS` environment variable if set
/// to a positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if unavailable). Invalid values fall back to the default; use
/// [`num_threads_checked`] to surface them as errors instead.
pub fn num_threads() -> usize {
    num_threads_checked()
        .unwrap_or_else(|_| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Maps `f` over `items` on the default worker count ([`num_threads`]).
///
/// `f` receives `(index, &item)` and results are returned in item order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with_threads(num_threads(), items, f)
}

/// Maps `f` over `items` on exactly `threads` workers.
///
/// Workers claim indices from a shared counter (dynamic load balancing —
/// estimation batches can have very uneven costs), and results are
/// reassembled by index, so the output never depends on `threads`.
///
/// # Panics
///
/// Propagates the first worker panic (by index order) after all workers
/// have stopped.
pub fn map_with_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    obs::POOL_TASKS.add(items.len() as u64);
    if threads == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    obs::POOL_JOBS.inc();
    obs::POOL_WORKERS_SPAWNED.add(threads as u64);
    let _wall = obs::POOL_WALL.span();
    let _job_span = trace::span_dyn("pool", || format!("pool.job:{}x{}", items.len(), threads));
    // The caller's request context (if any) crosses into the scoped
    // workers so their spans stay correlated with the request. Telemetry
    // only — no result depends on it.
    let request_id = ctx::current_request_id();
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let (mut buckets, busy_ns): (Vec<Vec<(usize, R)>>, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let out = {
                        let _ctx_guard = request_id.map(ctx::enter);
                        let _worker_span = trace::span_dyn("pool", || format!("pool.worker:{w}"));
                        let begin = Instant::now();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        (local, begin.elapsed().as_nanos() as u64)
                    };
                    // The scope may return before this thread's TLS
                    // destructors run, so hand the spans over explicitly.
                    trace::flush_thread();
                    out
                })
            })
            .collect();
        let joined: Vec<(Vec<(usize, R)>, u64)> =
            handles.into_iter().map(|h| h.join()).collect::<Result<_, _>>().unwrap_or_else(|e| {
                std::panic::resume_unwind(e);
            });
        let busy = joined.iter().map(|(_, ns)| *ns).sum();
        (joined.into_iter().map(|(local, _)| local).collect(), busy)
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    obs::POOL_BUSY_NS.add(busy_ns);
    obs::POOL_IDLE_NS.add((wall_ns * threads as u64).saturating_sub(busy_ns));
    let mut merged: Vec<(usize, R)> = buckets.drain(..).flatten().collect();
    merged.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(merged.len(), items.len());
    merged.into_iter().map(|(_, r)| r).collect()
}

/// Splits `items` into at most `threads * chunks_per_thread` contiguous
/// slices, maps `f` over the slices in parallel, and concatenates the
/// per-slice outputs in order.
///
/// This is the low-overhead shape for long vectors of cheap work (e.g.
/// evaluating a macro-model over every cycle record): per-item dispatch
/// would cost more than the work itself. The result equals
/// `items.iter().map(per_item).collect()` whenever `f` maps a slice
/// independently of its position, so determinism is preserved for any
/// thread count.
pub fn map_slices<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() < 2 {
        return f(items);
    }
    let chunk = items.len().div_ceil(threads * 4).max(1);
    let slices: Vec<&[T]> = items.chunks(chunk).collect();
    let per_slice = map_with_threads(threads, &slices, |_, s| f(s));
    per_slice.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31)).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = map_with_threads(threads, &items, |_, &x| x.wrapping_mul(31));
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_with_threads(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map_with_threads(4, &[9], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn split_streams_through_pool_are_thread_count_invariant() {
        // The determinism contract end-to-end: per-item RNG streams keyed
        // by index produce identical output at any worker count.
        let root = Rng::seed_from_u64(2024);
        let idx: Vec<usize> = (0..40).collect();
        let run = |threads| {
            map_with_threads(threads, &idx, |i, _| {
                let mut rng = root.split(i as u64);
                (0..100).map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn map_slices_equals_serial_map() {
        let items: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        let serial: Vec<f64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7] {
            let got = map_slices(threads, &items, |s| s.iter().map(|x| x * x).collect());
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn request_context_crosses_into_workers() {
        let _g = ctx::enter(123);
        let items: Vec<usize> = (0..32).collect();
        let seen = map_with_threads(4, &items, |_, _| ctx::current_request_id());
        assert!(seen.iter().all(|&id| id == Some(123)), "{seen:?}");
        drop(_g);
        let seen = map_with_threads(4, &items, |_, _| ctx::current_request_id());
        assert!(seen.iter().all(|&id| id.is_none()), "{seen:?}");
    }

    #[test]
    fn worker_trace_spans_are_collected_when_map_returns() {
        // Every span a worker emits must be in the sink by the time
        // `map_with_threads` returns; a flush left to TLS destructors
        // loses some of them. Repeated, since the loss is a race.
        trace::set_enabled(true);
        let items: Vec<usize> = (0..16).collect();
        for round in 0..50 {
            trace::reset();
            map_with_threads(4, &items, |i, _| {
                let _s = trace::span_dyn("test", || format!("par.test.item:{i}"));
            });
            let events = trace::take_events();
            let items_seen = events.iter().filter(|e| e.name.starts_with("par.test.item")).count();
            assert_eq!(items_seen, items.len(), "round {round}");
        }
        trace::set_enabled(false);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            map_with_threads(4, &items, |i, _| {
                if i == 7 {
                    panic!("worker failure");
                }
                i
            })
        });
        assert!(r.is_err());
    }
}
