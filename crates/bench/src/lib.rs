//! # hlpower-bench — reproduction harness for the survey's experiments
//!
//! Library side of the `repro` binary: the experiment registry's building
//! blocks ([`experiments`]), the result container and in-tree JSON
//! emitter ([`report`]), the wall-clock timing harness used by the
//! `benches/` micro-benchmarks ([`timing`]), and the measurement harness
//! behind the throughput gates and their `BENCH_*.json` files
//! ([`record`]).
//!
//! Everything here is dependency-free: JSON emission is hand-rolled (see
//! [`report::Json`]) and timing uses `std::time` directly, so `cargo
//! build`/`cargo bench` need no network access.

#![warn(missing_docs)]

pub mod experiments;
pub mod ingest;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod report;
pub mod timing;
