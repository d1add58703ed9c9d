//! Estimation-as-a-service: a zero-dependency power-estimation server.
//!
//! `hlpower-serve` turns the workspace's Monte-Carlo power engine into a
//! long-running daemon on a plain [`std::net::TcpListener`] with a
//! hand-rolled HTTP/1.1 layer ([`http`]). Clients `POST /estimate`
//! netlists in any ingestible format (native `.nl`, structural Verilog,
//! or EDIF — sniffed by `hlpower_netlist::ingest`) plus a stimulus seed
//! and estimation options, and receive JSON power estimates that are
//! **bit-identical** to the offline `repro` runs.
//!
//! Two mechanisms make the service cheap under multi-tenant load:
//!
//! * a **compiled-kernel cache** ([`cache`]) keyed by a hash of the
//!   netlist source — a circuit that streams many requests ingests and
//!   compiles once, under an LRU byte budget; and
//! * a **multi-tenant lane packer** ([`engine`]) that packs batches of
//!   *independent* concurrent requests into spare lanes of one
//!   64/256/512-lane SIMD word, demuxes the per-lane power samples back
//!   to their jobs, and replays each job's samples through the engine's
//!   own serial stopping rule ([`hlpower_netlist::StoppingReplay`]) — so
//!   packing is a pure throughput optimization with no observable effect
//!   on any result.
//!
//! The wire protocol and determinism contract are documented in
//! `docs/SERVER.md`; request-scoped telemetry (request ids, per-stage
//! timings, JSONL access logs — see [`accesslog`]) in
//! `docs/OBSERVABILITY.md`. Live counters are exported at `GET /metrics`
//! as an `hlpower-obs/2` snapshot (`serve` + `serve_stage` sections) or
//! as Prometheus text exposition via content negotiation.

#![warn(missing_docs)]

pub mod accesslog;
pub mod cache;
pub mod client;
pub mod engine;
pub mod http;
pub mod server;

pub use cache::{hash_source, CachedCircuit, KernelCache};
pub use engine::{Engine, JobSpec, JobUpdate};
pub use server::{Server, ServerConfig};
