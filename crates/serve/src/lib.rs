//! Evaluation service for the ASIP toolchain: serve
//! [`Session`](asip_core::session::Session) evaluations over a wire
//! protocol, and shard N×M grids across worker processes.
//!
//! Three layers, bottom up:
//!
//! - [`wire`] — a length-prefixed, version-stamped, checksummed binary
//!   framing of [`EvalRequest`](asip_core::session::EvalRequest) /
//!   [`EvalOutcome`](asip_core::session::EvalOutcome) built on
//!   `asip_isa::codec`. Malformed frames decode to typed
//!   [`ProtocolError`]s — never a panic, never a hang.
//! - [`server`] / [`client`] — a long-running front-end over one shared
//!   session: thread-per-connection TCP, bounded admission control
//!   (overload answers a typed `Busy`), and the `Metrics` RPC that reports
//!   the process's counters, histograms and cache stats.
//! - [`shard`] / [`worker`] — a coordinator that partitions a grid
//!   deterministically across N spawned worker processes sharing one
//!   `ASIP_CACHE_DIR`, merges request-ordered results byte-identical with
//!   the single-process path, and re-dispatches the cells of a killed
//!   worker (typed [`ServeError::ShardFailed`] after the retry budget).
//!
//! The one-knob entry point is [`run_grid`]: `ShardPlan::new()` follows
//! the `ASIP_SHARDS` environment variable, an explicit
//! [`ShardPlan::shards`] call wins over it.
//!
//! # Fault tolerance
//!
//! Every layer carries deadlines ([`Timeouts`], tunable via
//! [`TIMEOUT_ENV`]), the coordinator retries with seeded
//! exponential-backoff-with-jitter ([`RetryPolicy`]), quarantines and
//! re-probes failing shards, and can degrade to in-process evaluation on
//! total worker loss. The [`faults`] module injects deterministic,
//! seed-driven failures (torn frames, bit flips, drops, stalls, spurious
//! `Busy`, crash-at-Nth-request) through the [`FAULTS_ENV`] spec string —
//! one relaxed atomic load when unset.
//!
//! ```no_run
//! use asip_serve::{run_grid, try_worker_main, ShardPlan};
//!
//! try_worker_main(); // become a worker when spawned with --worker
//! let session = asip_core::session::Session::builder().build();
//! let machines = vec![asip_isa::MachineDescription::ember1()];
//! let workloads = asip_workloads::all();
//! let grid = run_grid(&session, &machines, &workloads, &ShardPlan::new().shards(2)).unwrap();
//! println!("{grid}");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod server;
pub mod shard;
pub mod wire;
pub mod worker;

pub use client::{Client, ServeError, Timeouts, TIMEOUT_ENV};
pub use faults::{FaultPlan, FaultSpecError, FAULTS_ENV};
pub use server::{EvalServer, ServerConfig};
pub use shard::{
    default_shard_mode, format_shard_table, run_grid, run_sharded, run_sharded_metrics,
    run_sharded_with, LocalFallback, RetryPolicy, ShardMode, ShardPlan, WorkerPool, SHARDS_ENV,
};
pub use wire::{read_frame, write_frame, Message, ProtocolError};
pub use worker::{serve_worker, try_worker_main, worker_main, worker_requested, WORKER_FLAG};
