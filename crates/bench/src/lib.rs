//! Experiment harness regenerating every table and figure of
//! *"Serialization-Aware Mini-Graphs"* (MICRO 2006).
//!
//! The `reproduce` binary regenerates every published result;
//! [`figures`] holds the sweeps it runs and one view per output. The
//! shared machinery lives in [`harness`] (benchmark contexts, whose
//! [`BenchContext::prepare`] turns a [`SweepCell`] into a simulation
//! input and makes each selection once per context), [`runner`] (the parallel [`SweepSpec`] executor),
//! [`supervisor`] (panic isolation, watchdogs, retry, and graceful
//! shutdown around it), [`config`] (the single typed parse point for
//! every `MG_*` environment knob), [`journal`] (crash-safe resume for
//! interrupted sweeps), [`fault`] (deterministic fault injection behind
//! the `fault-inject` feature), [`cache`] (content-keyed context
//! memoization), and [`stats`]. See `EXPERIMENTS.md` at the repository
//! root for the paper-vs-measured record.

#![warn(missing_docs)]
// `signals` needs two `asm!`-wrapped syscalls for libc-free
// SIGINT/SIGTERM watching; everything else stays safe.
#![deny(unsafe_code)]

pub mod binfmt;
pub mod cache;
pub mod config;
pub mod fault;
pub mod figures;
pub mod golden;
pub mod harness;
pub mod journal;
pub mod runner;
pub mod signals;
pub mod stats;
pub mod supervisor;

pub use cache::CacheOutcome;
pub use config::{default_jobs, parse_jobs, try_default_jobs, Config};
#[cfg(feature = "obs")]
pub use harness::ObsSection;
pub use harness::{
    machine_fingerprint, save_bin, save_json, BenchContext, BenchContextBuilder, BenchError,
    Envelope, Scheme, SchemeRun, SCHEMA_VERSION,
};
pub use journal::Journal;
pub use runner::{
    par_map, par_map_catch, BenchProfile, BenchRows, InputSel, SweepCell, SweepResult, SweepSpec,
    SweepSummary, TaskPanic,
};
pub use stats::{mean, s_curve};
pub use supervisor::{
    build_context, clear_shutdown, request_shutdown, run_cli, shutdown_requested, supervise_cell,
};
