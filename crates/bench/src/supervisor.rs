//! Cell supervision for the sweep runner: panic isolation, wall-clock
//! watchdogs, bounded retry, and cooperative shutdown.
//!
//! [`SweepSpec::run`](crate::SweepSpec::run) delegates every cell
//! execution to [`run_cell_supervised`], which layers, outermost first:
//!
//! 1. **Shutdown check** — once [`request_shutdown`] has been called
//!    (cooperatively, or by the SIGINT/SIGTERM watcher a graceful sweep
//!    installs), cells that have not started yield
//!    [`BenchError::Interrupted`] instead of running; in-flight cells
//!    drain normally.
//! 2. **Retry with backoff** — *transient-class* failures (a panic or a
//!    watchdog timeout, the kinds injectable by [`crate::fault`] and
//!    producible by environmental flakiness) are retried up to the
//!    spec's retry budget with short exponential backoff. Deterministic
//!    failures ([`BenchError::CycleCap`], execution and configuration
//!    errors) are never retried: they would fail identically every time.
//! 3. **Watchdog** — with a limit configured, the cell runs on a helper
//!    thread and the worker waits with a deadline; a cell that overruns
//!    is reported as [`BenchError::TimedOut`] and its thread is
//!    *abandoned* (a stuck simulation cannot be cancelled from outside;
//!    the leaked thread is bounded by the retry budget and the process
//!    exits at sweep end anyway). Without a watchdog the cell runs
//!    inline and costs nothing extra.
//! 4. **Panic isolation** — the cell body (including fault-injection
//!    hooks) runs under [`std::panic::catch_unwind`]; a panicking cell
//!    becomes a [`BenchError::Panicked`] row carrying the payload, and
//!    the other 77 benchmarks of a figure still complete.
//!
//! [`run_cli`] is the binary entry point that turns all of this on for
//! a list of sweeps: journaling to `results/journal/`, resume via
//! `MG_RESUME=1`, graceful signal shutdown, one telemetry snapshot and
//! trace for the whole process, and the conventional exit codes (`2`
//! for configuration errors, `130` after an interrupt).

use crate::config::Config;
use crate::harness::{BenchContext, BenchError, SchemeRun};
use crate::runner::{SweepCell, SweepResult, SweepSpec};
use crate::signals::SignalWatch;
use mg_obs::{mg_debug, mg_error, mg_info, tele_counter};
use mg_sim::MachineConfig;
use mg_workloads::{BenchmarkSpec, InputSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Process-wide shutdown flag. One flag (not per-sweep) because it
/// mirrors what a signal means: this *process* should wind down.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests cooperative sweep shutdown: cells not yet started report
/// [`BenchError::Interrupted`], in-flight cells drain, the journal keeps
/// every finished row. Safe to call from any thread (including the
/// signal watcher).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether shutdown has been requested and not yet cleared.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Re-arms after a drained shutdown so a later sweep in the same process
/// (tests, resume-in-process) can run.
pub fn clear_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// Renders a `catch_unwind` payload for [`BenchError::Panicked`].
pub(crate) fn panic_payload(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What a cell returns besides the condensed run: the observer report
/// when the sweep is instrumented, nothing otherwise.
#[cfg(feature = "obs")]
pub(crate) type ObsPayload = Option<Box<mg_obs::ObsReport>>;
/// See the `obs` variant.
#[cfg(not(feature = "obs"))]
pub(crate) type ObsPayload = ();

/// The observer configuration handed to each cell (absent without the
/// `obs` feature).
#[cfg(feature = "obs")]
pub(crate) type ObsArg = Option<mg_obs::ObsConfig>;
/// See the `obs` variant.
#[cfg(not(feature = "obs"))]
pub(crate) type ObsArg = ();

/// The raw cell body: fault hooks, then the (optionally instrumented)
/// scheme run. Everything that can panic or stall lives in here, so the
/// supervision layers wrap exactly this.
fn run_cell_once(
    ctx: &BenchContext,
    cell: &SweepCell,
    cell_idx: usize,
    obs: ObsArg,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    crate::fault::before_cell(&ctx.spec.name, cell_idx);
    #[cfg(feature = "obs")]
    {
        if let Some(oc) = obs {
            return ctx
                .try_run_with_obs(cell.scheme, &cell.machine, cell.mg, cell.sel.as_ref(), oc)
                .map(|(run, report)| (run, Some(Box::new(report))));
        }
        ctx.try_run_with(cell.scheme, &cell.machine, cell.mg, cell.sel.as_ref())
            .map(|run| (run, None))
    }
    #[cfg(not(feature = "obs"))]
    {
        let () = obs;
        ctx.try_run_with(cell.scheme, &cell.machine, cell.mg, cell.sel.as_ref())
            .map(|run| (run, ()))
    }
}

/// [`run_cell_once`] with a panic turned into [`BenchError::Panicked`].
fn run_cell_caught(
    ctx: &BenchContext,
    cell: &SweepCell,
    cell_idx: usize,
    obs: ObsArg,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    catch_unwind(AssertUnwindSafe(|| run_cell_once(ctx, cell, cell_idx, obs))).unwrap_or_else(|e| {
        Err(BenchError::Panicked {
            bench: ctx.spec.name.clone(),
            cell: cell_idx,
            payload: panic_payload(e),
        })
    })
}

/// One supervised attempt: panic isolation always, watchdog when a limit
/// is set.
fn attempt_cell(
    ctx: &Arc<BenchContext>,
    cell: &SweepCell,
    cell_idx: usize,
    watchdog: Option<Duration>,
    obs: ObsArg,
) -> Result<(SchemeRun, ObsPayload), BenchError> {
    let Some(limit) = watchdog else {
        return run_cell_caught(ctx, cell, cell_idx, obs);
    };
    let (tx, rx) = mpsc::channel();
    let (ctx2, cell2) = (Arc::clone(ctx), cell.clone());
    let spawned = std::thread::Builder::new()
        .name(format!("mg-cell-{}-{cell_idx}", ctx.spec.name))
        .spawn(move || {
            let _ = tx.send(run_cell_caught(&ctx2, &cell2, cell_idx, obs));
        });
    let Ok(handle) = spawned else {
        // Cannot spawn a helper (thread exhaustion): run inline without
        // a watchdog rather than fail the cell.
        return attempt_cell(ctx, cell, cell_idx, None, obs);
    };
    match rx.recv_timeout(limit) {
        Ok(res) => {
            let _ = handle.join();
            res
        }
        Err(_) => Err(BenchError::TimedOut {
            bench: ctx.spec.name.clone(),
            cell: cell_idx,
            limit_ms: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
        }),
    }
}

/// Whether an error is worth retrying: only the transient class. A
/// deterministic failure retried N times is the same failure N times
/// slower.
fn transient(e: &BenchError) -> bool {
    matches!(e, BenchError::Panicked { .. } | BenchError::TimedOut { .. })
}

/// Runs one cell under the full supervision stack. Returns the result
/// and how many retries were spent on it.
pub(crate) fn run_cell_supervised(
    ctx: &Arc<BenchContext>,
    cell: &SweepCell,
    cell_idx: usize,
    watchdog: Option<Duration>,
    max_retries: u32,
    obs: ObsArg,
) -> (Result<(SchemeRun, ObsPayload), BenchError>, u32) {
    let mut retries = 0u32;
    loop {
        if shutdown_requested() {
            return (
                Err(BenchError::Interrupted {
                    bench: ctx.spec.name.clone(),
                }),
                retries,
            );
        }
        let res = {
            let _cell_span = mg_obs::span("cell", format!("{}/cell{cell_idx}", ctx.spec.name));
            attempt_cell(ctx, cell, cell_idx, watchdog, obs)
        };
        match &res {
            Err(BenchError::Panicked { .. }) => {
                tele_counter!("mg_supervisor_panics_total").inc();
            }
            Err(BenchError::TimedOut { .. }) => {
                tele_counter!("mg_supervisor_watchdog_fires_total").inc();
            }
            _ => {}
        }
        match &res {
            Err(e) if transient(e) && retries < max_retries => {
                retries += 1;
                tele_counter!("mg_supervisor_retries_total").inc();
                // Exponential backoff, 10ms doubling to a 500ms cap:
                // enough to ride out environmental hiccups without
                // stalling a sweep on a deterministic panic.
                let backoff_ms = (10u64 << (retries - 1).min(6)).min(500);
                mg_debug!("{e}; retry {retries}/{max_retries} after {backoff_ms}ms");
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            _ => return (res, retries),
        }
    }
}

/// Builds one benchmark's context with the same supervision cells get:
/// after [`request_shutdown`] it builds nothing and reports
/// [`BenchError::Interrupted`], and a panicking build becomes a
/// [`BenchError::Panicked`] error (cell 0, payload prefixed
/// `context build:`) instead of unwinding into the caller. Batch sweeps
/// and `mg-serve` workers both build through here, so a failed context
/// fails their cells identically.
pub fn build_context(
    spec: &BenchmarkSpec,
    train_cfg: &MachineConfig,
    train_input: InputSet,
    run_input: InputSet,
    disk_cache: bool,
) -> Result<Arc<BenchContext>, BenchError> {
    if shutdown_requested() {
        return Err(BenchError::Interrupted {
            bench: spec.name.clone(),
        });
    }
    let _ctx_span = mg_obs::span("stage", format!("{}/context", spec.name));
    catch_unwind(AssertUnwindSafe(|| {
        BenchContext::builder(spec, train_cfg)
            .train_input(train_input)
            .run_input(run_input)
            .disk_cache(disk_cache)
            .build()
    }))
    .unwrap_or_else(|e| {
        Err(BenchError::Panicked {
            bench: spec.name.clone(),
            cell: 0,
            payload: format!("context build: {}", panic_payload(e)),
        })
    })
    .map(Arc::new)
}

/// Runs one cell under the full supervision stack without the pipeline
/// observer attached — the entry point `mg-serve` workers use, sharing
/// shutdown, retry, and panic isolation with batch sweeps.
///
/// `deadline` is the absolute expiry of a remote client's `deadline_ms`
/// budget. With one, the cell runs under a watchdog set to the
/// remaining budget, an already-expired deadline short-circuits to
/// [`BenchError::TimedOut`] without running anything, and the retry
/// budget is zeroed (a retry could only finish even later).
pub fn supervise_cell(
    ctx: &Arc<BenchContext>,
    cell: &SweepCell,
    cell_idx: usize,
    max_retries: u32,
    deadline: Option<Instant>,
) -> Result<SchemeRun, BenchError> {
    let (watchdog, max_retries) = match deadline {
        None => (None, max_retries),
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                tele_counter!("mg_supervisor_deadline_expiries_total").inc();
                return Err(BenchError::TimedOut {
                    bench: ctx.spec.name.clone(),
                    cell: cell_idx,
                    limit_ms: 0,
                });
            }
            (Some(remaining), 0)
        }
    };
    #[cfg(feature = "obs")]
    let obs: ObsArg = None;
    #[cfg(not(feature = "obs"))]
    let obs: ObsArg = ();
    let (res, _retries) = run_cell_supervised(ctx, cell, cell_idx, watchdog, max_retries, obs);
    res.map(|(run, _payload)| run)
}

/// The standard binary entry point: runs `specs` one after another,
/// each journaled, resumable and signal-aware, under the knobs of `cfg`
/// (read once by [`crate::config::Config::init_cli`]), and exits the
/// process instead of returning on failure. `name` names the telemetry
/// artifacts under `results/`. See [`run_sweeps`].
pub fn run_cli(cfg: &Config, name: &str, specs: Vec<SweepSpec>) -> Vec<SweepResult> {
    run_sweeps(cfg, name, specs, Path::new("results"))
        .unwrap_or_else(|code| std::process::exit(code))
}

/// [`run_cli`] without leaving the process: `Err` carries the exit
/// status `run_cli` exits with.
///
/// - Journals every finished row (under `results/journal/` by default)
///   and clears the journals once every sweep has completed without
///   interruption; `MG_JOURNAL_KEEP=1` keeps them for audits and CI.
/// - `MG_RESUME=1` replays journaled rows from a previous interrupted
///   run bit-identically, in every sweep of the list.
/// - A SIGINT/SIGTERM watcher runs for the whole list: the first signal
///   drains in-flight benchmarks, flushes the journal (the footer prints
///   a resume hint), skips the remaining sweeps and returns `Err(130)`;
///   a second signal aborts immediately. A configuration error returns
///   `Err(2)`.
/// - After the last sweep that ran, the telemetry registry is
///   snapshotted to `<dir>/TELEMETRY_<name>.json`, and with span
///   collection on (`MG_TRACE=1`) the spans of every sweep are drained
///   to `<dir>/TRACE_<name>.mgb` (a checksummed binary record; render its
///   Chrome trace JSON view for Perfetto with `export_json`).
pub fn run_sweeps(
    cfg: &Config,
    name: &str,
    specs: Vec<SweepSpec>,
    dir: &Path,
) -> Result<Vec<SweepResult>, i32> {
    // One watcher for the whole list, so a signal between two sweeps
    // drains too. Unsupported platforms keep cooperative shutdown only.
    let _watch = SignalWatch::install(|signo, count| {
        if count == 1 {
            mg_error!(
                "signal {signo}: draining in-flight benchmarks (signal again to abort immediately)"
            );
            request_shutdown();
        } else {
            std::process::exit(128 + signo);
        }
    });
    let interrupted = |r: &SweepResult| r.summary.interrupted > 0;
    let mut results = Vec::with_capacity(specs.len());
    for spec in specs {
        let spec = spec
            .journal(true)
            .resume(cfg.resume)
            .jobs_if_unset(cfg.effective_jobs());
        results.push(spec.try_run().map_err(|e| {
            mg_error!("sweep configuration error: {e}");
            2
        })?);
        if results.iter().any(interrupted) {
            break;
        }
    }
    write_telemetry_artifacts(dir, name);
    if results.iter().any(interrupted) {
        return Err(130);
    }
    if !cfg.journal_keep {
        for r in &results {
            if let Some(journal) = &r.summary.journal_dir {
                let _ = std::fs::remove_dir_all(journal);
            }
        }
    }
    Ok(results)
}

/// Snapshots the telemetry registry to `<dir>/TELEMETRY_<name>.json`
/// and, when span collection is on, drains the span buffer to
/// `<dir>/TRACE_<name>.mgb` (a checksummed [`crate::binfmt`] record).
/// Best-effort: a failed write logs an error but never fails the sweeps
/// that produced the rows.
fn write_telemetry_artifacts(dir: &Path, name: &str) {
    use crate::binfmt::{self, RecordKind};
    let path = crate::harness::save_json_in(
        dir,
        &format!("TELEMETRY_{name}"),
        &mg_obs::telemetry::snapshot(),
    );
    mg_info!("telemetry snapshot written to {}", path.display());
    if mg_obs::span::enabled() {
        let doc = mg_obs::span::chrome_trace(mg_obs::span::drain());
        let n = doc.traceEvents.len();
        let path = dir.join(format!("TRACE_{name}.{}", binfmt::EXT));
        let bytes = binfmt::to_record(RecordKind::SpanTrace, binfmt::SPAN_TRACE_SCHEMA, &doc);
        match std::fs::write(&path, bytes) {
            Ok(()) => mg_info!(
                "trace with {n} spans written to {} (export with `cargo run --bin export_json`)",
                path.display()
            ),
            Err(e) => mg_error!("failed to write trace {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_flag_round_trips() {
        clear_shutdown();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        clear_shutdown();
        assert!(!shutdown_requested());
    }

    #[test]
    fn panic_payloads_render_for_str_string_and_other() {
        let s = catch_unwind(|| panic!("plain message")).unwrap_err();
        assert_eq!(panic_payload(s), "plain message");
        let owned = catch_unwind(|| panic!("{} {}", "formatted", 42)).unwrap_err();
        assert_eq!(panic_payload(owned), "formatted 42");
        let other = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_payload(other), "non-string panic payload");
    }

    #[test]
    fn transient_classification_matches_the_retry_policy() {
        use crate::harness::Scheme;
        assert!(transient(&BenchError::Panicked {
            bench: "b".into(),
            cell: 0,
            payload: "p".into(),
        }));
        assert!(transient(&BenchError::TimedOut {
            bench: "b".into(),
            cell: 0,
            limit_ms: 1,
        }));
        assert!(!transient(&BenchError::CycleCap {
            bench: "b".into(),
            scheme: Scheme::NoMg,
        }));
        assert!(!transient(&BenchError::Config {
            knob: "MG_JOBS".into(),
            value: "0".into(),
            detail: "d".into(),
        }));
        assert!(!transient(&BenchError::Rewrite {
            bench: "b".into(),
            scheme: Scheme::StructAll,
            detail: "unschedulable".into(),
        }));
        assert!(!transient(&BenchError::Interrupted { bench: "b".into() }));
    }
}
