//! The sweep workloads: untraced cold/warm passes through [`SweepSpec`],
//! and the traced pass that repeats the same cell path by calling each
//! layer's functions itself.

use crate::trace::{request_id, Tracer};
use mg_bench::cache::{self, CacheOutcome};
use mg_bench::journal::{self, Journal};
use mg_bench::{par_map, BenchRows, InputSel, Scheme, SchemeRun, SweepCell, SweepSpec};
use mg_core::candidate::enumerate;
use mg_core::rewrite::try_rewrite;
use mg_core::select::{greedy_select, Selector, SlackProfileModel, SpKind};
use mg_sim::{simulate, MachineConfig, MgConfig, SimOptions, SimResult, SlackProfile};
use mg_workloads::{BenchmarkSpec, Executor, InputSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Worker threads every pass uses.
pub const WORKERS: usize = 2;

/// One benchmark's task: its spec and the cells run on it.
#[derive(Clone, Debug)]
pub struct Task {
    /// The benchmark, seed already remixed.
    pub spec: BenchmarkSpec,
    /// Cells in row order.
    pub cells: Vec<SweepCell>,
}

/// What one cell produced, reduced to what the correctness checks
/// compare: cycles and the IPC's bits, or the error text.
pub type CellKey = Result<(u64, u64), String>;

/// The static selectors `select-short` runs, in row order.
pub const STATIC_SELECTORS: [Scheme; 7] = [
    Scheme::StructAll,
    Scheme::StructNone,
    Scheme::StructBounded,
    Scheme::SlackProfile,
    Scheme::SlackProfileDelay,
    Scheme::SlackProfileSial,
    Scheme::SlackProfileMem,
];

/// The fig1 grid: no-mg on base and reduced, then Struct-All,
/// Struct-None and Slack-Profile on reduced.
pub fn fig1_cells() -> Vec<SweepCell> {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    vec![
        SweepCell::new(Scheme::NoMg, &base),
        SweepCell::new(Scheme::NoMg, &red),
        SweepCell::new(Scheme::StructAll, &red),
        SweepCell::new(Scheme::StructNone, &red),
        SweepCell::new(Scheme::SlackProfile, &red),
    ]
}

/// The two no-mg cells plus every static selector on reduced.
pub fn select_cells() -> Vec<SweepCell> {
    let red = MachineConfig::reduced();
    let mut cells = vec![
        SweepCell::new(Scheme::NoMg, &MachineConfig::baseline()),
        SweepCell::new(Scheme::NoMg, &red),
    ];
    cells.extend(STATIC_SELECTORS.iter().map(|&s| SweepCell::new(s, &red)));
    cells
}

/// `select-short` trace lengths: the registry's, divided by this.
pub const SHORT_DIVISOR: usize = 32;

/// The row key of every cell of a pass, in row order.
pub fn row_keys(rows: &[BenchRows]) -> Vec<Vec<CellKey>> {
    rows.iter()
        .map(|r| r.runs.iter().map(cell_key).collect())
        .collect()
}

/// One cell's comparison key.
pub fn cell_key(run: &Result<SchemeRun, mg_bench::BenchError>) -> CellKey {
    match run {
        Ok(r) => Ok((r.cycles, r.ipc.to_bits())),
        Err(e) => Err(e.to_string()),
    }
}

/// The sweep a pass runs: figure-CLI settings (disk cache and journal
/// on, no resume) on [`WORKERS`] workers. All tasks must share one cell
/// list.
pub fn sweep_spec(tasks: &[Task], train: &MachineConfig) -> SweepSpec {
    SweepSpec::new(train)
        .benches(tasks.iter().map(|t| t.spec.clone()))
        .cells(tasks.first().map(|t| t.cells.clone()).unwrap_or_default())
        .jobs(WORKERS)
        .quiet(true)
        .disk_cache(true)
        .journal(true)
}

/// Removes a results directory the program writes relative to the
/// working directory.
pub fn clear_dir(dir: &str) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One untraced pass and its wall time.
pub struct Pass {
    /// Rows in sweep order.
    pub rows: Vec<BenchRows>,
    /// Wall time of `try_run`.
    pub wall_s: f64,
    /// Context-cache counters of the pass.
    pub cache: mg_bench::cache::CacheCounters,
}

/// Runs one pass: `cold` empties the memory and disk caches first,
/// otherwise only memory is cleared, so every context is a disk hit.
/// The journal directory is removed before each pass, as a figure
/// binary removes it after a finished sweep.
pub fn run_pass(spec: &SweepSpec, cold: bool) -> Result<Pass, String> {
    cache::clear_memory();
    clear_dir(journal::JOURNAL_DIR);
    if cold {
        clear_dir(cache::CACHE_DIR);
    }
    let t0 = Instant::now();
    let result = spec.try_run().map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Pass {
        rows: result.rows,
        wall_s,
        cache: result.summary.cache,
    })
}

/// The selector a static scheme uses (as the harness maps it).
fn selector(scheme: Scheme, slack: &SlackProfile) -> Result<Option<Selector>, String> {
    let sp = |kind| {
        Selector::SlackProfile(
            SlackProfileModel {
                kind,
                ..SlackProfileModel::default()
            },
            slack.clone(),
        )
    };
    Ok(match scheme {
        Scheme::NoMg => None,
        Scheme::StructAll => Some(Selector::StructAll),
        Scheme::StructNone => Some(Selector::StructNone),
        Scheme::StructBounded => Some(Selector::StructBounded),
        Scheme::SlackProfile => Some(sp(SpKind::Full)),
        Scheme::SlackProfileDelay => Some(sp(SpKind::DelayOnly)),
        Scheme::SlackProfileSial => Some(sp(SpKind::Sial)),
        Scheme::SlackProfileMem => Some(Selector::SlackProfile(
            SlackProfileModel::miss_aware(),
            slack.clone(),
        )),
        dynamic => return Err(format!("{} is not traced", dynamic.name())),
    })
}

/// The context cache's content key, derived as the cache derives it.
fn context_key(spec: &BenchmarkSpec, train: &MachineConfig, input: &InputSet) -> u64 {
    let repr = format!(
        "v{}|{}|{:?}|{input:?}|{input:?}|{train:?}",
        cache::CACHE_SCHEMA,
        spec.name,
        spec.params
    );
    cache::stable_hash64(repr.as_bytes())
}

/// Work counts the traced pass records at the layer boundaries.
#[derive(Default)]
pub struct Counts {
    /// Instructions the functional executor ran.
    pub exec_instrs: AtomicU64,
    /// Cycles over every timing run (profiling excluded).
    pub cycles: AtomicU64,
    /// Committed instructions over every timing run.
    pub committed: AtomicU64,
    /// Candidates enumerated.
    pub candidates: AtomicU64,
    /// Instances chosen by greedy selection.
    pub chosen: AtomicU64,
    /// Disk-cache lookups that hit.
    pub cache_hits: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// A traced pass's output.
pub struct TracedPass {
    /// Row keys in sweep order.
    pub rows: Vec<Vec<CellKey>>,
    /// Wall time.
    pub wall_s: f64,
}

/// Repeats the [`SweepSpec`] cell path by calling the layer functions
/// directly, one span around each call, under [`par_map`] on
/// [`WORKERS`] workers, with the same disk cache and journal writes.
/// `cold` empties the caches first, as [`run_pass`] does.
pub fn traced_pass(
    tasks: &[Task],
    train: &MachineConfig,
    cold: bool,
    pass: usize,
    tracer: &Tracer,
    counts: &Counts,
) -> TracedPass {
    cache::clear_memory();
    clear_dir(journal::JOURNAL_DIR);
    if cold {
        clear_dir(cache::CACHE_DIR);
    }
    let cells = tasks.first().map(|t| t.cells.clone()).unwrap_or_default();
    let repr = journal::sweep_repr(train, &InputSel::Primary, &InputSel::Primary, &cells);
    let journal = Journal::new(
        Path::new(journal::JOURNAL_DIR),
        cache::stable_hash64(repr.as_bytes()),
        tasks
            .iter()
            .map(|t| journal::row_key(&t.spec, &repr))
            .collect(),
    );
    let t0 = Instant::now();
    let rows = par_map(tasks, WORKERS, |i, task| {
        let t_task = Instant::now();
        let req = request_id(pass, i, None);
        let _task = tracer.span("harness.task", req);
        let (runs, outcome) = match traced_context(task, train, tracer, counts, req) {
            Ok(ctx) => {
                let runs = task
                    .cells
                    .iter()
                    .enumerate()
                    .map(|(j, cell)| {
                        let req = request_id(pass, i, Some(j));
                        let _cell = tracer.span("harness.cell", req);
                        traced_cell(&task.spec, &ctx, cell, tracer, counts, req)
                    })
                    .collect();
                (runs, Some(ctx.outcome))
            }
            Err(e) => (task.cells.iter().map(|_| Err(e.clone())).collect(), None),
        };
        let rows = BenchRows {
            bench: task.spec.name.clone(),
            runs,
            wall: t_task.elapsed(),
            cache: outcome,
            replayed: false,
            retries: 0,
        };
        tracer.time("bench.journal.store", req, || journal.store_row(i, &rows));
        rows.runs.iter().map(cell_key).collect()
    });
    TracedPass {
        rows,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

struct TracedContext {
    workload: mg_workloads::Workload,
    trace: mg_workloads::Trace,
    freqs: Vec<u64>,
    slack: SlackProfile,
    outcome: CacheOutcome,
}

fn exec_error(
    spec: &BenchmarkSpec,
    stage: &str,
    e: impl std::fmt::Display,
) -> mg_bench::BenchError {
    mg_bench::BenchError::Exec {
        bench: spec.name.clone(),
        stage: stage.to_string(),
        detail: e.to_string(),
    }
}

/// The context stage: disk-cache lookup, and on a miss generate,
/// execute and profile the training run and store the entry; then
/// generate and execute the run input.
fn traced_context(
    task: &Task,
    train: &MachineConfig,
    tracer: &Tracer,
    counts: &Counts,
    req: u64,
) -> Result<TracedContext, mg_bench::BenchError> {
    let spec = &task.spec;
    let _ctx = tracer.span("harness.context", req);
    let input = spec.primary_input();
    let key = context_key(spec, train, &input);
    let cache_dir = Path::new(cache::CACHE_DIR);
    let hit = tracer.time("bench.cache.load", req, || {
        cache::disk_load_from(cache_dir, key, spec)
    });
    let (freqs, slack, outcome) = match hit {
        Some((freqs, slack)) => {
            add(&counts.cache_hits, 1);
            (freqs, slack, CacheOutcome::DiskHit)
        }
        None => {
            let w = tracer.time("workloads.generate", req, || {
                spec.generate_with_input(&input)
            });
            let (trace, _) = tracer
                .time("workloads.exec", req, || {
                    Executor::new(&w.program).run_with_mem(&w.init_mem)
                })
                .map_err(|e| exec_error(spec, "train-input execution", e))?;
            add(&counts.exec_instrs, trace.len() as u64);
            let freqs = trace.static_freqs(&w.program);
            let profiled = tracer.time("sim.profile", req, || {
                simulate(
                    &w.program,
                    &trace,
                    train,
                    SimOptions {
                        profile_slack: true,
                        ..SimOptions::default()
                    },
                )
            });
            let slack = profiled
                .slack
                .ok_or_else(|| exec_error(spec, "profiling", "no slack profile returned"))?;
            tracer.time("bench.cache.store", req, || {
                cache::disk_store_to(cache_dir, key, spec, &freqs, &slack)
            });
            (freqs, slack, CacheOutcome::Miss)
        }
    };
    let workload = tracer.time("workloads.generate", req, || {
        spec.generate_with_input(&input)
    });
    let (trace, _) = tracer
        .time("workloads.exec", req, || {
            Executor::new(&workload.program).run_with_mem(&workload.init_mem)
        })
        .map_err(|e| exec_error(spec, "run-input execution", e))?;
    add(&counts.exec_instrs, trace.len() as u64);
    Ok(TracedContext {
        workload,
        trace,
        freqs,
        slack,
        outcome,
    })
}

/// One cell: for a selector, enumerate, filter, select, rewrite and
/// re-execute; then the timing run.
fn traced_cell(
    spec: &BenchmarkSpec,
    ctx: &TracedContext,
    cell: &SweepCell,
    tracer: &Tracer,
    counts: &Counts,
    req: u64,
) -> Result<SchemeRun, mg_bench::BenchError> {
    let rewrite_err = |detail: String| mg_bench::BenchError::Rewrite {
        bench: spec.name.clone(),
        scheme: cell.scheme,
        detail,
    };
    let sel = selector(cell.scheme, &ctx.slack).map_err(rewrite_err)?;
    let (r, est_coverage): (SimResult, f64) = match sel {
        None => {
            let r = tracer.time("sim.engine", req, || {
                simulate(
                    &ctx.workload.program,
                    &ctx.trace,
                    &cell.machine,
                    SimOptions::default(),
                )
            });
            (r, 0.0)
        }
        Some(sel) => {
            let cfg = cell.sel.unwrap_or_default();
            let program = &ctx.workload.program;
            let pool = tracer.time("core.enumerate", req, || enumerate(program, &cfg));
            add(&counts.candidates, pool.len() as u64);
            let pool = tracer.time("core.filter", req, || sel.filter(program, pool));
            let chosen = tracer.time("core.select", req, || {
                greedy_select(program, &pool, &ctx.freqs, &cfg)
            });
            add(&counts.chosen, chosen.chosen.len() as u64);
            let rewritten = tracer
                .time("core.rewrite", req, || try_rewrite(program, &chosen.chosen))
                .map_err(|e| rewrite_err(e.to_string()))?;
            let (trace, _) = tracer
                .time("workloads.exec", req, || {
                    Executor::new(&rewritten).run_with_mem(&ctx.workload.init_mem)
                })
                .map_err(|e| exec_error(spec, "rewritten-program execution", e))?;
            add(&counts.exec_instrs, trace.len() as u64);
            let machine = cell
                .machine
                .clone()
                .with_mg(cell.mg.unwrap_or_else(MgConfig::paper));
            let r = tracer.time("sim.engine", req, || {
                simulate(&rewritten, &trace, &machine, SimOptions::default())
            });
            (r, chosen.est_coverage)
        }
    };
    add(&counts.cycles, r.stats.cycles);
    add(&counts.committed, r.stats.committed_instrs);
    if r.hit_cycle_cap {
        return Err(mg_bench::BenchError::CycleCap {
            bench: spec.name.clone(),
            scheme: cell.scheme,
        });
    }
    Ok(SchemeRun {
        scheme: cell.scheme,
        ipc: r.ipc(),
        cycles: r.stats.cycles,
        coverage: r.stats.coverage(),
        est_coverage,
        disabled_templates: r.stats.disabled_templates,
        serialized_handles: r.stats.serialized_handles,
        dl1_miss_rate: r.stats.dl1.miss_rate(),
    })
}

/// Total size of the regular files under `dir` (recursively).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
