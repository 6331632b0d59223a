//! The repository's benchmark: end-to-end and per-layer performance of
//! a figure sweep, a selection-bound sweep, and the `mg-serve` daemon.
//!
//! Usage (normally through `run.py`, which builds this and the daemon):
//!
//! ```text
//! mg-sweepbench --workload <fig1-sweep|select-short|serve-replay>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--root <checkout>] [--serve-bin <path to mg-serve>]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a
//! traced run. Every run checks its rows and reports the host.

mod serve;
mod stats;
mod sweep;
mod trace;

use mg_bench::cache;
use mg_sim::MachineConfig;
use serve::Session;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sweep::{Task, WORKERS};
use trace::Tracer;

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics, reported by every `--trace 1` run.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("workloads.gen_s", "s"),
    ("workloads.gen_calls", "count"),
    ("workloads.exec_s", "s"),
    ("workloads.exec_calls", "count"),
    ("workloads.exec_minst_per_s", "Minst/s"),
    ("sim.engine_s", "s"),
    ("sim.engine_calls", "count"),
    ("sim.engine_mcycles_per_s", "Mcycles/s"),
    ("sim.engine_minst_per_s", "Minst/s"),
    ("sim.profile_s", "s"),
    ("sim.cycles", "count"),
    ("sim.committed_instrs", "count"),
    ("core.enumerate_s", "s"),
    ("core.enumerate_calls", "count"),
    ("core.enumerate_per_program", "count"),
    ("core.candidates", "count"),
    ("core.filter_s", "s"),
    ("core.select_s", "s"),
    ("core.rewrite_s", "s"),
    ("core.admit_ratio", "ratio"),
    ("bench.cache.lookups", "count"),
    ("bench.cache.hit_ratio", "ratio"),
    ("bench.cache.load_s", "s"),
    ("bench.cache.store_s", "s"),
    ("bench.cache.bytes", "bytes"),
    ("bench.journal.store_s", "s"),
    ("bench.journal.bytes", "bytes"),
    ("bench.runner.busy_s", "s"),
    ("bench.runner.idle_s", "s"),
    ("serve.replay_ratio", "ratio"),
    ("serve.exec_jobs", "count"),
    ("serve.owner_p50_ms", "ms"),
    ("serve.dedup_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
];

/// The workloads.
const WORKLOADS: [&str; 3] = ["fig1-sweep", "select-short", "serve-replay"];

/// Row digests at seed 0, recorded with the benchmark: a change to any
/// cycle count or IPC bit of the published registry shows here.
const SEED0_DIGESTS: [(&str, u64); 3] = [
    ("fig1-sweep", 0x0f8e_c0cc_5b8f_d5c5),
    ("select-short", 0x4e5e_5d49_1fa4_c9f9),
    ("serve-replay", 0x06ca_9faa_31a1_7481),
];

/// `serve-replay`: benchmarks in the job pool (every other registry
/// entry), scheme sets per benchmark, trace length, and stream length.
/// Every reply of several lines costs a client about 40 ms today (the
/// daemon writes each line as its own segment, so Nagle's algorithm
/// waits on the client's delayed ACK), which bounds how many requests
/// a run can afford.
const SERVE_BENCHES: usize = 12;
const SERVE_SCHEME_SETS: [&[&str]; 2] = [
    &["no-minigraphs", "Struct-All", "Slack-Profile"],
    &["Struct-None", "Struct-Bounded", "Slack-Profile-SIAL"],
];
const SERVE_TARGET_DYN: u64 = 2_000;
const SERVE_REQUESTS: usize = 240;

/// Serve probe in the traced sweep runs: registry benchmarks and
/// requests.
const PROBE_BENCHES: usize = 4;
const PROBE_REQUESTS: usize = 60;

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    serve_bin: Option<PathBuf>,
    /// Only set up a sweep, report `ready`, and exit (see
    /// [`setup_probe`]).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = None;
    let mut serve_bin = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--root" => root = Some(PathBuf::from(value()?)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let root = match root {
        Some(r) => r,
        None => std::env::current_dir().map_err(|e| e.to_string())?,
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
        root: std::fs::canonicalize(&root).map_err(|e| format!("{}: {e}", root.display()))?,
        serve_bin,
        setup_only,
    })
}

/// Remixes a registry benchmark's generation seed. Seed 0 keeps the
/// registry as published.
fn remix(spec: &mut mg_workloads::BenchmarkSpec, seed: u64) {
    if seed != 0 {
        let mut state = seed;
        spec.seed ^= serve::splitmix64(&mut state);
    }
}

/// The tasks of a sweep workload at `seed`.
fn sweep_tasks(workload: &str, seed: u64) -> Vec<Task> {
    let short = workload == "select-short";
    let cells = if short {
        sweep::select_cells()
    } else {
        sweep::fig1_cells()
    };
    mg_workloads::suite()
        .into_iter()
        .map(|mut spec| {
            remix(&mut spec, seed);
            if short {
                spec.params.target_dyn /= sweep::SHORT_DIVISOR;
            }
            Task {
                spec,
                cells: cells.clone(),
            }
        })
        .collect()
}

/// The `serve-replay` job pool.
fn serve_pool() -> Vec<mg_serve::Request> {
    let suite = mg_workloads::suite();
    SERVE_SCHEME_SETS
        .iter()
        .flat_map(|set| {
            suite
                .iter()
                .step_by(2)
                .take(SERVE_BENCHES)
                .map(|b| serve::request(&b.name, set, Some(SERVE_TARGET_DYN)))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The serve probe of a traced sweep run: the workload's reduced-machine
/// grid on the first registry benchmarks at the workload's length.
fn probe_pool(workload: &str) -> Vec<mg_serve::Request> {
    let cells = if workload == "select-short" {
        sweep::select_cells()
    } else {
        sweep::fig1_cells()
    };
    let red = MachineConfig::reduced();
    let schemes: Vec<&str> = cells
        .iter()
        .filter(|c| c.machine == red)
        .map(|c| c.scheme.name())
        .collect();
    mg_workloads::suite()
        .iter()
        .take(PROBE_BENCHES)
        .map(|b| {
            let target = (workload == "select-short")
                .then_some((b.params.target_dyn / sweep::SHORT_DIVISOR) as u64);
            serve::request(&b.name, &schemes, target)
        })
        .collect()
}

/// FNV-1a digest of every row's cycles and IPC bits, in order.
fn digest(rows: &[Vec<sweep::CellKey>]) -> u64 {
    let mut repr = String::new();
    for row in rows {
        for cell in row {
            match cell {
                Ok((cycles, ipc)) => repr.push_str(&format!("{cycles}:{ipc:016x};")),
                Err(e) => repr.push_str(&format!("err:{e};")),
            }
        }
        repr.push('\n');
    }
    cache::stable_hash64(repr.as_bytes())
}

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Named checks, in the order they ran.
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, f64>,
    /// Extra facts for the report line, as JSON values.
    report: Vec<(String, String)>,
}

impl Outcome {
    /// Records a check that found `bad` failed operations.
    fn check_count(&mut self, name: impl Into<String>, bad: u64) {
        let name = name.into();
        if bad > 0 {
            eprintln!("check failed: {name}");
        }
        self.failed += bad;
        self.checks.push((name, bad == 0));
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.check_count(name, u64::from(!ok));
    }

    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, key: &str, json: String) {
        self.report.push((key.to_string(), json));
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts error cells and cells that differ from `reference`.
fn compare_rows(
    out: &mut Outcome,
    what: &str,
    rows: &[Vec<sweep::CellKey>],
    reference: &[Vec<sweep::CellKey>],
) {
    let cells: usize = rows.iter().map(Vec::len).sum();
    out.attempted += cells as u64;
    let errors = rows.iter().flatten().filter(|c| c.is_err()).count();
    let mismatched = if rows.len() == reference.len() {
        rows.iter()
            .zip(reference)
            .map(|(a, b)| {
                if a.len() == b.len() {
                    a.iter().zip(b).filter(|(x, y)| x != y).count()
                } else {
                    a.len().max(b.len())
                }
            })
            .sum()
    } else {
        cells.max(1)
    };
    out.check_count(
        format!("{what}: {errors} error cells, {mismatched} mismatched"),
        (errors + mismatched) as u64,
    );
}

fn check_digest(out: &mut Outcome, workload: &str, seed: u64, rows: &[Vec<sweep::CellKey>]) {
    let d = digest(rows);
    out.note("row_digest", format!("\"{d:016x}\""));
    if seed == 0 {
        let expected = SEED0_DIGESTS
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, d)| *d);
        out.check(
            format!(
                "seed-0 row digest {d:016x} matches the recorded {:016x}",
                expected.unwrap_or(0)
            ),
            expected == Some(d),
        );
    }
}

fn self_peak_rss_mb() -> f64 {
    serve::peak_rss_mb("/proc/self/status").unwrap_or(0.0)
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// Runs the untraced cold/warm pairs of a sweep workload for `seconds`.
fn sweep_untraced(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let train = MachineConfig::reduced();
    let setups = (0..SETUP_REPS)
        .map(|_| setup_probe(args))
        .collect::<Result<Vec<f64>, String>>()?;
    let tasks = sweep_tasks(&args.workload, args.seed);
    let spec = sweep::sweep_spec(&tasks, &train);
    fresh_dir(work)?;
    let n = tasks.len() as u64;
    let t0 = Instant::now();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut p50 = Vec::new();
    let mut tails = Vec::new();
    let mut reference: Option<Vec<Vec<sweep::CellKey>>> = None;
    loop {
        let c = sweep::run_pass(&spec, true)?;
        let w = sweep::run_pass(&spec, false)?;
        out.check(
            format!("cold pass misses every context ({} of {n})", c.cache.misses),
            c.cache.misses == n && c.cache.disk_hits == 0,
        );
        out.check(
            format!(
                "warm pass hits disk for every context ({} of {n})",
                w.cache.disk_hits
            ),
            w.cache.disk_hits == n && w.cache.misses == 0,
        );
        let c_rows = sweep::row_keys(&c.rows);
        let w_rows = sweep::row_keys(&w.rows);
        let reference = reference.get_or_insert_with(|| c_rows.clone());
        compare_rows(out, "cold rows vs first cold pass", &c_rows, reference);
        compare_rows(out, "warm rows vs cold rows", &w_rows, reference);
        let row_ms: Vec<f64> = c.rows.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
        p50.push(med(&row_ms));
        let t = tail(&row_ms).ok_or("too few rows for a tail percentile")?;
        tails.push(t);
        cold.push(c.wall_s);
        warm.push(w.wall_s);
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / cold.len() as f64 > args.seconds {
            break;
        }
    }
    let reference = reference.unwrap_or_default();
    check_digest(out, &args.workload, args.seed, &reference);
    let cold_s = med(&cold);
    out.metric("setup_s", med(&setups));
    out.metric("cold_s", cold_s);
    out.metric("warm_s", med(&warm));
    out.metric("peak_rss_mb", self_peak_rss_mb());
    out.metric("job_p50_ms", med(&p50));
    out.metric(
        "job_tail_ms",
        med(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
    );
    out.metric("jobs_per_s", n as f64 / cold_s);
    let t = tails[0];
    out.note(
        "job",
        format!(
            "{{\"unit\":\"benchmark row of a cold pass\",\"tail_pct\":{},\"samples\":{},\"beyond\":{},\"pairs\":{}}}",
            t.pct,
            t.samples,
            t.beyond,
            cold.len()
        ),
    );
    out.note("cold_s_all", json_list(&cold));
    out.note("warm_s_all", json_list(&warm));
    Ok(())
}

/// Starts this program in set-up-only mode and times it from spawn until
/// it reports that its first pass could begin: process start, the
/// (remixed) registry and sweep spec, and an empty scratch directory.
fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--root")
        .arg(&args.root)
        .arg("--setup-only")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let mut line = String::new();
    let read = std::io::BufRead::read_line(
        &mut std::io::BufReader::new(child.stdout.take().expect("stdout is piped")),
        &mut line,
    );
    let setup_s = t0.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("wait for set-up probe: {e}"))?;
    match (read, status.success(), line.trim()) {
        (Ok(_), true, "ready") => Ok(setup_s),
        _ => Err(format!("set-up probe failed ({status}): {line:?}")),
    }
}

/// The `serve-replay` workload, untraced: daemon sessions for `seconds`.
fn serve_untraced(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let bin = serve_bin(args)?;
    let pool = serve_pool();
    let stream = serve::skewed_stream(pool.len(), SERVE_REQUESTS, args.seed);
    fresh_dir(work)?;
    // The daemon's accept loop polls, so one start-up time is noisy:
    // start it a few more times than the sessions alone would.
    let mut setups = Vec::new();
    for i in 0..SETUP_REPS {
        setups.push(serve::start_up(&bin, &serve::daemon_dir(work, 1000 + i))?);
    }
    let t0 = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    loop {
        let s = serve::session(
            &bin,
            &serve::daemon_dir(work, sessions.len()),
            &pool,
            &stream,
        )?;
        sessions.push(s);
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / sessions.len() as f64 > args.seconds {
            break;
        }
    }
    let batch = serve::batch_rows(&serve::batch_tasks(&pool)?).rows;
    check_digest(out, &args.workload, args.seed, &batch);
    let mut p50 = Vec::new();
    let mut tails = Vec::new();
    for s in &sessions {
        check_session(out, s, &batch);
        let lat = serve::latencies(&s.cold.samples, None);
        p50.push(med(&lat));
        tails.push(tail(&lat).ok_or("too few requests for a tail percentile")?);
    }
    let col = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
    let cold = col(&|s| s.cold.wall_s);
    setups.extend(col(&|s| s.setup_s));
    out.metric("setup_s", med(&setups));
    out.metric("cold_s", med(&cold));
    out.metric("warm_s", med(&col(&|s| s.warm.wall_s)));
    out.metric("peak_rss_mb", med(&col(&|s| s.peak_rss_mb)));
    out.metric("job_p50_ms", med(&p50));
    out.metric(
        "job_tail_ms",
        med(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
    );
    out.metric(
        "jobs_per_s",
        med(&col(&|s| stream.len() as f64 / s.cold.wall_s)),
    );
    let t = tails[0];
    let st = &sessions[0].cold_stats;
    out.note(
        "job",
        format!(
            "{{\"unit\":\"request, submit to Done, cold pass\",\"tail_pct\":{},\"samples\":{},\
             \"beyond\":{},\"sessions\":{},\"pool\":{},\"executed\":{},\"coalesced\":{},\"replayed\":{}}}",
            t.pct,
            t.samples,
            t.beyond,
            sessions.len(),
            pool.len(),
            st.executed,
            st.coalesced,
            st.replayed
        ),
    );
    out.note("cold_s_all", json_list(&cold));
    Ok(())
}

/// Checks every request of a session against the batch rows.
fn check_session(out: &mut Outcome, s: &Session, batch: &[Vec<sweep::CellKey>]) {
    for (what, pass, stats) in [
        ("cold", &s.cold, &s.cold_stats),
        ("warm", &s.warm, &s.warm_stats),
    ] {
        out.attempted += pass.samples.len() as u64;
        let bad = serve::check_samples(&pass.samples, batch) as u64;
        out.check_count(
            format!(
                "{what} pass: {bad} failed or mismatched requests, {} rejects",
                stats.rejects
            ),
            bad + stats.rejects,
        );
    }
}

/// Serve per-layer metrics from one session.
fn serve_layer_metrics(out: &mut Outcome, s: &Session) {
    let st = &s.cold_stats;
    out.metric(
        "serve.replay_ratio",
        st.replayed as f64 / st.submitted.max(1) as f64,
    );
    out.metric("serve.exec_jobs", st.executed as f64);
    out.metric(
        "serve.owner_p50_ms",
        med(&serve::latencies(&s.cold.samples, Some(false))),
    );
    out.metric(
        "serve.dedup_p50_ms",
        med(&serve::latencies(&s.cold.samples, Some(true))),
    );
    out.metric("serve.queue_wait_p99_ms", st.queue_wait_p99_ms);
    out.note(
        "serve_cold_pass",
        format!(
            "{{\"requests\":{},\"submitted\":{},\"executed\":{},\"coalesced\":{},\"replayed\":{},\"wall_s\":{}}}",
            s.cold.samples.len(),
            st.submitted,
            st.executed,
            st.coalesced,
            st.replayed,
            s.cold.wall_s
        ),
    );
}

/// A traced run: an untraced reference, then a traced cold and warm
/// pass over the same tasks, the per-layer breakdown, and the serve
/// layer's numbers.
fn traced(args: &Args, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let train = MachineConfig::reduced();
    fresh_dir(work)?;
    let is_serve = args.workload == "serve-replay";
    let bin = serve_bin(args)?;
    // The untraced reference: for sweeps one SweepSpec cold/warm pair;
    // for serve a daemon session plus the in-process batch run.
    let (tasks, reference, untraced_cold, untraced_warm, runner, session) = if is_serve {
        let pool = serve_pool();
        let stream = serve::skewed_stream(pool.len(), SERVE_REQUESTS, args.seed);
        let s = serve::session(&bin, &serve::daemon_dir(work, 0), &pool, &stream)?;
        let tasks = serve::batch_tasks(&pool)?;
        let b = serve::batch_rows(&tasks);
        check_session(out, &s, &b.rows);
        (tasks, b.rows, b.wall_s, None, (b.wall_s, b.task_s), s)
    } else {
        let tasks = sweep_tasks(&args.workload, args.seed);
        let spec = sweep::sweep_spec(&tasks, &train);
        let c = sweep::run_pass(&spec, true)?;
        let w = sweep::run_pass(&spec, false)?;
        let rows = sweep::row_keys(&c.rows);
        compare_rows(
            out,
            "untraced warm rows vs cold rows",
            &sweep::row_keys(&w.rows),
            &rows,
        );
        let walls: Vec<f64> = c.rows.iter().map(|r| r.wall.as_secs_f64()).collect();
        let pool = probe_pool(&args.workload);
        let stream = serve::skewed_stream(pool.len(), PROBE_REQUESTS, args.seed);
        let s = serve::session(&bin, &serve::daemon_dir(work, 0), &pool, &stream)?;
        let probe = serve::batch_rows(&serve::batch_tasks(&pool)?);
        check_session(out, &s, &probe.rows);
        (tasks, rows, c.wall_s, Some(w.wall_s), (c.wall_s, walls), s)
    };
    check_digest(out, &args.workload, args.seed, &reference);

    let tracer = Tracer::new();
    let counts = sweep::Counts::default();
    let tc = sweep::traced_pass(&tasks, &train, true, 0, &tracer, &counts);
    let cache_bytes = sweep::dir_bytes(Path::new(cache::CACHE_DIR));
    let journal_bytes = sweep::dir_bytes(Path::new(mg_bench::journal::JOURNAL_DIR));
    let tw = sweep::traced_pass(&tasks, &train, false, 1, &tracer, &counts);
    compare_rows(
        out,
        "traced cold rows vs untraced rows",
        &tc.rows,
        &reference,
    );
    compare_rows(
        out,
        "traced warm rows vs untraced rows",
        &tw.rows,
        &reference,
    );

    let spans = tracer.spans();
    let st = trace::self_times(&spans);
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let secs = |name: &str| get(name).self_ns as f64 / 1e9;
    let calls = |name: &str| get(name).calls as f64;
    let ld = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed) as f64;
    out.metric("workloads.gen_s", secs("workloads.generate"));
    out.metric("workloads.gen_calls", calls("workloads.generate"));
    out.metric("workloads.exec_s", secs("workloads.exec"));
    out.metric("workloads.exec_calls", calls("workloads.exec"));
    out.metric(
        "workloads.exec_minst_per_s",
        ld(&counts.exec_instrs) / secs("workloads.exec") / 1e6,
    );
    out.metric("sim.engine_s", secs("sim.engine"));
    out.metric("sim.engine_calls", calls("sim.engine"));
    out.metric(
        "sim.engine_mcycles_per_s",
        ld(&counts.cycles) / secs("sim.engine") / 1e6,
    );
    out.metric(
        "sim.engine_minst_per_s",
        ld(&counts.committed) / secs("sim.engine") / 1e6,
    );
    out.metric("sim.profile_s", secs("sim.profile"));
    out.metric("sim.cycles", ld(&counts.cycles));
    out.metric("sim.committed_instrs", ld(&counts.committed));
    out.metric("core.enumerate_s", secs("core.enumerate"));
    out.metric("core.enumerate_calls", calls("core.enumerate"));
    out.metric(
        "core.enumerate_per_program",
        calls("core.enumerate") / (2 * tasks.len()) as f64,
    );
    out.metric("core.candidates", ld(&counts.candidates));
    out.metric("core.filter_s", secs("core.filter"));
    out.metric("core.select_s", secs("core.select"));
    out.metric("core.rewrite_s", secs("core.rewrite"));
    out.metric(
        "core.admit_ratio",
        ld(&counts.chosen) / ld(&counts.candidates).max(1.0),
    );
    out.metric("bench.cache.lookups", calls("bench.cache.load"));
    out.metric(
        "bench.cache.hit_ratio",
        ld(&counts.cache_hits) / calls("bench.cache.load").max(1.0),
    );
    out.metric("bench.cache.load_s", secs("bench.cache.load"));
    out.metric("bench.cache.store_s", secs("bench.cache.store"));
    out.metric("bench.cache.bytes", cache_bytes as f64);
    out.metric("bench.journal.store_s", secs("bench.journal.store"));
    out.metric("bench.journal.bytes", journal_bytes as f64);
    // The runner's busy and idle time come from the untraced cold pass
    // (for serve, the in-process batch run).
    let (wall, walls) = runner;
    out.metric("bench.runner.busy_s", walls.iter().sum());
    out.metric(
        "bench.runner.idle_s",
        stats::runner_idle_s(WORKERS, wall, &walls),
    );
    serve_layer_metrics(out, &session);

    // Tracing overhead and coverage.
    let traced_total = tc.wall_s + tw.wall_s;
    let untraced_total = untraced_cold + untraced_warm.unwrap_or(untraced_cold);
    out.note(
        "tracing",
        format!(
            "{{\"traced_s\":{traced_total},\"untraced_s\":{untraced_total},\"overhead\":{}}}",
            traced_total / untraced_total - 1.0
        ),
    );
    let layers = trace::layer_self_ns(&st);
    let program_ns: u64 = layers
        .iter()
        .filter(|(l, _)| **l != "harness")
        .map(|(_, ns)| *ns)
        .sum();
    let coverage = program_ns as f64 / 1e9 / (WORKERS as f64 * traced_total);
    out.note("layer_coverage", coverage.to_string());
    eprintln!(
        "traced {traced_total:.3} s vs untraced {untraced_total:.3} s (overhead {:+.1}%); \
         layer spans cover {:.1}% of {WORKERS} workers x traced wall",
        100.0 * (traced_total / untraced_total - 1.0),
        100.0 * coverage
    );

    // Per-pass breakdown for the report and the terminal.
    let mut passes = Vec::new();
    for (pass, p, untraced) in [(0usize, &tc, Some(untraced_cold)), (1, &tw, untraced_warm)] {
        let pass_spans: Vec<trace::Span> = spans
            .iter()
            .filter(|s| s.request >> 40 == pass as u64)
            .cloned()
            .collect();
        let per_layer = trace::layer_self_ns(&trace::self_times(&pass_spans));
        let total: u64 = per_layer.values().sum();
        eprintln!(
            "traced {} pass: {:.3} s (untraced {}), layer self time:",
            if pass == 0 { "cold" } else { "warm" },
            p.wall_s,
            untraced.map_or("n/a".to_string(), |u| format!("{u:.3} s"))
        );
        for (layer, ns) in &per_layer {
            eprintln!(
                "  {layer:<10} {:>8.3} s  {:>5.1}%",
                *ns as f64 / 1e9,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        passes.push(format!(
            "{{\"pass\":\"{}\",\"traced_s\":{},\"untraced_s\":{},\"self_s\":{{{}}}}}",
            if pass == 0 { "cold" } else { "warm" },
            p.wall_s,
            untraced.map_or("null".to_string(), |u| u.to_string()),
            per_layer
                .iter()
                .map(|(l, ns)| format!("\"{l}\":{}", *ns as f64 / 1e9))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    let by_name: Vec<String> = st
        .iter()
        .map(|(n, t)| {
            format!(
                "\"{n}\":{{\"self_s\":{},\"calls\":{}}}",
                t.self_ns as f64 / 1e9,
                t.calls
            )
        })
        .collect();
    out.note("traced_passes", format!("[{}]", passes.join(",")));
    out.note("span_self_time", format!("{{{}}}", by_name.join(",")));
    out.note("spans", spans.len().to_string());
    let out_dir = args.root.join(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.note("spans_file", json_str(&path.display().to_string()));
    Ok(())
}

fn serve_bin(args: &Args) -> Result<PathBuf, String> {
    let bin = args
        .serve_bin
        .clone()
        .ok_or("--serve-bin is required for this run")?;
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no mg-serve binary at {}", bin.display()))
    }
}

/// Empties the scratch working directory and enters it again (the
/// program's `results/` paths are relative to it).
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    std::env::set_current_dir(dir).map_err(|e| format!("enter {}: {e}", dir.display()))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
    )
}

/// The host facts every result records.
fn host(root: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = cmd("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let commit = if root.join(".git").exists() {
        cmd(
            "git",
            &["-C", &root.display().to_string(), "rev-parse", "HEAD"],
        )
    } else {
        None
    }
    .unwrap_or_else(|| "none (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{},\"source_digest\":\"{:016x}\",\"workers\":{WORKERS}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        source_digest(root)
    )
}

/// FNV-1a over the program's sources (every file under `crates/` plus
/// the lock file), in path order: identifies the measured code when the
/// checkout carries no commit.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(rel) = f.strip_prefix(root) {
            bytes.extend_from_slice(rel.display().to_string().as_bytes());
        }
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    cache::stable_hash64(&bytes)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mg-sweepbench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        args.root
            .join(".bench_work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = fresh_dir(&work) {
        eprintln!("mg-sweepbench: {e}");
        std::process::exit(2);
    }
    if args.setup_only {
        let tasks = sweep_tasks(&args.workload, args.seed);
        drop(sweep::sweep_spec(&tasks, &MachineConfig::reduced()));
        println!("ready");
        let _ = std::env::set_current_dir(&args.root);
        let _ = std::fs::remove_dir_all(&work);
        return;
    }
    let mut out = Outcome::default();
    let run = if args.trace {
        traced(&args, &work, &mut out)
    } else if args.workload == "serve-replay" {
        serve_untraced(&args, &work, &mut out)
    } else {
        sweep_untraced(&args, &work, &mut out)
    };
    let _ = std::env::set_current_dir(&args.root);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = run {
        eprintln!("mg-sweepbench: {e}");
        std::process::exit(1);
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    out.check(
        "metric names and units follow the grammar",
        wanted
            .iter()
            .all(|(n, u)| stats::valid_name(n) && stats::valid_unit(u)),
    );
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        let value = if value.is_finite() {
            value
        } else {
            out.check(format!("metric {name} is a finite number"), false);
            0.0
        };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(name, ok)| format!("{{\"check\":{},\"ok\":{ok}}}", json_str(name)))
        .collect();
    let mut report = vec![
        format!("\"workload\":{}", json_str(&args.workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"trace\":{}", args.trace),
        format!("\"host\":{}", host(&args.root)),
        format!("\"checks\":[{}]", checks.join(",")),
    ];
    report.extend(
        out.report
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k))),
    );
    let report = format!("{{{}}}", report.join(","));
    let out_dir = args.root.join(".bench_out");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(
            out_dir.join(format!(
                "report-{}-seed{}-trace{}.json",
                args.workload,
                args.seed,
                u8::from(args.trace)
            )),
            &report,
        );
    }
    println!("report {report}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w), "{w}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut expected: Vec<&str> = WORKLOADS.to_vec();
        expected.extend(END_TO_END.iter().map(|(n, _)| *n));
        expected.extend(PER_LAYER.iter().map(|(n, _)| *n));
        assert_eq!(declared, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn seed_zero_keeps_the_registry() {
        let tasks = sweep_tasks("fig1-sweep", 0);
        assert_eq!(tasks.len(), 78);
        for (t, reg) in tasks.iter().zip(mg_workloads::suite()) {
            assert_eq!(t.spec, reg);
        }
        let remixed = sweep_tasks("fig1-sweep", 7);
        assert!(remixed
            .iter()
            .zip(&tasks)
            .all(|(a, b)| a.spec.seed != b.spec.seed));
        assert!(remixed
            .iter()
            .zip(&tasks)
            .all(|(a, b)| a.spec.params == b.spec.params));
        let short = sweep_tasks("select-short", 0);
        assert!(short
            .iter()
            .all(|t| (1_000..10_000).contains(&t.spec.params.target_dyn)));
        assert_eq!(short[0].cells.len(), 9);
    }

    #[test]
    fn pools_are_valid_requests() {
        let train = MachineConfig::reduced();
        for pool in [
            serve_pool(),
            probe_pool("fig1-sweep"),
            probe_pool("select-short"),
        ] {
            for req in &pool {
                mg_serve::JobSpec::from_request(req, &train).expect("valid request");
            }
        }
        assert_eq!(serve_pool().len(), 24);
        assert_eq!(probe_pool("fig1-sweep")[0].schemes.len(), 4);
        assert_eq!(probe_pool("select-short")[0].schemes.len(), 8);
    }
}
