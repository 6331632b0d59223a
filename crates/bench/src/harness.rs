//! Shared experiment harness: runs benchmarks under every selector and
//! machine configuration, producing the rows behind each figure.
//!
//! The harness API is *fallible*: contexts are built with
//! [`BenchContext::builder`] (or [`BenchContext::try_new`]), and
//! [`BenchContext::prepare`] turns one [`SweepCell`] into a
//! [`PreparedSim`], the only way to a simulation input. Both return
//! [`Result`]s over [`BenchError`] so a sweep can record a failed cell
//! and continue.

use crate::cache::{self, CacheOutcome, ContextArtifacts};
use crate::runner::SweepCell;
use mg_core::candidate::{enumerate, Candidate, SelectionConfig};
use mg_core::rewrite::try_rewrite;
use mg_core::select::{greedy_select, Selector, SlackProfileModel, SpKind};
use mg_sim::{simulate, DynMgConfig, MachineConfig, MgConfig, SimOptions, SimResult, SlackProfile};
use mg_workloads::{BenchmarkSpec, Executor, InputSet, Trace};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version of the JSON results schema written by [`save_json`]. Bump on
/// any change to row shapes or envelope fields.
pub const SCHEMA_VERSION: u32 = 1;

/// Which selection scheme a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Scheme {
    /// No mini-graphs at all.
    NoMg,
    /// `Struct-All` static selection.
    StructAll,
    /// `Struct-None` static selection.
    StructNone,
    /// `Struct-Bounded` static selection.
    StructBounded,
    /// `Slack-Profile` (full model).
    SlackProfile,
    /// `Slack-Profile-Delay` (no consumer-slack rule).
    SlackProfileDelay,
    /// `Slack-Profile-SIAL` (arrival-order heuristic).
    SlackProfileSial,
    /// Miss-aware `Slack-Profile` (observed latencies in rule #2 — the
    /// paper's stated future work for `mcf`).
    SlackProfileMem,
    /// `Slack-Dynamic` (Struct-All pool + run-time disabling, outlined
    /// penalty).
    SlackDynamic,
    /// `Ideal-Slack-Dynamic` (no outlining penalty).
    IdealSlackDynamic,
    /// `Ideal-Slack-Dynamic-Delay` (delay evidence only, no penalty).
    IdealSlackDynamicDelay,
    /// `Ideal-Slack-Dynamic-SIAL` (arrival heuristic, no penalty).
    IdealSlackDynamicSial,
}

impl Scheme {
    /// Every scheme, in paper presentation order.
    pub const ALL: [Scheme; 12] = [
        Scheme::NoMg,
        Scheme::StructAll,
        Scheme::StructNone,
        Scheme::StructBounded,
        Scheme::SlackProfile,
        Scheme::SlackProfileDelay,
        Scheme::SlackProfileSial,
        Scheme::SlackProfileMem,
        Scheme::SlackDynamic,
        Scheme::IdealSlackDynamic,
        Scheme::IdealSlackDynamicDelay,
        Scheme::IdealSlackDynamicSial,
    ];

    /// Parses a paper-style display name (as produced by
    /// [`Scheme::name`]), case-insensitively.
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::NoMg => "no-minigraphs",
            Scheme::StructAll => "Struct-All",
            Scheme::StructNone => "Struct-None",
            Scheme::StructBounded => "Struct-Bounded",
            Scheme::SlackProfile => "Slack-Profile",
            Scheme::SlackProfileDelay => "Slack-Profile-Delay",
            Scheme::SlackProfileSial => "Slack-Profile-SIAL",
            Scheme::SlackProfileMem => "Slack-Profile-Mem",
            Scheme::SlackDynamic => "Slack-Dynamic",
            Scheme::IdealSlackDynamic => "Ideal-Slack-Dynamic",
            Scheme::IdealSlackDynamicDelay => "Ideal-SD-Delay",
            Scheme::IdealSlackDynamicSial => "Ideal-SD-SIAL",
        }
    }

    /// The static scheme whose selection this scheme simulates: itself
    /// for a static selector, Struct-All for Slack-Dynamic and the three
    /// Ideal-SD schemes (they add a run-time controller on top of it),
    /// none for no-mg.
    pub fn selection(self) -> Option<Scheme> {
        match self {
            Scheme::NoMg => None,
            Scheme::SlackDynamic
            | Scheme::IdealSlackDynamic
            | Scheme::IdealSlackDynamicDelay
            | Scheme::IdealSlackDynamicSial => Some(Scheme::StructAll),
            s => Some(s),
        }
    }

    /// The run-time controller this scheme runs on top of its
    /// selection, if any.
    pub fn controller(self) -> Option<DynMgConfig> {
        match self {
            Scheme::SlackDynamic => Some(DynMgConfig::slack_dynamic()),
            Scheme::IdealSlackDynamic => Some(DynMgConfig::ideal()),
            Scheme::IdealSlackDynamicDelay => Some(DynMgConfig::ideal_delay()),
            Scheme::IdealSlackDynamicSial => Some(DynMgConfig::ideal_sial()),
            _ => None,
        }
    }

    /// The `mg_core` selector of this scheme's selection, reading the
    /// slack profile `slack` (none for no-mg).
    pub fn selector(self, slack: &SlackProfile) -> Option<Selector> {
        let sp = |model| Selector::SlackProfile(model, slack.clone());
        let kind = |kind| SlackProfileModel {
            kind,
            ..SlackProfileModel::default()
        };
        Some(match self.selection()? {
            Scheme::StructNone => Selector::StructNone,
            Scheme::StructBounded => Selector::StructBounded,
            Scheme::SlackProfile => sp(kind(SpKind::Full)),
            Scheme::SlackProfileDelay => sp(kind(SpKind::DelayOnly)),
            Scheme::SlackProfileSial => sp(kind(SpKind::Sial)),
            Scheme::SlackProfileMem => sp(SlackProfileModel::miss_aware()),
            _ => Selector::StructAll,
        })
    }
}

/// Why a benchmark context could not be built or a cell could not run.
///
/// Every variant owns plain `String`/integer data and round-trips through
/// serde: the sweep journal persists failed cells as first-class rows, so
/// a resumed sweep replays them bit-identically instead of re-running
/// them.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchError {
    /// A functional execution failed (`stage` says which one).
    Exec {
        /// Benchmark name.
        bench: String,
        /// Which execution failed (train input, run input, rewritten
        /// program).
        stage: String,
        /// The underlying executor error, rendered.
        detail: String,
    },
    /// The binary rewriter rejected a scheme's selection (oversized
    /// instance, unschedulable group, or a structurally invalid result).
    /// A well-behaved selector never produces one of these; the sweep
    /// records the row as an error instead of aborting.
    Rewrite {
        /// Benchmark name.
        bench: String,
        /// The scheme whose selection was rejected.
        scheme: Scheme,
        /// The underlying [`RewriteError`](mg_core::rewrite::RewriteError),
        /// rendered.
        detail: String,
    },
    /// The timing simulation hit its cycle cap — the run's numbers are
    /// meaningless, but the sweep can record the failure and continue.
    CycleCap {
        /// Benchmark name.
        bench: String,
        /// The scheme whose simulation hit the cap.
        scheme: Scheme,
    },
    /// A harness configuration knob (environment variable) was rejected.
    Config {
        /// The knob, e.g. `MG_JOBS`.
        knob: String,
        /// The offending value as given.
        value: String,
        /// Why it was rejected.
        detail: String,
    },
    /// The cell's code panicked; the supervisor caught the unwind at the
    /// cell boundary and recorded it as a failure row instead of letting
    /// it abort the sweep.
    Panicked {
        /// Benchmark name.
        bench: String,
        /// Index of the cell that panicked (in spec cell order).
        cell: usize,
        /// The panic payload, rendered (`&str`/`String` payloads are
        /// preserved verbatim; anything else becomes a placeholder).
        payload: String,
    },
    /// The cell exceeded the sweep's wall-clock watchdog and was
    /// abandoned.
    TimedOut {
        /// Benchmark name.
        bench: String,
        /// Index of the cell that timed out (in spec cell order).
        cell: usize,
        /// The configured watchdog limit, in milliseconds.
        limit_ms: u64,
    },
    /// The sweep was asked to shut down before this cell ran; the cell
    /// was skipped, not attempted. Interrupted rows are never journaled,
    /// so a resumed sweep re-runs them.
    Interrupted {
        /// Benchmark name.
        bench: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Exec {
                bench,
                stage,
                detail,
            } => {
                write!(f, "{bench}: {stage} failed: {detail}")
            }
            BenchError::Rewrite {
                bench,
                scheme,
                detail,
            } => {
                write!(
                    f,
                    "{bench}: rewrite failed under {}: {detail}",
                    scheme.name()
                )
            }
            BenchError::CycleCap { bench, scheme } => {
                write!(
                    f,
                    "{bench}: simulation hit its cycle cap under {}",
                    scheme.name()
                )
            }
            BenchError::Config {
                knob,
                value,
                detail,
            } => {
                write!(f, "invalid {knob}={value:?}: {detail}")
            }
            BenchError::Panicked {
                bench,
                cell,
                payload,
            } => {
                write!(f, "{bench}: cell {cell} panicked: {payload}")
            }
            BenchError::TimedOut {
                bench,
                cell,
                limit_ms,
            } => {
                write!(f, "{bench}: cell {cell} exceeded the {limit_ms}ms watchdog")
            }
            BenchError::Interrupted { bench } => {
                write!(f, "{bench}: skipped (sweep shutdown requested)")
            }
        }
    }
}

impl std::error::Error for BenchError {}

/// Configures and builds a [`BenchContext`].
///
/// Defaults: train and run on the benchmark's primary input, context
/// caching on (memory + disk).
#[derive(Clone, Debug)]
pub struct BenchContextBuilder {
    spec: BenchmarkSpec,
    train_cfg: MachineConfig,
    train_input: Option<InputSet>,
    run_input: Option<InputSet>,
    disk_cache: bool,
}

impl BenchContextBuilder {
    /// The input set profiling runs on (default: the primary input).
    pub fn train_input(mut self, input: InputSet) -> BenchContextBuilder {
        self.train_input = Some(input);
        self
    }

    /// The input set the evaluated execution runs on (default: the
    /// primary input).
    pub fn run_input(mut self, input: InputSet) -> BenchContextBuilder {
        self.run_input = Some(input);
        self
    }

    /// Enables/disables the on-disk cache layer (default on). Without
    /// it, a context the process has not built yet is profiled in the
    /// process.
    pub fn disk_cache(mut self, on: bool) -> BenchContextBuilder {
        self.disk_cache = on;
        self
    }

    /// Generates, executes, and profiles the benchmark.
    pub fn build(self) -> Result<BenchContext, BenchError> {
        let train_input = self
            .train_input
            .unwrap_or_else(|| self.spec.primary_input());
        let run_input = self.run_input.unwrap_or_else(|| self.spec.primary_input());
        let (artifacts, cache_outcome) = cache::context(
            &self.spec,
            &self.train_cfg,
            &train_input,
            &run_input,
            self.disk_cache,
        )?;
        Ok(BenchContext {
            spec: self.spec,
            artifacts,
            cache_outcome,
            pools: Mutex::default(),
            selections: Mutex::default(),
        })
    }
}

/// One benchmark, fully prepared: workload, trace, frequency profile, and
/// slack profile, ready to run any scheme on any machine.
pub struct BenchContext {
    /// The benchmark spec.
    pub spec: BenchmarkSpec,
    /// The run-input workload and its committed trace, plus the
    /// training run's frequency and slack profiles, as the context cache
    /// serves them.
    pub artifacts: Arc<ContextArtifacts>,
    cache_outcome: CacheOutcome,
    /// The candidate pools [`BenchContext::prepare`] has enumerated, one
    /// per distinct [`SelectionConfig`], kept as long as the context.
    pools: Mutex<Vec<(SelectionConfig, Arc<Vec<Candidate>>)>>,
    /// The selections it has made (or the error that felled one), one
    /// per selection key: a static scheme plus its configuration.
    selections: Mutex<Vec<((Scheme, SelectionConfig), Selected)>>,
}

/// A selection, or the error that felled it.
type Selected = Result<Arc<Selection>, BenchError>;

/// The entry under `key`, computed on a miss. The lock is not held while
/// computing, so a panicking computation leaves no entry behind and
/// poisons nothing; of two racing computations, the first stored wins.
fn memo<K: PartialEq, V: Clone>(
    entries: &Mutex<Vec<(K, V)>>,
    key: K,
    compute: impl FnOnce() -> V,
) -> V {
    let get = |e: &[(K, V)]| e.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone());
    let lock = || entries.lock().expect("no panic while the store is locked");
    if let Some(v) = get(&lock()) {
        return v;
    }
    let v = compute();
    let mut e = lock();
    if let Some(first) = get(&e) {
        return first;
    }
    e.push((key, v.clone()));
    v
}

impl BenchContext {
    /// Starts building a context that trains its slack profile on
    /// `train_cfg` (the paper self-trains on the reduced target machine).
    pub fn builder(spec: &BenchmarkSpec, train_cfg: &MachineConfig) -> BenchContextBuilder {
        BenchContextBuilder {
            spec: spec.clone(),
            train_cfg: train_cfg.clone(),
            train_input: None,
            run_input: None,
            disk_cache: true,
        }
    }

    /// Generates, executes, and profiles a benchmark on its primary
    /// input. Shorthand for `builder(spec, train_cfg).build()`.
    pub fn try_new(
        spec: &BenchmarkSpec,
        train_cfg: &MachineConfig,
    ) -> Result<BenchContext, BenchError> {
        Self::builder(spec, train_cfg).build()
    }

    /// How this context's artifacts were served by the cache.
    pub fn cache_outcome(&self) -> CacheOutcome {
        self.cache_outcome
    }

    /// Builds everything the timing simulation of `cell` needs, without
    /// running it. The cell's selection ([`Scheme::selection`] under the
    /// cell's [`SelectionConfig`], default [`SelectionConfig::default`])
    /// is made once per context and shared with every cell that makes
    /// it, from one candidate enumeration per configuration. The cell
    /// then applies its own machine, mini-graph hardware (default
    /// [`MgConfig::paper`]) and run-time controller
    /// ([`Scheme::controller`]).
    pub fn prepare(&self, cell: &SweepCell) -> Result<PreparedSim, BenchError> {
        let (selection, machine) = match cell.scheme.selection() {
            None => {
                let a = &self.artifacts;
                let unselected = Selection {
                    program: a.workload.program.clone(),
                    trace: a.trace.clone(),
                    est_coverage: 0.0,
                };
                (Arc::new(unselected), cell.machine.clone())
            }
            Some(selection) => {
                let sel = cell.sel.unwrap_or_default();
                // A shared failure is reported under the cell's scheme.
                let selected = self.select(selection, sel).map_err(|mut e| {
                    if let BenchError::Rewrite { scheme, .. } = &mut e {
                        *scheme = cell.scheme;
                    }
                    e
                })?;
                let mg = cell.mg.unwrap_or_else(MgConfig::paper);
                (selected, cell.machine.clone().with_mg(mg))
            }
        };
        Ok(PreparedSim {
            bench: self.spec.name.clone(),
            scheme: cell.scheme,
            selection,
            machine,
            opts: SimOptions {
                dyn_mg: cell.scheme.controller(),
                ..SimOptions::default()
            },
        })
    }

    /// The selection of the static scheme `scheme` under `sel`, from the
    /// store or made now.
    fn select(&self, scheme: Scheme, sel: SelectionConfig) -> Result<Arc<Selection>, BenchError> {
        let a = &self.artifacts;
        let program = &a.workload.program;
        memo(&self.selections, (scheme, sel), || {
            let pool = memo(&self.pools, sel, || Arc::new(enumerate(program, &sel)));
            let selector = scheme.selector(&a.slack).expect("a static scheme");
            let pool = selector.filter(program, pool.to_vec());
            let chosen = greedy_select(program, &pool, &a.freqs, &sel);
            let tagged = try_rewrite(program, &chosen.chosen).map_err(|e| BenchError::Rewrite {
                bench: self.spec.name.clone(),
                scheme,
                detail: e.to_string(),
            })?;
            // The tagged program reorders blocks; its committed path
            // must be re-derived functionally.
            let (trace, _) = Executor::new(&tagged)
                .run_with_mem(&a.workload.init_mem)
                .map_err(|e| cache::exec_err(&self.spec, "rewritten-program execution", e))?;
            Ok(Arc::new(Selection {
                program: tagged,
                trace,
                est_coverage: chosen.est_coverage,
            }))
        })
    }

    /// How many candidate pools and selections this context holds: one
    /// pool per distinct [`SelectionConfig`] and one selection per
    /// selection key its cells have prepared.
    pub fn held(&self) -> (usize, usize) {
        let pools = self.pools.lock().expect("pool store lock").len();
        let selections = self.selections.lock().expect("selection store lock");
        (pools, selections.len())
    }
}

/// What one selection produced: the rewritten (tagged) program, its
/// committed trace, and the coverage the selection estimated. For a
/// no-mg cell, the context's own program and trace.
#[derive(Debug)]
pub struct Selection {
    /// The program to simulate.
    pub program: mg_isa::Program,
    /// Its committed-path trace.
    pub trace: Trace,
    /// Coverage estimated at selection time.
    pub est_coverage: f64,
}

/// A fully prepared timing-simulation input for one cell: run
/// [`PreparedSim::simulate`] any number of times; every run is
/// identical.
#[derive(Clone, Debug)]
pub struct PreparedSim {
    /// Benchmark name.
    pub bench: String,
    /// The cell's scheme.
    pub scheme: Scheme,
    /// The program and trace to simulate, shared with every cell of the
    /// context that makes the same selection.
    pub selection: Arc<Selection>,
    /// The machine configuration (mini-graph support applied).
    pub machine: MachineConfig,
    /// Simulator options (run-time controller applied).
    pub opts: SimOptions,
}

impl PreparedSim {
    /// Runs the timing simulation. A cycle-capped run is not an error
    /// here (`hit_cycle_cap` says so), so a caller can still read its
    /// full statistics.
    pub fn simulate(&self) -> SimResult {
        let s = &self.selection;
        simulate(&s.program, &s.trace, &self.machine, self.opts)
    }

    /// The cell's row from a run of [`PreparedSim::simulate`]; a run
    /// that hit its cycle cap is a [`BenchError::CycleCap`].
    pub fn row(&self, r: &SimResult) -> Result<SchemeRun, BenchError> {
        if r.hit_cycle_cap {
            return Err(BenchError::CycleCap {
                bench: self.bench.clone(),
                scheme: self.scheme,
            });
        }
        Ok(SchemeRun {
            scheme: self.scheme,
            ipc: r.ipc(),
            cycles: r.stats.cycles,
            coverage: r.stats.coverage(),
            est_coverage: self.selection.est_coverage,
            disabled_templates: r.stats.disabled_templates,
            serialized_handles: r.stats.serialized_handles,
            dl1_miss_rate: r.stats.dl1.miss_rate(),
        })
    }
}

/// Result of one (scheme, machine) run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchemeRun {
    /// The scheme.
    pub scheme: Scheme,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Total cycles.
    pub cycles: u64,
    /// Measured dynamic coverage.
    pub coverage: f64,
    /// Coverage estimated at selection time.
    pub est_coverage: f64,
    /// Templates dynamically disabled (Slack-Dynamic only).
    pub disabled_templates: u64,
    /// Serialized handle executions observed.
    pub serialized_handles: u64,
    /// Data-L1 miss rate observed in the run.
    pub dl1_miss_rate: f64,
}

/// The per-benchmark observability section attached to results produced
/// with the observer enabled: identifies the (benchmark, scheme) cell and
/// carries the full [`mg_obs::ObsReport`] (trace tail, stall attribution,
/// occupancy, windowed IPC).
#[cfg(feature = "obs")]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObsSection {
    /// Benchmark name.
    pub bench: String,
    /// Scheme the instrumented run used.
    pub scheme: Scheme,
    /// The run's observability report.
    pub report: mg_obs::ObsReport,
}

#[cfg(feature = "obs")]
impl ObsSection {
    /// Wraps a report with its cell identity.
    pub fn new(bench: &str, scheme: Scheme, report: mg_obs::ObsReport) -> ObsSection {
        ObsSection {
            bench: bench.to_string(),
            scheme,
            report,
        }
    }

    /// Whether the report's stall attribution conserves cycles.
    pub fn conservation_ok(&self) -> bool {
        self.report.conservation_ok()
    }
}

/// The envelope every results file is wrapped in: a schema version and a
/// fingerprint of the simulated machine family, so downstream consumers
/// can reject rows produced by an incompatible harness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Envelope<T> {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// [`machine_fingerprint`] at write time.
    pub machine_fingerprint: String,
    /// The figure's rows.
    pub rows: T,
}

/// A stable fingerprint of the simulated machine family (baseline +
/// reduced configurations and the paper's mini-graph support). Results
/// with different fingerprints came from different modeled hardware and
/// must not be compared.
pub fn machine_fingerprint() -> String {
    let repr = format!(
        "{:?}|{:?}|{:?}",
        MachineConfig::baseline(),
        MachineConfig::reduced(),
        MgConfig::paper()
    );
    format!("{:016x}", cache::stable_hash64(repr.as_bytes()))
}

/// Writes a JSON result file under `results/` at the workspace root,
/// wrapping `rows` in the versioned [`Envelope`] and creating the
/// directory if needed. Returns the path written.
pub fn save_json<T: Serialize>(name: &str, rows: &T) -> PathBuf {
    save_json_in(Path::new("results"), name, rows)
}

/// [`save_json`] into `dir` instead of `results/`.
pub fn save_json_in<T: Serialize>(dir: &Path, name: &str, rows: &T) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows,
    };
    let json = serde_json::to_string_pretty(&envelope).expect("serialize results");
    std::fs::write(&path, json).expect("write results file");
    path
}

/// Writes a binary result record under `results/` at the workspace
/// root: the same versioned [`Envelope`] as [`save_json`], sealed as a
/// checksummed [`crate::binfmt`] container of the given kind. The
/// record's container schema is [`SCHEMA_VERSION`], matching the
/// envelope inside. Returns the path written (`results/<name>.mgb`).
pub fn save_bin<T: Serialize>(
    name: &str,
    kind: crate::binfmt::RecordKind,
    rows: &T,
) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.{}", crate::binfmt::EXT));
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows,
    };
    let bytes = crate::binfmt::to_record(kind, SCHEMA_VERSION, &envelope);
    std::fs::write(&path, bytes).expect("write results file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_fingerprint_is_stable_and_hex() {
        let a = machine_fingerprint();
        assert_eq!(a, machine_fingerprint());
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn envelope_roundtrips() {
        let e = Envelope {
            schema_version: SCHEMA_VERSION,
            machine_fingerprint: machine_fingerprint(),
            rows: vec![1u32, 2, 3],
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Envelope<Vec<u32>> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.rows, vec![1, 2, 3]);
    }

    #[test]
    fn a_panic_while_preparing_poisons_nothing() {
        let store: Mutex<Vec<(u32, u32)>> = Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(|| memo(&store, 1, || panic!("mid-selection")));
        assert!(caught.is_err() && !store.is_poisoned());
        assert_eq!(memo(&store, 1, || 7), 7);
        assert_eq!(memo(&store, 1, || 8), 7, "the stored entry is served");
    }

    #[test]
    fn a_shared_failure_is_reported_under_each_cell_scheme() {
        use Scheme::{IdealSlackDynamic, SlackDynamic, StructAll};
        let mut spec = mg_workloads::limit_study_benchmark();
        spec.params.target_dyn = 2_000;
        let red = MachineConfig::reduced();
        let ctx = BenchContext::builder(&spec, &red).disk_cache(false);
        let ctx = ctx.build().unwrap();
        let failed = |scheme| BenchError::Rewrite {
            bench: spec.name.clone(),
            scheme,
            detail: "unschedulable".into(),
        };
        let key = (StructAll, SelectionConfig::default());
        let first = (key, Err(failed(StructAll)));
        ctx.selections.lock().unwrap().push(first);
        for scheme in [StructAll, SlackDynamic, IdealSlackDynamic] {
            let err = ctx.prepare(&SweepCell::new(scheme, &red)).unwrap_err();
            assert_eq!(err, failed(scheme));
        }
        assert_eq!(ctx.held(), (0, 1));
    }

    #[test]
    fn scheme_names_round_trip() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_name(s.name()), Some(s));
            assert_eq!(Scheme::from_name(&s.name().to_lowercase()), Some(s));
        }
        assert_eq!(Scheme::from_name("no-such-scheme"), None);
    }

    #[test]
    fn bench_error_displays_context() {
        let e = BenchError::CycleCap {
            bench: "spec_mcf".into(),
            scheme: Scheme::StructAll,
        };
        let s = e.to_string();
        assert!(s.contains("spec_mcf") && s.contains("Struct-All"));
        let x = BenchError::Exec {
            bench: "mib_sha".into(),
            stage: "run-input execution".into(),
            detail: "boom".into(),
        };
        assert!(x.to_string().contains("run-input execution"));
    }

    #[test]
    fn bench_error_round_trips_through_serde() {
        let errors = [
            BenchError::Exec {
                bench: "mib_sha".into(),
                stage: "run-input execution".into(),
                detail: "boom".into(),
            },
            BenchError::Rewrite {
                bench: "spec_gcc".into(),
                scheme: Scheme::StructAll,
                detail: "oversized instance in bb3: 300 constituents".into(),
            },
            BenchError::CycleCap {
                bench: "spec_mcf".into(),
                scheme: Scheme::SlackDynamic,
            },
            BenchError::Config {
                knob: "MG_JOBS".into(),
                value: "O8".into(),
                detail: "expected a positive integer".into(),
            },
            BenchError::Panicked {
                bench: "gzip-like".into(),
                cell: 2,
                payload: "mg-fault: injected panic".into(),
            },
            BenchError::TimedOut {
                bench: "mib_fft".into(),
                cell: 1,
                limit_ms: 5_000,
            },
            BenchError::Interrupted {
                bench: "mib_crc32".into(),
            },
        ];
        for e in errors {
            let json = serde_json::to_string(&e).unwrap();
            let back: BenchError = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e, "round-trip of {json}");
        }
    }
}
