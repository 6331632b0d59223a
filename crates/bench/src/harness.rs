//! Shared experiment harness: runs benchmarks under every selector and
//! machine configuration, producing the rows behind each figure.
//!
//! The harness API is *fallible*: contexts are built with
//! [`BenchContext::builder`] (or [`BenchContext::try_new`]) and runs
//! executed with [`BenchContext::try_run`], both returning
//! [`Result`]s over [`BenchError`] so a sweep can record a failed cell
//! and continue. This is the only construction path — the old
//! panicking wrappers are gone.

use crate::cache::{self, CacheOutcome, ContextArtifacts};
use mg_core::candidate::SelectionConfig;
use mg_core::pipeline::try_prepare;
use mg_core::select::{Selector, SlackProfileModel, SpKind};
use mg_sim::{simulate, DynMgConfig, MachineConfig, MgConfig, SimOptions, SimResult};
use mg_workloads::{BenchmarkSpec, Executor, InputSet, Trace, Workload};
use serde::{Deserialize, Serialize};
use std::fmt;

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

    fn dyn_config(self) -> Option<DynMgConfig> {
        match self {
            Scheme::SlackDynamic => Some(DynMgConfig::slack_dynamic()),
            Scheme::IdealSlackDynamic => Some(DynMgConfig::ideal()),
            Scheme::IdealSlackDynamicDelay => Some(DynMgConfig::ideal_delay()),
            Scheme::IdealSlackDynamicSial => Some(DynMgConfig::ideal_sial()),
            _ => None,
        }
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
/// Defaults: train and run on the benchmark's primary input, the default
/// [`SelectionConfig`], context caching on (memory + disk).
#[derive(Clone, Debug)]
pub struct BenchContextBuilder {
    spec: BenchmarkSpec,
    train_cfg: MachineConfig,
    train_input: Option<InputSet>,
    run_input: Option<InputSet>,
    sel_cfg: SelectionConfig,
    cache: bool,
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

    /// The selection configuration (ablations).
    pub fn selection_config(mut self, cfg: SelectionConfig) -> BenchContextBuilder {
        self.sel_cfg = cfg;
        self
    }

    /// Enables/disables the context cache entirely (default on).
    pub fn cache(mut self, on: bool) -> BenchContextBuilder {
        self.cache = on;
        self
    }

    /// Enables/disables only the on-disk cache layer (default on).
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
        let (workload, trace, freqs, slack, cache_outcome) = if self.cache {
            let (a, outcome) = cache::context(
                &self.spec,
                &self.train_cfg,
                &train_input,
                &run_input,
                self.disk_cache,
            )?;
            (
                a.workload.clone(),
                a.trace.clone(),
                a.freqs.clone(),
                a.slack.clone(),
                outcome,
            )
        } else {
            let ContextArtifacts {
                workload,
                trace,
                freqs,
                slack,
            } = cache::compute_uncached(&self.spec, &self.train_cfg, &train_input, &run_input)?;
            (workload, trace, freqs, slack, CacheOutcome::Miss)
        };
        Ok(BenchContext {
            spec: self.spec,
            workload,
            trace,
            freqs,
            slack,
            sel_cfg: self.sel_cfg,
            cache_outcome,
        })
    }
}

/// One benchmark, fully prepared: workload, trace, frequency profile, and
/// slack profile, ready to run any scheme on any machine.
pub struct BenchContext {
    /// The benchmark spec.
    pub spec: BenchmarkSpec,
    /// Generated workload (on the run input).
    pub workload: Workload,
    /// Committed-path trace (identical across configurations).
    pub trace: Trace,
    /// Per-static execution frequencies.
    pub freqs: Vec<u64>,
    /// Local slack profile (self-trained unless overridden).
    pub slack: mg_sim::SlackProfile,
    sel_cfg: SelectionConfig,
    cache_outcome: CacheOutcome,
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
            sel_cfg: SelectionConfig::default(),
            cache: true,
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

    /// How this context's artifacts were served by the cache (a context
    /// built with caching disabled reports a miss).
    pub fn cache_outcome(&self) -> CacheOutcome {
        self.cache_outcome
    }

    /// The selection configuration in use.
    pub fn selection_config(&self) -> &SelectionConfig {
        &self.sel_cfg
    }

    /// Overrides the selection configuration (ablations).
    pub fn set_selection_config(&mut self, cfg: SelectionConfig) {
        self.sel_cfg = cfg;
    }

    fn selector_for(&self, scheme: Scheme) -> Option<Selector> {
        let sp = |kind| {
            Selector::SlackProfile(
                SlackProfileModel {
                    kind,
                    ..SlackProfileModel::default()
                },
                self.slack.clone(),
            )
        };
        match scheme {
            Scheme::NoMg => None,
            Scheme::StructAll
            | Scheme::SlackDynamic
            | Scheme::IdealSlackDynamic
            | Scheme::IdealSlackDynamicDelay
            | Scheme::IdealSlackDynamicSial => Some(Selector::StructAll),
            Scheme::StructNone => Some(Selector::StructNone),
            Scheme::StructBounded => Some(Selector::StructBounded),
            Scheme::SlackProfile => Some(sp(SpKind::Full)),
            Scheme::SlackProfileDelay => Some(sp(SpKind::DelayOnly)),
            Scheme::SlackProfileSial => Some(sp(SpKind::Sial)),
            Scheme::SlackProfileMem => Some(Selector::SlackProfile(
                SlackProfileModel::miss_aware(),
                self.slack.clone(),
            )),
        }
    }

    /// Runs one scheme on one machine configuration.
    pub fn try_run(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
    ) -> Result<SchemeRun, BenchError> {
        self.try_run_with(scheme, machine, None, None)
    }

    /// Runs one scheme on one machine with optional overrides for the
    /// mini-graph hardware (default [`MgConfig::paper`]) and the
    /// selection configuration (default: the context's).
    pub fn try_run_with(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
        mg: Option<MgConfig>,
        sel: Option<&SelectionConfig>,
    ) -> Result<SchemeRun, BenchError> {
        let (r, est_coverage) = self.try_sim_with(scheme, machine, mg, sel)?;
        SchemeRun::try_from_sim(&self.spec.name, scheme, r, est_coverage)
    }

    /// Like [`BenchContext::try_run_with`], but returns the raw
    /// [`SimResult`] (plus the selection-time coverage estimate) instead
    /// of the condensed [`SchemeRun`]. A cycle-capped run is *not* an
    /// error at this layer — `hit_cycle_cap` is reported in the result —
    /// so callers like the golden-stats digest can still observe the full
    /// statistics.
    pub fn try_sim_with(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
        mg: Option<MgConfig>,
        sel: Option<&SelectionConfig>,
    ) -> Result<(SimResult, f64), BenchError> {
        let p = self.prepare_sim(scheme, machine, mg, sel)?;
        let est = p.est_coverage;
        Ok((p.simulate(), est))
    }

    /// Builds everything a timing simulation of one (scheme, machine)
    /// cell needs — the (possibly rewritten) program, its committed
    /// trace, the machine, and the simulator options — without running
    /// it. This is the seam the engine-throughput harness (`perf`) uses
    /// to time [`simulate`] in isolation, excluding selection and
    /// functional re-execution.
    pub fn prepare_sim(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
        mg: Option<MgConfig>,
        sel: Option<&SelectionConfig>,
    ) -> Result<PreparedSim, BenchError> {
        match self.selector_for(scheme) {
            None => Ok(PreparedSim {
                program: self.workload.program.clone(),
                trace: self.trace.clone(),
                machine: machine.clone(),
                opts: SimOptions::default(),
                est_coverage: 0.0,
            }),
            Some(selector) => {
                let prepared = try_prepare(
                    &self.workload.program,
                    &self.freqs,
                    &selector,
                    sel.unwrap_or(&self.sel_cfg),
                )
                .map_err(|e| BenchError::Rewrite {
                    bench: self.spec.name.clone(),
                    scheme,
                    detail: e.to_string(),
                })?;
                // The tagged program reorders blocks; its committed path
                // must be re-derived functionally.
                let (trace, _) = Executor::new(&prepared.program)
                    .run_with_mem(&self.workload.init_mem)
                    .map_err(|e| BenchError::Exec {
                        bench: self.spec.name.clone(),
                        stage: "rewritten-program execution".to_string(),
                        detail: e.to_string(),
                    })?;
                let mg_machine = machine.clone().with_mg(mg.unwrap_or_else(MgConfig::paper));
                let opts = SimOptions {
                    dyn_mg: scheme.dyn_config(),
                    ..SimOptions::default()
                };
                Ok(PreparedSim {
                    program: prepared.program,
                    trace,
                    machine: mg_machine,
                    opts,
                    est_coverage: prepared.est_coverage,
                })
            }
        }
    }

    /// Runs one scheme on one machine with the pipeline observer
    /// attached, returning both the condensed row and the full
    /// observability report (trace, stall attribution, occupancy).
    ///
    /// Only available with the `obs` feature; without it the simulator
    /// carries no instrumentation at all.
    #[cfg(feature = "obs")]
    pub fn try_run_obs(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
        obs: mg_obs::ObsConfig,
    ) -> Result<(SchemeRun, mg_obs::ObsReport), BenchError> {
        self.try_run_with_obs(scheme, machine, None, None, obs)
    }

    /// [`BenchContext::try_run_obs`] with the full per-cell overrides of
    /// [`BenchContext::try_run_with`] — the sweep runner's instrumented
    /// cell path.
    #[cfg(feature = "obs")]
    pub fn try_run_with_obs(
        &self,
        scheme: Scheme,
        machine: &MachineConfig,
        mg: Option<MgConfig>,
        sel: Option<&SelectionConfig>,
        obs: mg_obs::ObsConfig,
    ) -> Result<(SchemeRun, mg_obs::ObsReport), BenchError> {
        let mut p = self.prepare_sim(scheme, machine, mg, sel)?;
        p.opts.obs = Some(obs);
        let mut r = p.simulate();
        let report = r
            .obs
            .take()
            .expect("simulate returns a report when an observer is configured");
        let run = SchemeRun::try_from_sim(&self.spec.name, scheme, r, p.est_coverage)?;
        Ok((run, report))
    }
}

/// A fully prepared timing-simulation input for one (scheme, machine)
/// cell: run [`PreparedSim::simulate`] any number of times; every run is
/// identical.
#[derive(Clone, Debug)]
pub struct PreparedSim {
    /// The (possibly rewritten/tagged) program to simulate.
    pub program: mg_isa::Program,
    /// Its committed-path trace.
    pub trace: Trace,
    /// The machine configuration (mini-graph support applied).
    pub machine: MachineConfig,
    /// Simulator options (dynamic-disabling config applied).
    pub opts: SimOptions,
    /// Coverage estimated at selection time.
    pub est_coverage: f64,
}

impl PreparedSim {
    /// Runs the timing simulation.
    pub fn simulate(&self) -> SimResult {
        simulate(&self.program, &self.trace, &self.machine, self.opts)
    }

    /// Dynamic trace length (committed operations fed to the engine).
    pub fn trace_len(&self) -> usize {
        self.trace.len()
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

impl SchemeRun {
    fn try_from_sim(
        bench: &str,
        scheme: Scheme,
        r: SimResult,
        est_coverage: f64,
    ) -> Result<SchemeRun, BenchError> {
        if r.hit_cycle_cap {
            return Err(BenchError::CycleCap {
                bench: bench.to_string(),
                scheme,
            });
        }
        Ok(SchemeRun {
            scheme,
            ipc: r.ipc(),
            cycles: r.stats.cycles,
            coverage: r.stats.coverage(),
            est_coverage,
            disabled_templates: r.stats.disabled_templates,
            serialized_handles: r.stats.serialized_handles,
            dl1_miss_rate: r.stats.dl1.miss_rate(),
        })
    }
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
pub fn save_json<T: Serialize>(name: &str, rows: &T) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
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
