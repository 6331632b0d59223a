//! The sweeps `reproduce` runs and the results drawn from them.
//!
//! Every published figure that trains on the reduced machine with
//! primary inputs reads cells of one grid. [`PAPER_CELLS`] lists its 19
//! distinct (scheme, machine) pairs and [`paper_spec`] sweeps them once.
//! [`sweeps`] adds what that grid cannot hold: Figure 9's four
//! cross-training sweeps and the ablation sweep, which carries only its
//! non-default variants.
//!
//! Each view below ([`table1`], [`fig1`], [`fig3`], [`fig6`], [`fig7`],
//! [`ext_memaware`], [`calib`], [`fig9`], [`ablation`]) is a pure
//! function of those sweeps' results: it returns the text the
//! `reproduce` binary prints and writes to `results/<name>.txt`, plus
//! the rows it writes to `results/<name>.json`. Views look paper cells
//! up by (scheme, machine), join the other sweeps' rows to them by
//! benchmark, and skip a benchmark only when one of the cells *they*
//! read failed. [`fig8`], the limit study, is the one view that runs its
//! own simulations: 1024 subsets of one benchmark's candidates.

use crate::harness::{BenchError, Scheme, SchemeRun};
use crate::runner::{par_map, BenchRows, InputSel, SweepCell, SweepResult, SweepSpec};
use crate::stats::{mean, s_curve};
use mg_core::candidate::{enumerate, Candidate, SelectionConfig};
use mg_core::classify::{classify, Serialization};
use mg_core::depgraph::{schedule_with_groups, BlockDeps};
use mg_core::pipeline::profile_workload;
use mg_core::rewrite::{rewrite, ChosenInstance};
use mg_core::select::{slack_profile_admits, SlackProfileModel};
use mg_sim::config::rename_regs;
use mg_sim::{simulate, DynMgConfig, MachineConfig, MgConfig, SimOptions};
use mg_workloads::{limit_study_benchmark, BenchmarkSpec, Executor, Suite};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Write;
use Machine::{Base, Reduced};
use Scheme::*;

/// The two Table 1 machines a paper cell runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Machine {
    /// The fully-provisioned processor.
    Base,
    /// The reduced processor (also the one every context trains on).
    Reduced,
}

impl Machine {
    /// The machine's configuration.
    fn config(self) -> MachineConfig {
        match self {
            Base => MachineConfig::baseline(),
            Reduced => MachineConfig::reduced(),
        }
    }
}

/// The union of every paper figure's cells, each listed once. Cell 0 is
/// no-mg on the baseline machine: every relative number divides by it.
pub const PAPER_CELLS: [(Scheme, Machine); 19] = [
    (NoMg, Base),
    (NoMg, Reduced),
    (StructAll, Reduced),
    (StructNone, Reduced),
    (SlackProfile, Reduced),
    (StructAll, Base),
    (StructNone, Base),
    (StructBounded, Reduced),
    (StructBounded, Base),
    (SlackProfile, Base),
    (SlackDynamic, Reduced),
    (SlackDynamic, Base),
    (SlackProfileDelay, Reduced),
    (SlackProfileSial, Reduced),
    (IdealSlackDynamic, Reduced),
    (IdealSlackDynamicDelay, Reduced),
    (IdealSlackDynamicSial, Reduced),
    (SlackProfileMem, Reduced),
    (SlackProfileMem, Base),
];

/// The paper sweep over `benches`: every [`PAPER_CELLS`] cell, trained
/// on the reduced machine with primary inputs.
pub fn paper_spec(benches: &[BenchmarkSpec]) -> SweepSpec {
    SweepSpec::new(&Reduced.config())
        .benches(benches.iter().cloned())
        .cells(
            PAPER_CELLS
                .iter()
                .map(|&(s, m)| SweepCell::new(s, &m.config())),
        )
}

/// The index of `(scheme, machine)` in [`PAPER_CELLS`].
///
/// # Panics
///
/// If the pair is not a paper cell.
pub fn paper_cell(scheme: Scheme, machine: Machine) -> usize {
    PAPER_CELLS
        .iter()
        .position(|&c| c == (scheme, machine))
        .unwrap_or_else(|| panic!("{} on {machine:?} is not a paper cell", scheme.name()))
}

/// How a Figure 9 sweep trains its slack profiles differently from the
/// paper sweep (training machine, training input), and the suites it
/// evaluates.
type CrossTraining = (fn() -> MachineConfig, InputSel, [Suite; 2]);

/// Figure 9's cross-training: the top panel's three, then the bottom's.
const CROSS_TRAINING: [CrossTraining; 4] = [
    (MachineConfig::two_way, InputSel::Primary, MEDIA_COMM),
    (MachineConfig::eight_way, InputSel::Primary, MEDIA_COMM),
    (MachineConfig::reduced_dmem4, InputSel::Primary, MEDIA_COMM),
    (MachineConfig::reduced, InputSel::Alternate, SPEC_MIB),
];
const MEDIA_COMM: [Suite; 2] = [Suite::MediaBench, Suite::CommBench];
const SPEC_MIB: [Suite; 2] = [Suite::SpecInt, Suite::MiBench];

/// How many of the paper sweep's benchmarks, from the first, the
/// ablations cover: each ablation is one more simulation per benchmark.
pub const ABLATION_BENCHES: usize = 20;

/// One ablation of the design choices DESIGN.md calls out: (label, MGT
/// template budget, maximum mini-graph size, internal serialization,
/// ALU pipelines). The paper's design is (512, 4, on, 2): 4 is the ALU
/// pipeline depth, and serial constituents are §4.1's design-choice
/// claim.
type Ablation = (&'static str, usize, usize, bool, u32);

/// The ablations, in output order.
const ABLATIONS: [Ablation; 11] = [
    ("mgt-budget-32", 32, 4, true, 2),
    ("mgt-budget-128", 128, 4, true, 2),
    ("mgt-budget-512", 512, 4, true, 2),
    ("mgt-budget-4096", 4096, 4, true, 2),
    ("max-size-2", 512, 2, true, 2),
    ("max-size-3", 512, 3, true, 2),
    ("max-size-4", 512, 4, true, 2),
    ("no-internal-serialization", 512, 4, false, 2),
    ("alu-pipelines-1", 512, 4, true, 1),
    ("alu-pipelines-2", 512, 4, true, 2),
    ("alu-pipelines-4", 512, 4, true, 4),
];

/// An ablation's Slack-Profile cell on the reduced machine, and whether
/// it is the paper's design, i.e. the paper sweep's cell.
fn ablation_cell(&(_, budget, size, serial, pipes): &Ablation) -> (SweepCell, bool) {
    let sel = SelectionConfig {
        mgt_budget: budget,
        max_size: size,
        ..Default::default()
    };
    let hw = MgConfig {
        internal_serialization: serial,
        max_mg_issue: pipes,
        max_mem_mg_issue: pipes.div_ceil(2),
        alu_pipelines: pipes,
        ..MgConfig::paper()
    };
    let cell = SweepCell::new(SlackProfile, &Reduced.config());
    let paper = sel == SelectionConfig::default() && hw == MgConfig::paper();
    (cell.with_sel(sel).with_mg(hw), paper)
}

/// Every sweep `reproduce` runs over `benches`, in order:
///
/// 1. the [`paper_spec`];
/// 2. Figure 9's four cross-training sweeps, each the single cell
///    Slack-Profile on the reduced machine over the benchmarks of its
///    suites (the self-trained points are paper cells);
/// 3. the ablation sweep over the first [`ABLATION_BENCHES`], one cell
///    per ablation other than the paper's design (the baseline and the
///    paper-design rows are paper cells).
pub fn sweeps(benches: &[BenchmarkSpec]) -> Vec<SweepSpec> {
    let red = Reduced.config();
    let cross = CROSS_TRAINING.map(|(train, input, suites)| {
        let benches = benches.iter().filter(|b| suites.contains(&b.suite));
        SweepSpec::new(&train())
            .benches(benches.cloned())
            .train_input(input)
            .cell(SweepCell::new(SlackProfile, &red))
    });
    let ablations = ABLATIONS.iter().map(ablation_cell);
    let ablation = SweepSpec::new(&red)
        .benches(benches.iter().take(ABLATION_BENCHES).cloned())
        .cells(ablations.filter_map(|(cell, paper)| (!paper).then_some(cell)));
    std::iter::once(paper_spec(benches))
        .chain(cross)
        .chain([ablation])
        .collect()
}

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($t:expr, $($arg:tt)*) => {
        writeln!($t, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// One output of the paper sweep.
#[derive(Clone, Debug, Default)]
pub struct View<R> {
    /// What `reproduce` prints and writes to `results/<name>.txt`.
    pub text: String,
    /// What `reproduce` writes to `results/<name>.json`.
    pub rows: R,
    /// For each benchmark this view left out, the first failed cell it
    /// read.
    pub skipped: Vec<BenchError>,
}

impl<R> View<Vec<R>> {
    /// One row per benchmark of the paper sweep, or of `sweeps` (which
    /// share a benchmark list drawn from it), for which `row` succeeds,
    /// and no text yet. `row` reads the benchmark's paper cells and its
    /// row of each of `sweeps`, and fails, skipping the benchmark, as
    /// soon as it reads a failed cell, so a view skips only for the
    /// cells it actually reads.
    fn rows<'a>(
        paper: &'a SweepResult,
        sweeps: &[&'a SweepResult],
        row: impl Fn(Cells<'a>, &[&'a BenchRows]) -> Result<R, &'a BenchError>,
    ) -> Self {
        let mut view = Self::default();
        let benches = sweeps.first().map_or(&paper.rows, |s| &s.rows);
        for (i, bench) in benches.iter().enumerate() {
            let cells = (paper.rows.iter())
                .find(|p| p.bench == bench.bench)
                .unwrap_or_else(|| panic!("{} is not in the paper sweep", bench.bench));
            let rows: Vec<&BenchRows> = sweeps.iter().map(|&s| &s.rows[i]).collect();
            match row(Cells(cells), &rows) {
                Ok(r) => view.rows.push(r),
                Err(e) => view.skipped.push(e.clone()),
            }
        }
        view
    }
}

/// One benchmark's cells of the paper sweep, looked up by (scheme,
/// machine).
#[derive(Clone, Copy)]
struct Cells<'a>(&'a BenchRows);

impl<'a> Cells<'a> {
    fn bench(self) -> String {
        self.0.bench.clone()
    }

    fn run(self, scheme: Scheme, machine: Machine) -> Result<&'a SchemeRun, &'a BenchError> {
        self.0.get(paper_cell(scheme, machine))
    }

    /// IPC relative to no-mg on the baseline machine (read first, so a
    /// benchmark whose every cell failed reports cell 0).
    fn rel(self, scheme: Scheme, machine: Machine) -> Result<f64, &'a BenchError> {
        self.rel_of(self.run(scheme, machine))
    }

    /// [`Cells::rel`] of a run from any sweep, e.g. the only cell of a
    /// cross-training sweep's row.
    fn rel_of(self, run: Result<&SchemeRun, &'a BenchError>) -> Result<f64, &'a BenchError> {
        let base = self.run(NoMg, Base)?.ipc;
        Ok(run?.ipc / base)
    }
}

/// `values` as one ascending S-curve.
fn curve(values: impl Iterator<Item = f64>) -> Vec<f64> {
    s_curve(values.map(|v| (String::new(), v)).collect())
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

/// Appends an S-curve table: a header naming each column, then one line
/// per rank with column `j` right-aligned to `widths[j]`.
fn curve_table(t: &mut String, names: &[&str], widths: &[usize], curves: &[Vec<f64>]) {
    let header: String = names
        .iter()
        .zip(widths)
        .map(|(name, &w)| format!(" {name:>w$}"))
        .collect();
    out!(t, "{:>4}{header}", "idx");
    for i in 0..curves[0].len() {
        let line: String = curves
            .iter()
            .zip(widths)
            .map(|(c, &w)| format!(" {:>w$.3}", c[i]))
            .collect();
        out!(t, "{i:>4}{line}");
    }
}

/// Appends a `mean` line aligned with a [`curve_table`]'s columns.
fn mean_line(t: &mut String, means: &[f64], widths: &[usize]) {
    let line: String = means
        .iter()
        .zip(widths)
        .map(|(m, &w)| format!(" {m:>w$.3}"))
        .collect();
    out!(t, "mean{line}");
}

/// The mean of `f` over `rows`.
fn mean_of<T>(rows: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&rows.iter().map(f).collect::<Vec<_>>())
}

/// Table 1: the simulated machine configurations and the mini-graph
/// support parameters, as configured in `mg_sim::config`. Needs no sweep.
pub fn table1() -> String {
    let (base, red) = (MachineConfig::baseline(), MachineConfig::reduced());
    let mut t = String::from("TABLE 1: simulated processors\n\n");
    let header = |t: &mut String, label: &str, b: &str, r: &str| {
        out!(t, "{label:<28} {b:>18} {r:>18}");
    };
    header(&mut t, "parameter", "baseline", "reduced");
    header(&mut t, "----", "----", "----");
    let mut row = |label: &str, f: &dyn Fn(&MachineConfig) -> String| {
        header(&mut t, label, &f(&base), &f(&red));
    };
    row("fetch/issue/commit width", &|m| m.fetch_width.to_string());
    row("issue queue entries", &|m| m.iq_entries.to_string());
    row("physical registers", &|m| m.phys_regs.to_string());
    row("  (rename registers)", &|m| rename_regs(m).to_string());
    row("ROB entries", &|m| m.rob_entries.to_string());
    row("load/store queue", &|m| {
        format!("{}/{}", m.lq_entries, m.sq_entries)
    });
    row("simple-int issue/cycle", &|m| m.issue_simple.to_string());
    row("complex-int issue/cycle", &|m| m.issue_complex.to_string());
    row("load issue/cycle", &|m| m.issue_load.to_string());
    row("store issue/cycle", &|m| m.issue_store.to_string());
    row("pipeline depth (front+back)", &|m| {
        format!("{}+{}", m.front_depth, m.sched_to_exec)
    });
    row("I$ / D$", &|m| {
        format!(
            "{}KB/{}KB",
            m.il1.size_bytes / 1024,
            m.dl1.size_bytes / 1024
        )
    });
    row("L2 / mem latency", &|m| {
        format!("{}KB/{}cyc", m.l2.size_bytes / 1024, m.mem_lat)
    });
    row("bpred (bim/gsh/meta bits)", &|m| {
        let b = &m.bpred;
        format!("{}/{}/{}", b.bimodal_bits, b.gshare_bits, b.meta_bits)
    });
    row("BTB sets x assoc / RAS", &|m| {
        let b = &m.bpred;
        format!("{}x{}/{}", b.btb_sets, b.btb_assoc, b.ras_entries)
    });
    row("StoreSets SSIT entries", &|m| {
        m.storesets.ssit_entries.to_string()
    });

    let mg = MgConfig::paper();
    out!(t, "\nmini-graph support (when enabled):");
    out!(t, "  max constituents            {}", mg.alu_pipeline_depth);
    out!(
        t,
        "  handles issued per cycle    {} (<= {} with memory)",
        mg.max_mg_issue,
        mg.max_mem_mg_issue
    );
    out!(t, "  MGT entries                 {}", mg.mgt_entries);
    out!(
        t,
        "  ALU pipelines x depth       {} x {}",
        mg.alu_pipelines,
        mg.alu_pipeline_depth
    );
    out!(
        t,
        "  internal serialization      {}",
        mg.internal_serialization
    );
    t
}

/// One benchmark row of Figure 1: IPC relative to no-mg on the baseline
/// machine.
#[derive(Clone, Debug, Serialize)]
pub struct Fig1Row {
    /// Benchmark name.
    pub bench: String,
    /// Reduced machine without mini-graphs.
    pub nomg: f64,
    /// Reduced machine with `Struct-All`.
    pub struct_all: f64,
    /// Reduced machine with `Struct-None`.
    pub struct_none: f64,
    /// Reduced machine with `Slack-Profile`.
    pub slack_profile: f64,
}

/// Figure 1: performance of the reduced processor relative to the
/// fully-provisioned one, as independent S-curves: `Slack-Profile`
/// against the two naive selectors and the no-mini-graph line.
pub fn fig1(result: &SweepResult) -> View<Vec<Fig1Row>> {
    let mut v = View::rows(result, &[], |c, _| {
        Ok(Fig1Row {
            bench: c.bench(),
            nomg: c.rel(NoMg, Reduced)?,
            struct_all: c.rel(StructAll, Reduced)?,
            struct_none: c.rel(StructNone, Reduced)?,
            slack_profile: c.rel(SlackProfile, Reduced)?,
        })
    });
    let (t, rows) = (&mut v.text, &v.rows);
    out!(
        t,
        "FIGURE 1: performance on the reduced processor relative to the full one"
    );
    let curves = [
        curve(rows.iter().map(|r| r.nomg)),
        curve(rows.iter().map(|r| r.struct_all)),
        curve(rows.iter().map(|r| r.struct_none)),
        curve(rows.iter().map(|r| r.slack_profile)),
    ];
    let widths = [10, 12, 12, 14];
    let names = ["no-mg", "Struct-All", "Struct-None", "Slack-Profile"];
    curve_table(t, &names, &widths, &curves);
    let means = curves.map(|c| mean(&c));
    mean_line(t, &means, &widths);
    out!(
        t,
        "\nSlack-Profile lets the reduced machine {} the full one on average \
         (paper: outperforms by 2%).",
        if means[3] >= 1.0 {
            "outperform"
        } else {
            "approach"
        }
    );
    v
}

/// One benchmark row of Figure 3: IPC relative to no-mg on the baseline
/// machine, plus coverage.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Row {
    /// Benchmark name.
    pub bench: String,
    /// Reduced machine without mini-graphs.
    pub nomg_red: f64,
    /// Reduced machine with `Struct-All`.
    pub sa_red: f64,
    /// Reduced machine with `Struct-None`.
    pub sn_red: f64,
    /// Baseline machine with `Struct-All`.
    pub sa_full: f64,
    /// Baseline machine with `Struct-None`.
    pub sn_full: f64,
    /// `Struct-All` coverage on the reduced machine.
    pub sa_cov: f64,
    /// `Struct-None` coverage on the reduced machine.
    pub sn_cov: f64,
}

/// Figure 3: the naive structural selectors. Top: `Struct-All` and
/// `Struct-None` on the reduced processor. Bottom: the same mini-graphs
/// on the fully-provisioned processor, where serialization penalties are
/// exposed. Also reports the pathology counts the paper calls out.
pub fn fig3(result: &SweepResult) -> View<Vec<Fig3Row>> {
    let mut v = View::rows(result, &[], |c, _| {
        Ok(Fig3Row {
            bench: c.bench(),
            nomg_red: c.rel(NoMg, Reduced)?,
            sa_red: c.rel(StructAll, Reduced)?,
            sn_red: c.rel(StructNone, Reduced)?,
            sa_full: c.rel(StructAll, Base)?,
            sn_full: c.rel(StructNone, Base)?,
            sa_cov: c.run(StructAll, Reduced)?.coverage,
            sn_cov: c.run(StructNone, Reduced)?.coverage,
        })
    });
    let (t, rows) = (&mut v.text, &v.rows);
    out!(t, "FIGURE 3 TOP: performance on the reduced processor");
    let names = ["no-mg", "Struct-All", "Struct-None"];
    let tops = [
        curve(rows.iter().map(|r| r.nomg_red)),
        curve(rows.iter().map(|r| r.sa_red)),
        curve(rows.iter().map(|r| r.sn_red)),
    ];
    curve_table(t, &names, &[10, 12, 12], &tops);
    for (name, c) in names.iter().zip(&tops) {
        out!(t, "mean {name:<14} {:.3}", mean(c));
    }
    out!(
        t,
        "\nFIGURE 3 BOTTOM: performance on the fully-provisioned processor"
    );
    let bottoms = [
        curve(rows.iter().map(|r| r.sa_full)),
        curve(rows.iter().map(|r| r.sn_full)),
    ];
    curve_table(t, &names[1..], &[12, 12], &bottoms);

    // The paper's analysis points.
    let count = |f: fn(&Fig3Row) -> bool| rows.iter().filter(|r| f(r)).count();
    out!(t, "\nANALYSIS (paper in parentheses)");
    let sa_cov = 100.0 * mean_of(rows, |r| r.sa_cov);
    let sn_cov = 100.0 * mean_of(rows, |r| r.sn_cov);
    out!(
        t,
        "  Struct-All coverage:  {sa_cov:.0}%  (38%, range 18-60%)"
    );
    out!(
        t,
        "  Struct-None coverage: {sn_cov:.0}%  (20%, range 6-38%)"
    );
    let n = count(|r| r.sa_red < r.nomg_red);
    out!(t, "  SA below no-mg on reduced:   {n} programs (7)");
    let n = count(|r| r.sa_full < 0.995);
    out!(t, "  SA degrading on full:        {n} programs (29)");
    let n = count(|r| r.sn_red < r.nomg_red);
    out!(t, "  SN below no-mg on reduced:   {n} programs (0)");
    let n = count(|r| r.sa_red > r.sn_red);
    let all = rows.len();
    out!(
        t,
        "  SA beats SN on reduced for:  {n} of {all} programs (about half)"
    );
    v
}

/// The five selectors Figure 6 compares.
const FIG6_SCHEMES: [Scheme; 5] = [
    StructAll,
    StructNone,
    StructBounded,
    SlackProfile,
    SlackDynamic,
];

/// The paper's reduced-machine relative performance and coverage for
/// each of [`FIG6_SCHEMES`].
const FIG6_PAPER: [(f64, f64); 5] = [
    (0.90, 0.38),
    (0.95, 0.20),
    (0.98, 0.30),
    (1.02, 0.34),
    (0.94, 0.30),
];

/// One benchmark row of Figure 6.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Row {
    /// Benchmark name.
    pub bench: String,
    /// Reduced-machine IPC without mini-graphs, relative to baseline.
    pub nomg_red: f64,
    /// Per-scheme relative performance and coverage.
    pub per_scheme: Vec<Fig6PerScheme>,
}

/// One scheme's numbers within a [`Fig6Row`].
#[derive(Clone, Debug, Serialize)]
pub struct Fig6PerScheme {
    /// Paper-style scheme name.
    pub scheme: &'static str,
    /// Reduced-machine IPC relative to the no-mg baseline machine.
    pub rel_red: f64,
    /// Baseline-machine IPC relative to the no-mg baseline machine.
    pub rel_full: f64,
    /// Measured dynamic coverage on the reduced machine.
    pub coverage: f64,
}

/// One number of a [`Fig6PerScheme`].
type Fig6Field = fn(&Fig6PerScheme) -> f64;

/// Figure 6 and the headline numbers: all five selectors across the
/// suite. Top: performance on the reduced processor, relative to the
/// fully-provisioned baseline. Middle: performance on the
/// fully-provisioned processor. Bottom: dynamic coverage.
pub fn fig6(result: &SweepResult) -> View<Vec<Fig6Row>> {
    let mut v = View::rows(result, &[], |c, _| {
        Ok(Fig6Row {
            bench: c.bench(),
            nomg_red: c.rel(NoMg, Reduced)?,
            per_scheme: FIG6_SCHEMES
                .iter()
                .map(|&s| {
                    Ok(Fig6PerScheme {
                        scheme: s.name(),
                        rel_red: c.rel(s, Reduced)?,
                        rel_full: c.rel(s, Base)?,
                        coverage: c.run(s, Reduced)?.coverage,
                    })
                })
                .collect::<Result<_, _>>()?,
        })
    });
    let (t, rows) = (&mut v.text, &v.rows);
    let nomg_curve = curve(rows.iter().map(|r| r.nomg_red));
    let panels: [(&str, Fig6Field, bool); 3] = [
        (
            "TOP: relative performance on the REDUCED processor",
            |p| p.rel_red,
            false,
        ),
        (
            "MIDDLE: relative performance on the FULL processor",
            |p| p.rel_full,
            false,
        ),
        // The no-mg column is meaningless for coverage.
        ("BOTTOM: dynamic coverage", |p| p.coverage, true),
    ];
    let names: Vec<&str> = std::iter::once("no-mg")
        .chain(FIG6_SCHEMES.iter().map(|s| s.name()))
        .collect();
    let widths = [9, 15, 15, 15, 15, 15];
    for (title, get, coverage) in panels {
        out!(t, "\nFIGURE 6 {title}");
        let (nomg, nomg_mean) = if coverage {
            (vec![f64::NAN; rows.len()], f64::NAN)
        } else {
            (nomg_curve.clone(), mean(&nomg_curve))
        };
        // Independent S-curves per scheme, as in the paper.
        let curves: Vec<Vec<f64>> = std::iter::once(nomg)
            .chain(
                (0..FIG6_SCHEMES.len())
                    .map(|si| curve(rows.iter().map(|r| get(&r.per_scheme[si])))),
            )
            .collect();
        curve_table(t, &names, &widths, &curves);
        let means: Vec<f64> = std::iter::once(nomg_mean)
            .chain(curves[1..].iter().map(|c| mean(c)))
            .collect();
        mean_line(t, &means, &widths);
    }

    // Headline numbers.
    out!(t, "\nHEADLINES (paper in parentheses)");
    let nomg = 100.0 * (mean_of(rows, |r| r.nomg_red) - 1.0);
    out!(t, "  reduced, no mini-graphs:      {nomg:+.1}%  (-18%)");
    for (si, (s, (paper_rel, paper_cov))) in FIG6_SCHEMES.iter().zip(FIG6_PAPER).enumerate() {
        let rel = 100.0 * (mean_of(rows, |r| r.per_scheme[si].rel_red) - 1.0);
        let cov = 100.0 * mean_of(rows, |r| r.per_scheme[si].coverage);
        let (paper_rel, paper_cov) = (100.0 * (paper_rel - 1.0), 100.0 * paper_cov);
        out!(
            t,
            "  reduced + {:<20} {rel:+.1}%, cov {cov:.0}%  ({paper_rel:+.0}%, cov {paper_cov:.0}%)",
            s.name()
        );
    }
    v
}

/// Figure 7 top: the Slack-Profile model's components against the two
/// naive selectors.
const FIG7_TOP: [Scheme; 5] = [
    SlackProfile,
    SlackProfileDelay,
    SlackProfileSial,
    StructAll,
    StructNone,
];

/// Figure 7 bottom: the Slack-Dynamic model's components against
/// Struct-All.
const FIG7_BOTTOM: [Scheme; 5] = [
    SlackDynamic,
    IdealSlackDynamic,
    IdealSlackDynamicDelay,
    IdealSlackDynamicSial,
    StructAll,
];

/// One benchmark row of Figure 7: reduced-machine IPC relative to no-mg
/// on the baseline machine, per scheme in panel order.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Row {
    /// Benchmark name.
    pub bench: String,
    /// The Slack-Profile panel.
    pub top: Vec<f64>,
    /// The Slack-Dynamic panel.
    pub bottom: Vec<f64>,
}

/// Figure 7: isolating the components of the models, all on the reduced
/// processor. Top: Slack-Profile, full (rules #1-4) vs `-Delay` (no
/// consumer-slack rule) vs `-SIAL` (operand-arrival heuristic). Bottom:
/// Slack-Dynamic, realistic vs `Ideal` (no outlining penalty) vs
/// `Ideal-Delay` (no consumer condition) vs `Ideal-SIAL`.
pub fn fig7(result: &SweepResult) -> View<Vec<Fig7Row>> {
    let mut v = View::rows(result, &[], |c, _| {
        let panel = |schemes: &[Scheme]| {
            schemes
                .iter()
                .map(|&s| c.rel(s, Reduced))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(Fig7Row {
            bench: c.bench(),
            top: panel(&FIG7_TOP)?,
            bottom: panel(&FIG7_BOTTOM)?,
        })
    });
    let (t, rows) = (&mut v.text, &v.rows);
    let column =
        |top: bool, si: usize| move |r: &Fig7Row| if top { r.top[si] } else { r.bottom[si] };
    for (title, schemes, top) in [
        ("TOP: Slack-Profile components", &FIG7_TOP, true),
        ("BOTTOM: Slack-Dynamic components", &FIG7_BOTTOM, false),
    ] {
        out!(
            t,
            "\nFIGURE 7 {title} (reduced processor, relative performance)"
        );
        let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
        let curves: Vec<Vec<f64>> = (0..schemes.len())
            .map(|si| curve(rows.iter().map(column(top, si))))
            .collect();
        curve_table(t, &names, &[20; 5], &curves);
        let means: Vec<f64> = curves.iter().map(|c| mean(c)).collect();
        mean_line(t, &means, &[20; 5]);
    }

    // The paper's component contributions: the difference, in percentage
    // points, between the means of two panel columns.
    out!(t, "\nCOMPONENT CONTRIBUTIONS (paper in parentheses)");
    let m = |top, si| mean_of(rows, column(top, si));
    for (label, a, b, paper) in [
        (
            "consumer-slack rule (SP - SP-Delay):      ",
            m(true, 0),
            m(true, 1),
            "+1pp",
        ),
        (
            "delay vs arrival heuristic (Delay - SIAL): ",
            m(true, 1),
            m(true, 2),
            "+4pp",
        ),
        (
            "outlining penalty (Ideal-SD - SD):         ",
            m(false, 1),
            m(false, 0),
            "+3pp",
        ),
        (
            "consumer condition, ideal (ISD - ISD-Delay): ",
            m(false, 1),
            m(false, 2),
            "<1pp",
        ),
        (
            "delay vs SIAL, ideal (ISD-Delay - ISD-SIAL): ",
            m(false, 2),
            m(false, 3),
            ">0pp",
        ),
    ] {
        out!(t, "  {label}{:+.1}pp  ({paper})", 100.0 * (a - b));
    }
    v
}

/// One benchmark row of the miss-aware extension: IPC relative to no-mg
/// on the baseline machine, plus the D-L1 miss rate.
#[derive(Clone, Debug, Serialize)]
pub struct ExtMemawareRow {
    /// Benchmark name.
    pub bench: String,
    /// D-L1 miss rate of the no-mg run on the reduced machine: the cache
    /// the selectors contend with.
    pub dl1_miss_rate: f64,
    /// Reduced machine with `Slack-Profile`.
    pub sp_red: f64,
    /// Reduced machine with `Slack-Profile-Mem`.
    pub sp_mem_red: f64,
    /// Baseline machine with `Slack-Profile`.
    pub sp_full: f64,
    /// Baseline machine with `Slack-Profile-Mem`.
    pub sp_mem_full: f64,
}

/// Extension experiment: the miss-aware Slack-Profile.
///
/// The paper notes one exception to Slack-Profile's dominance: *mcf* on
/// the fully-provisioned machine, because "Slack-Profile uses optimistic
/// execution latencies that do not account for cache misses, which
/// plague mcf. Remedying this is left for future work." The remedy,
/// `Slack-Profile-Mem`, chains rule-#2 constituents by *observed*
/// per-static latencies from the profile; this view compares it with the
/// stock model and reports the memory-bound benchmarks separately.
pub fn ext_memaware(result: &SweepResult) -> View<Vec<ExtMemawareRow>> {
    let mut v = View::rows(result, &[], |c, _| {
        // `sp_red` first: its `rel` reads the baseline cell before any other.
        Ok(ExtMemawareRow {
            bench: c.bench(),
            sp_red: c.rel(SlackProfile, Reduced)?,
            dl1_miss_rate: c.run(NoMg, Reduced)?.dl1_miss_rate,
            sp_mem_red: c.rel(SlackProfileMem, Reduced)?,
            sp_full: c.rel(SlackProfile, Base)?,
            sp_mem_full: c.rel(SlackProfileMem, Base)?,
        })
    });
    let (t, rows) = (&mut v.text, &v.rows);
    let (hot, cold): (Vec<&ExtMemawareRow>, Vec<&ExtMemawareRow>) =
        rows.iter().partition(|r| r.dl1_miss_rate > 0.10);
    out!(
        t,
        "EXTENSION: miss-aware Slack-Profile (observed rule-#2 latencies)"
    );
    out!(
        t,
        "\nmemory-bound benchmarks (D-L1 miss rate > 10%): {}",
        hot.len()
    );
    out!(
        t,
        "bench                dl1m%   SP(red)  Mem(red)  SP(full) Mem(full)"
    );
    for r in &hot {
        let miss = 100.0 * r.dl1_miss_rate;
        out!(
            t,
            "{:<18} {miss:>7.1} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            r.bench,
            r.sp_red,
            r.sp_mem_red,
            r.sp_full,
            r.sp_mem_full
        );
    }
    for (label, set) in [
        ("\nmeans (memory-bound):  ", &hot),
        ("means (everything else):", &cold),
    ] {
        out!(
            t,
            "{label} SP(red) {:.3}  Mem(red) {:.3}  SP(full) {:.3}  Mem(full) {:.3}",
            mean_of(set, |r| r.sp_red),
            mean_of(set, |r| r.sp_mem_red),
            mean_of(set, |r| r.sp_full),
            mean_of(set, |r| r.sp_mem_full)
        );
    }
    out!(
        t,
        "\nThe extension should help (or at least not hurt) the memory-bound set"
    );
    out!(t, "while leaving the rest unchanged.");
    v
}

/// Calibration summary: suite-wide Figure 6 statistics against the
/// paper's targets. It reads the [`fig6`] rows and writes no rows of its
/// own.
pub fn calib(result: &SweepResult) -> View<()> {
    let View { rows, skipped, .. } = fig6(result);
    let mut t = format!("n={}\n", rows.len());
    let nomg = mean_of(&rows, |r| r.nomg_red);
    out!(t, "no-mg reduced: mean rel {nomg:.3}   (paper 0.82)");
    out!(
        t,
        "scheme            red-rel full-rel      cov <nomg(red) slow(full)"
    );
    for (si, (s, (paper_rel, paper_cov))) in FIG6_SCHEMES.iter().zip(FIG6_PAPER).enumerate() {
        let column = |f: Fig6Field| mean_of(&rows, |r| f(&r.per_scheme[si]));
        let count = |f: &dyn Fn(&Fig6Row) -> bool| rows.iter().filter(|r| f(r)).count();
        out!(
            t,
            "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>10} {:>10}   paper: rel {paper_rel:.2} cov {paper_cov:.2}",
            s.name(),
            column(|p| p.rel_red),
            column(|p| p.rel_full),
            column(|p| p.coverage),
            count(&|r| r.per_scheme[si].rel_red < r.nomg_red),
            count(&|r| r.per_scheme[si].rel_full < 0.995)
        );
    }
    View {
        text: t,
        rows: (),
        skipped,
    }
}

/// One subset of the limit study's candidates and where it lands.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Point {
    /// Bit `i` set when candidate `i` is in the subset.
    pub mask: u16,
    /// Dynamic coverage on the reduced machine.
    pub coverage: f64,
    /// Reduced-machine IPC relative to no-mg on the baseline machine.
    pub rel_perf: f64,
}

/// Figure 8: the limit study, on `jobs` workers. All 1024 subsets of the
/// 10 most frequent non-overlapping mini-graph candidates of the
/// short-running `adpcm.c` analogue run on the reduced processor. The
/// text gives the selectors' per-candidate verdicts (the paper's bottom
/// table), where each static selector's set and the exhaustive best
/// land, and Slack-Dynamic's own run over all 10 candidates with how
/// many templates its controller disabled.
pub fn fig8(jobs: usize) -> View<Vec<Fig8Point>> {
    let spec = limit_study_benchmark();
    let (w, red) = (spec.generate(), Reduced.config());
    let red_mg = red.clone().with_mg(MgConfig::paper());
    let (trace, freqs, slack) = profile_workload(&w, &red);
    let base = simulate(&w.program, &trace, &Base.config(), SimOptions::default()).ipc();
    let id = |c: &Candidate, p: usize| w.program.id_of(c.block, p).index();
    let freq = |c: &Candidate| freqs[id(c, c.positions[0])];

    // The 10 most frequent non-overlapping (and jointly schedulable)
    // candidates.
    let mut pool = enumerate(&w.program, &Default::default());
    pool.sort_by_key(|c| std::cmp::Reverse((c.len() as u64 - 1) * freq(c)));
    let mut chosen: Vec<Candidate> = Vec::new();
    let mut used = vec![false; w.program.static_count()];
    let mut deps: HashMap<u32, BlockDeps> = HashMap::new();
    for c in pool {
        if chosen.len() == 10 {
            break;
        }
        let d = deps
            .entry(c.block.0)
            .or_insert_with(|| BlockDeps::build(w.program.block(c.block)));
        let mut groups: Vec<&[usize]> = (chosen.iter())
            .filter(|x| x.block == c.block)
            .map(|x| x.positions.as_slice())
            .collect();
        groups.push(&c.positions);
        if c.positions.iter().any(|&p| used[id(&c, p)])
            || schedule_with_groups(d, &groups).is_none()
        {
            continue;
        }
        c.positions.iter().for_each(|&p| used[id(&c, p)] = true);
        chosen.push(c);
    }
    assert_eq!(chosen.len(), 10, "benchmark must yield 10 candidates");
    // Struct-None's, Struct-Bounded's and Slack-Profile's verdicts.
    let model = SlackProfileModel::default();
    let verdicts: Vec<[bool; 3]> = (chosen.iter())
        .map(|c| {
            [
                !c.shape.potentially_serializing(),
                classify(&c.shape) != Serialization::Unbounded,
                slack_profile_admits(&w.program, c, &slack, &model),
            ]
        })
        .collect();

    // Every subset is an independent rewrite + functional run +
    // simulation.
    let run_subset = |mask: u16, dyn_mg: Option<DynMgConfig>| {
        let instances: Vec<ChosenInstance> = (0..10)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| ChosenInstance {
                candidate: chosen[i].clone(),
                template: i as u16,
            })
            .collect();
        let prog = rewrite(&w.program, &instances);
        let (t, _) = (Executor::new(&prog).run_with_mem(&w.init_mem))
            .expect("a rewritten limit-study program runs to completion");
        let opts = SimOptions {
            dyn_mg,
            ..SimOptions::default()
        };
        simulate(&prog, &t, &red_mg, opts)
    };
    let masks: Vec<u16> = (0..1024).collect();
    let points = par_map(&masks, jobs, |_, &mask| {
        let r = run_subset(mask, None);
        let (coverage, rel_perf) = (r.stats.coverage(), r.ipc() / base);
        Fig8Point {
            mask,
            coverage,
            rel_perf,
        }
    });
    // The first subset with the best performance.
    let by_perf = |a: &&Fig8Point, b: &&Fig8Point| a.rel_perf.total_cmp(&b.rel_perf);
    let best = points.iter().rev().max_by(by_perf).expect("1024 points");
    // Slack-Dynamic starts from every candidate and lets its controller
    // disable templates at run time.
    let sd = run_subset(0x3ff, Some(DynMgConfig::slack_dynamic()));

    let yes_no = |b, yes, no| if b { yes } else { no };
    let (name, n) = (&spec.name, trace.len());
    let mut t = format!("FIGURE 8: limit study on {name} ({n} dynamic instructions)\n");
    t += "\ncandidate table (0-9, by descending score):\n";
    t += " id  size   freq    serial?        class |  SN  SB  SP\n";
    for (i, (c, v)) in chosen.iter().zip(&verdicts).enumerate() {
        let class = match classify(&c.shape) {
            Serialization::None => "none",
            Serialization::Bounded(_) => "bounded",
            Serialization::Unbounded => "unbounded",
        };
        let serial = yes_no(c.shape.potentially_serializing(), "yes", "no");
        let [sn, sb, sp] = v.map(|ok| yes_no(ok, "y", "-"));
        let (size, f) = (c.len(), freq(c));
        out!(
            t,
            "{i:>3} {size:>5} {f:>6} {serial:>10} {class:>12} | {sn:>3} {sb:>3} {sp:>3}"
        );
    }
    t += "\nselector positions (coverage, relative performance):\n";
    let position = |t: &mut String, name: &str, mask: u16| {
        let p = &points[mask as usize];
        let ids: Vec<usize> = (0..10).filter(|&i| mask & (1 << i) != 0).collect();
        let (cov, perf) = (p.coverage, p.rel_perf);
        out!(t, "  {name:<16} cov {cov:.3}  perf {perf:.3}  set {ids:?}");
    };
    position(&mut t, "Struct-All", 0x3ff);
    let names = ["Struct-None", "Struct-Bounded", "Slack-Profile"];
    for (k, name) in names.into_iter().enumerate() {
        let mask = (0..10)
            .filter(|&i| verdicts[i][k])
            .fold(0, |m, i| m | (1 << i));
        position(&mut t, name, mask);
    }
    let (cov, perf) = (sd.stats.coverage(), sd.ipc() / base);
    let off = sd.stats.disabled_templates;
    out!(
        t,
        "  Slack-Dynamic    cov {cov:.3}  perf {perf:.3}  {off} of 10 disabled"
    );
    position(&mut t, "Exhaustive-best", best.mask);
    let perfs = || points.iter().map(|p| p.rel_perf);
    let lo = perfs().fold(f64::MAX, f64::min);
    let hi = perfs().fold(f64::MIN, f64::max);
    out!(t, "\nscatter: 1024 subsets, perf range [{lo:.3}, {hi:.3}]");
    View {
        text: t,
        rows: points,
        skipped: Vec::new(),
    }
}

/// One Media/Comm benchmark row of Figure 9 top: reduced-machine
/// Slack-Profile IPC relative to no-mg on the baseline machine, by the
/// machine its slack profile was trained on.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9TopRow {
    /// Benchmark name.
    pub bench: String,
    /// Trained on the reduced machine itself.
    pub self_trained: f64,
    /// Trained on a 2-way machine.
    pub cross_2way: f64,
    /// Trained on an 8-way machine.
    pub cross_8way: f64,
    /// Trained on the reduced machine with a quartered data memory
    /// hierarchy.
    pub cross_dmem4: f64,
}

/// One SPEC/MiBench benchmark row of Figure 9 bottom: reduced-machine
/// Slack-Profile IPC relative to no-mg on the baseline machine, by the
/// input its slack profile was trained on.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9BottomRow {
    /// Benchmark name.
    pub bench: String,
    /// Trained on the evaluation input.
    pub self_input: f64,
    /// Trained on the alternate input.
    pub cross_input: f64,
}

/// Figure 9's two panels, written to `fig9_top.json` and
/// `fig9_bottom.json`.
#[derive(Clone, Debug, Default)]
pub struct Fig9Rows {
    /// Microarchitecture sensitivity.
    pub top: Vec<Fig9TopRow>,
    /// Input sensitivity.
    pub bottom: Vec<Fig9BottomRow>,
}

/// Figure 9: robustness of slack profiles, all evaluated with
/// Slack-Profile on the reduced machine. Top: microarchitecture
/// sensitivity of the MediaBench/CommBench programs, trained on the
/// reduced machine itself (the paper sweep's cell) vs on a 2-way
/// machine, an 8-way machine, and a machine with a quartered data memory
/// hierarchy. Bottom: input sensitivity of the SPECint/MiBench
/// programs, trained on the evaluation input vs the alternate input.
///
/// # Panics
///
/// If `cross` does not hold the four cross-training results of
/// [`sweeps`], in its order.
pub fn fig9(paper: &SweepResult, cross: &[SweepResult]) -> View<Fig9Rows> {
    let [c2, c8, cd, ci] = cross else {
        panic!("fig9 reads 4 cross-training sweeps, got {}", cross.len());
    };
    let top = View::rows(paper, &[c2, c8, cd], |c, rows| {
        Ok(Fig9TopRow {
            bench: c.bench(),
            self_trained: c.rel(SlackProfile, Reduced)?,
            cross_2way: c.rel_of(rows[0].get(0))?,
            cross_8way: c.rel_of(rows[1].get(0))?,
            cross_dmem4: c.rel_of(rows[2].get(0))?,
        })
    });
    let bottom = View::rows(paper, &[ci], |c, rows| {
        Ok(Fig9BottomRow {
            bench: c.bench(),
            self_input: c.rel(SlackProfile, Reduced)?,
            cross_input: c.rel_of(rows[0].get(0))?,
        })
    });

    let mut t = String::from(
        "FIGURE 9 TOP: microarchitecture sensitivity (Media+Comm, Slack-Profile on reduced)\n",
    );
    let points = |r: &Fig9TopRow| [r.self_trained, r.cross_2way, r.cross_8way, r.cross_dmem4];
    for r in &top.rows {
        let [s, c2, c8, cd] = points(r);
        let b = &r.bench;
        out!(
            t,
            "  {b:<20} self {s:.3}  2way {c2:.3}  8way {c8:.3}  dmem/4 {cd:.3}"
        );
    }
    let [s, c2, c8, cd] = [0, 1, 2, 3].map(|k| mean_of(&top.rows, |r| points(r)[k]));
    out!(
        t,
        "  means: self {s:.3}  2way {c2:.3}  8way {c8:.3}  dmem/4 {cd:.3}  (paper: points lie on the self curve)"
    );
    let deviations = |r: &Fig9TopRow| {
        let [s, cross @ ..] = points(r);
        cross.map(|v| (v - s).abs())
    };
    let max_dev = top.rows.iter().flat_map(deviations).fold(0.0, f64::max);
    out!(t, "  max |cross - self| deviation: {max_dev:.3}");

    t += "\nFIGURE 9 BOTTOM: input sensitivity (SPEC+MiBench, Slack-Profile on reduced)\n";
    for r in &bottom.rows {
        let (b, s, x) = (&r.bench, r.self_input, r.cross_input);
        out!(t, "  {b:<20} self {s:.3}  cross-input {x:.3}");
    }
    let s = mean_of(&bottom.rows, |r| r.self_input);
    let x = mean_of(&bottom.rows, |r| r.cross_input);
    let d = (s - x).abs();
    out!(
        t,
        "  means: self {s:.3}  cross {x:.3}  |delta| {d:.3}  (paper: <2% absolute)"
    );
    View {
        text: t,
        rows: Fig9Rows {
            top: top.rows,
            bottom: bottom.rows,
        },
        skipped: top.skipped.into_iter().chain(bottom.skipped).collect(),
    }
}

/// One ablation variant's means over the ablated benchmarks.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Variant label, e.g. `mgt-budget-32`.
    pub name: String,
    /// Mean reduced-machine IPC relative to no-mg on the baseline
    /// machine.
    pub rel_perf: f64,
    /// Mean dynamic coverage.
    pub coverage: f64,
}

/// The ablations (beyond the paper's figures): Slack-Profile on the
/// reduced machine with one design choice changed per row, averaged
/// over the ablation sweep's benchmarks. A benchmark is dropped from
/// every row if any cell the rows read for it failed.
pub fn ablation(paper: &SweepResult, ablation: &SweepResult) -> View<Vec<AblationRow>> {
    // Per benchmark, (relative performance, coverage) per ablation.
    let per_bench = View::rows(paper, &[ablation], |c, rows| {
        let base = c.run(NoMg, Base)?.ipc;
        let mut cells = rows[0].runs.iter();
        let mut run = |ablation| match ablation_cell(ablation).1 {
            true => c.run(SlackProfile, Reduced),
            false => cells.next().expect("a cell per ablation").as_ref(),
        };
        (ABLATIONS.iter())
            .map(|a| run(a).map(|r| (r.ipc / base, r.coverage)))
            .collect::<Result<Vec<_>, _>>()
    });
    let benches = &per_bench.rows;
    let n = ablation.rows.len();
    let mut t = format!("ABLATIONS (Slack-Profile on the reduced machine, {n} benchmarks)\n");
    out!(t, "{:<28} {:>10} {:>10}", "variant", "rel-perf", "coverage");
    let rows = (ABLATIONS.iter().enumerate())
        .map(|(i, &(name, ..))| {
            let rel_perf = mean_of(benches, |b| b[i].0);
            let coverage = mean_of(benches, |b| b[i].1);
            out!(t, "{name:<28} {rel_perf:>10.3} {coverage:>10.3}");
            AblationRow {
                name: name.to_string(),
                rel_perf,
                coverage,
            }
        })
        .collect();
    View {
        text: t,
        rows,
        skipped: per_bench.skipped,
    }
}
