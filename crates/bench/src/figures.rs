//! The paper sweep and the figures drawn from it.
//!
//! Every published figure that trains on the reduced machine with
//! primary inputs reads cells of one grid. [`PAPER_CELLS`] lists its 19
//! distinct (scheme, machine) pairs, [`paper_spec`] sweeps them once, and
//! each view below ([`table1`], [`fig1`], [`fig3`], [`fig6`], [`fig7`],
//! [`ext_memaware`], [`calib`]) is a pure function of that sweep's
//! result: it returns the text the `reproduce` binary prints and writes
//! to `results/<name>.txt`, plus the rows it writes to
//! `results/<name>.json`. Views look cells up by (scheme, machine) and
//! skip a benchmark only when one of the cells *they* read failed.

use crate::harness::{BenchError, Scheme, SchemeRun};
use crate::runner::{BenchRows, SweepCell, SweepResult, SweepSpec};
use crate::stats::{mean, s_curve};
use mg_sim::config::rename_regs;
use mg_sim::{MachineConfig, MgConfig};
use mg_workloads::suite;
use serde::Serialize;
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

/// The paper sweep over the first `take` benchmarks of the suite: every
/// [`PAPER_CELLS`] cell, trained on the reduced machine with primary
/// inputs.
pub fn paper_spec(take: usize) -> SweepSpec {
    SweepSpec::new(&Reduced.config())
        .benches(suite().iter().take(take).cloned())
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
    /// One row per benchmark for which `row` succeeds, and no text yet.
    /// `row` fails, skipping the benchmark, as soon as it reads a failed
    /// cell, so a view skips only for the cells it actually reads.
    fn rows<'a>(
        result: &'a SweepResult,
        row: impl Fn(Cells<'a>) -> Result<R, &'a BenchError>,
    ) -> Self {
        let mut view = Self::default();
        for bench in &result.rows {
            match row(Cells(bench)) {
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
        let base = self.run(NoMg, Base)?.ipc;
        Ok(self.run(scheme, machine)?.ipc / base)
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
    let mut v = View::rows(result, |c| {
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
    let mut v = View::rows(result, |c| {
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
    let mut v = View::rows(result, |c| {
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
    let mut v = View::rows(result, |c| {
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
    let mut v = View::rows(result, |c| {
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
