//! The sweeps `reproduce` runs and the views drawn from them, on real
//! sweeps over two benchmarks: the paper grid has no duplicate cells and
//! keeps the baseline first, the Figure 9 and ablation views join their
//! rows to the paper sweep by benchmark, and a failed cell drops a
//! benchmark only from the views that read that cell.

use mg_bench::figures::{self, paper_cell, Machine, PAPER_CELLS};
use mg_bench::{BenchError, Scheme, SweepResult, SweepSpec};
use mg_workloads::{suite, Suite};
use std::sync::OnceLock;

/// Every sweep of `reproduce` over the first SPECint and the first
/// MediaBench program (one benchmark per Figure 9 panel), run once for
/// all tests: the paper sweep, four cross-training sweeps, the ablation.
fn two_panel_sweeps() -> &'static [SweepResult] {
    static SWEEPS: OnceLock<Vec<SweepResult>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        let first = |s: Suite| suite().into_iter().find(|b| b.suite == s).unwrap();
        let benches = [first(Suite::SpecInt), first(Suite::MediaBench)];
        let run = |s: SweepSpec| s.disk_cache(false).quiet(true).run();
        figures::sweeps(&benches).into_iter().map(run).collect()
    })
}

/// Replaces cell `cell` of row `row` with an injected failure.
fn fail(result: &mut SweepResult, row: usize, cell: usize) -> BenchError {
    let bench = &mut result.rows[row];
    let err = BenchError::Panicked {
        bench: bench.bench.clone(),
        cell,
        payload: "injected".into(),
    };
    bench.runs[cell] = Err(err.clone());
    err
}

/// The paper grid is distinct with the baseline first. Figure 9 reads
/// its self-trained points from the paper sweep and each cross-trained
/// point from its own one-cell sweep; the ablation's baseline and
/// default-valued rows read the paper sweep too.
#[test]
fn views_join_the_paper_grid_by_benchmark() {
    for (i, cell) in PAPER_CELLS.iter().enumerate() {
        assert!(!PAPER_CELLS[i + 1..].contains(cell), "duplicate {cell:?}");
    }
    assert_eq!(PAPER_CELLS[0], (Scheme::NoMg, Machine::Base));
    assert!(figures::table1().starts_with("TABLE 1"));
    let [paper, cross @ .., ablation] = two_panel_sweeps() else {
        unreachable!()
    };
    let shapes: Vec<_> = (two_panel_sweeps().iter())
        .map(|r| (r.summary.benches, r.summary.cells, r.summary.failures))
        .collect();
    assert_eq!((shapes[0], shapes[5]), ((2, 19, 0), (2, 8, 0)));
    assert_eq!(shapes[1..5], [(1, 1, 0); 4]);
    let [spec_int, media] = figures::fig1(paper).rows.try_into().unwrap();

    let fig9 = figures::fig9(paper, cross);
    assert!(fig9.skipped.is_empty() && fig9.text.starts_with("FIGURE 9 TOP"));
    let (top, bottom) = (&fig9.rows.top, &fig9.rows.bottom);
    assert_eq!(
        (&top[0].bench, top[0].self_trained),
        (&media.bench, media.slack_profile)
    );
    let self_input = (&bottom[0].bench, bottom[0].self_input);
    assert_eq!(self_input, (&spec_int.bench, spec_int.slack_profile));

    let ablation = figures::ablation(paper, ablation);
    assert!(ablation.skipped.is_empty() && ablation.text.contains(" 2 benchmarks"));
    assert_eq!(ablation.rows.len(), 11);
    let paper_mean = (spec_int.slack_profile + media.slack_profile) / 2.0;
    for name in ["mgt-budget-512", "max-size-4", "alu-pipelines-2"] {
        let row = ablation.rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(row.rel_perf, paper_mean, "{name}");
    }
}

/// A failed cell drops its benchmark only from the views that read it:
/// a cell only Figure 7 reads, a cross-training cell (Figure 9 alone),
/// and an ablation cell (the ablation alone, from every one of its
/// rows).
#[test]
fn a_failed_cell_drops_its_benchmark_only_from_the_views_that_read_it() {
    // Rows of the paper views and of Figure 9's panels, then the
    // ablation's skipped benchmarks; calib's text counts its rows.
    let rows = |s: &[SweepResult]| {
        let p = &s[0];
        let fig9 = figures::fig9(p, &s[1..5]);
        assert!(figures::calib(p).text.starts_with("n=2\n"));
        [
            figures::fig1(p).rows.len(),
            figures::fig3(p).rows.len(),
            figures::fig6(p).rows.len(),
            figures::fig7(p).rows.len(),
            figures::ext_memaware(p).rows.len(),
            fig9.rows.top.len(),
            fig9.rows.bottom.len(),
            figures::ablation(p, &s[5]).skipped.len(),
        ]
    };
    assert_eq!(rows(two_panel_sweeps()), [2, 2, 2, 2, 2, 1, 1, 0]);

    // A cell only Figure 7 reads.
    let mut s = two_panel_sweeps().to_vec();
    let idx = paper_cell(Scheme::IdealSlackDynamicSial, Machine::Reduced);
    let err = fail(&mut s[0], 0, idx);
    assert_eq!(figures::fig7(&s[0]).skipped, vec![err]);
    assert_eq!(rows(&s), [2, 2, 2, 1, 2, 1, 1, 0]);

    // The 8-way cross-training cell of the MediaBench program.
    let mut s = two_panel_sweeps().to_vec();
    let err = fail(&mut s[2], 0, 0);
    assert_eq!(figures::fig9(&s[0], &s[1..5]).skipped, vec![err]);
    assert_eq!(rows(&s), [2, 2, 2, 2, 2, 0, 1, 0]);

    // One ablation cell of the SPECint program: every ablation row drops
    // it, so the default-valued rows average the other program alone.
    let mut s = two_panel_sweeps().to_vec();
    let err = fail(&mut s[5], 0, 3);
    let ablation = figures::ablation(&s[0], &s[5]);
    assert_eq!(ablation.skipped, vec![err]);
    let media_sp = figures::fig1(&s[0]).rows[1].slack_profile;
    let default = ablation.rows.iter().find(|r| r.name == "max-size-4");
    assert_eq!(default.unwrap().rel_perf, media_sp);
    assert_eq!(rows(&s), [2, 2, 2, 2, 2, 1, 1, 1]);
}
