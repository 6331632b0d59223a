//! The paper sweep's cell grid and the views drawn from it: the grid
//! has no duplicate cells and keeps the baseline first, every view runs
//! on a real sweep, and a failed cell drops a benchmark only from the
//! views that read that cell.

use mg_bench::figures::{self, paper_cell, paper_spec, Machine, PAPER_CELLS};
use mg_bench::{BenchError, Scheme};

#[test]
fn grid_is_distinct_and_every_view_runs_on_one_benchmark() {
    for (i, cell) in PAPER_CELLS.iter().enumerate() {
        assert!(!PAPER_CELLS[i + 1..].contains(cell), "duplicate {cell:?}");
    }
    assert_eq!(PAPER_CELLS[0], (Scheme::NoMg, Machine::Base));

    let result = paper_spec(1).disk_cache(false).quiet(true).run();
    assert_eq!(result.summary.cells, PAPER_CELLS.len());
    assert_eq!(result.summary.failures, 0);
    assert!(figures::table1().starts_with("TABLE 1"));
    assert_eq!(figures::fig1(&result).rows.len(), 1);
    assert_eq!(figures::fig3(&result).rows.len(), 1);
    assert_eq!(figures::fig6(&result).rows.len(), 1);
    assert_eq!(figures::fig7(&result).rows.len(), 1);
    assert_eq!(figures::ext_memaware(&result).rows.len(), 1);
    assert!(figures::calib(&result).text.starts_with("n=1\n"));
}

/// A cell that only Figure 7 reads fails on one benchmark: Figure 7
/// skips that benchmark, every other view keeps it.
#[test]
fn a_cell_only_fig7_reads_drops_its_benchmark_from_fig7_alone() {
    let mut result = paper_spec(2).disk_cache(false).quiet(true).run();
    assert_eq!(result.summary.failures, 0);
    assert_eq!(figures::fig7(&result).rows.len(), 2);

    let idx = paper_cell(Scheme::IdealSlackDynamicSial, Machine::Reduced);
    let row = &mut result.rows[0];
    let err = BenchError::Panicked {
        bench: row.bench.clone(),
        cell: idx,
        payload: "injected".into(),
    };
    row.runs[idx] = Err(err.clone());
    let kept = result.rows[1].bench.clone();

    let fig7 = figures::fig7(&result);
    assert_eq!(fig7.skipped, vec![err]);
    assert_eq!(fig7.rows.len(), 1);
    assert_eq!(fig7.rows[0].bench, kept);

    let fig1 = figures::fig1(&result);
    let fig3 = figures::fig3(&result);
    let fig6 = figures::fig6(&result);
    let ext = figures::ext_memaware(&result);
    let calib = figures::calib(&result);
    assert_eq!((fig1.rows.len(), fig1.skipped.len()), (2, 0));
    assert_eq!((fig3.rows.len(), fig3.skipped.len()), (2, 0));
    assert_eq!((fig6.rows.len(), fig6.skipped.len()), (2, 0));
    assert_eq!((ext.rows.len(), ext.skipped.len()), (2, 0));
    assert!(calib.skipped.is_empty() && calib.text.starts_with("n=2\n"));
}
