//! Regenerates the paper's results from one sweep: Table 1, Figures 1,
//! 3, 6 and 7, the miss-aware extension and the calibration summary are
//! all views of a single run over [`figures::PAPER_CELLS`].
//!
//! Each view's text goes to stdout and `results/<name>.txt`; the views
//! with rows also write `results/<name>.json`.
//!
//! Usage: `reproduce [N]` limits the sweep to the first N benchmarks.

use mg_bench::figures::{self, View};
use mg_bench::{save_json, BenchError};
use mg_obs::{mg_error, mg_info};
use serde::Serialize;
use std::path::Path;

/// Prints `text` and writes it to `results/<name>.txt`, logging the
/// benchmarks the view skipped.
fn publish_text(name: &str, text: &str, skipped: &[BenchError]) {
    for e in skipped {
        mg_error!("{name}: skipped: {e}");
    }
    print!("{text}");
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    std::fs::write(dir.join(format!("{name}.txt")), text).expect("write results text");
}

/// [`publish_text`], then the view's rows to `results/<name>.json`.
fn publish<R: Serialize>(name: &str, view: View<R>) {
    publish_text(name, &view.text, &view.skipped);
    let path = save_json(name, &view.rows);
    mg_info!("rows written to {}", path.display());
}

fn main() {
    let take: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    let result = figures::paper_spec(take).run_cli();
    publish_text("table1", &figures::table1(), &[]);
    publish("fig1", figures::fig1(&result));
    publish("fig3", figures::fig3(&result));
    publish("fig6", figures::fig6(&result));
    publish("fig7", figures::fig7(&result));
    publish("ext_memaware", figures::ext_memaware(&result));
    let calib = figures::calib(&result);
    publish_text("calib", &calib.text, &calib.skipped);
}
