//! Regenerates every published result from the sweeps
//! [`figures::sweeps`] lists, plus Figure 8's limit study.
//!
//! Each view's text goes to stdout and `results/<name>.txt`; the views
//! with rows also write `results/<name>.json` (Figure 9 writes
//! `fig9_top.json` and `fig9_bottom.json`).
//!
//! Usage: `reproduce [N]` limits the sweeps to the first N benchmarks
//! (the ablations to the first [`figures::ABLATION_BENCHES`] of those).

use mg_bench::figures::{self, View};
use mg_bench::{run_cli, save_json, BenchError, Config};
use mg_obs::{mg_error, mg_info};
use mg_workloads::suite;
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
    let cfg = Config::init_cli();
    let benches: Vec<_> = suite().into_iter().take(take).collect();
    let results = run_cli(&cfg, "reproduce", figures::sweeps(&benches));
    let [paper, cross @ .., ablation] = &results[..] else {
        unreachable!("`sweeps` lists the paper sweep first and the ablation last")
    };
    publish_text("table1", &figures::table1(), &[]);
    publish("fig1", figures::fig1(paper));
    publish("fig3", figures::fig3(paper));
    publish("fig6", figures::fig6(paper));
    publish("fig7", figures::fig7(paper));
    publish("ext_memaware", figures::ext_memaware(paper));
    let calib = figures::calib(paper);
    publish_text("calib", &calib.text, &calib.skipped);
    publish("fig8", figures::fig8(cfg.effective_jobs()));
    let fig9 = figures::fig9(paper, cross);
    publish_text("fig9", &fig9.text, &fig9.skipped);
    let top = save_json("fig9_top", &fig9.rows.top);
    let bottom = save_json("fig9_bottom", &fig9.rows.bottom);
    mg_info!("rows written to {} and {}", top.display(), bottom.display());
    publish("ablation", figures::ablation(paper, ablation));
}
