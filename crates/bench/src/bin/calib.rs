//! Full-suite calibration sweep: every benchmark, every scheme, both
//! machines (the Figure 6 sweep); prints suite-wide summary statistics
//! against paper targets.
use mg_bench::figures::{fig6_rows, fig6_spec, Fig6PerScheme, FIG6_SCHEMES};
use mg_bench::mean;
use mg_obs::mg_error;
use std::time::Instant;

fn main() {
    let take: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(78);
    let t0 = Instant::now();
    let result = fig6_spec(take).run_cli();
    let (rows, failures) = fig6_rows(&result);
    for e in &failures {
        mg_error!("skipped: {e}");
    }
    let nomg_red: Vec<f64> = rows.iter().map(|r| r.nomg_red).collect();
    println!(
        "n={}  elapsed {:.1}s",
        rows.len(),
        t0.elapsed().as_secs_f32()
    );
    println!(
        "no-mg reduced: mean rel {:.3}   (paper 0.82)",
        mean(&nomg_red)
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>10} {:>10}",
        "scheme", "red-rel", "full-rel", "cov", "<nomg(red)", "slow(full)"
    );
    let paper = [
        ("Struct-All", 0.90, 0.38),
        ("Struct-None", 0.95, 0.20),
        ("Struct-Bounded", 0.98, 0.30),
        ("Slack-Profile", 1.02, 0.34),
        ("Slack-Dynamic", 0.94, 0.30),
    ];
    for (si, s) in FIG6_SCHEMES.iter().enumerate() {
        let per: Vec<&Fig6PerScheme> = rows.iter().map(|r| &r.per_scheme[si]).collect();
        let column = |f: fn(&Fig6PerScheme) -> f64| per.iter().map(|p| f(p)).collect::<Vec<_>>();
        let slower_than_nomg_red = rows
            .iter()
            .filter(|r| r.per_scheme[si].rel_red < r.nomg_red)
            .count();
        let slowdown_full = per.iter().filter(|p| p.rel_full < 0.995).count();
        println!(
            "{:<16} {:>8.3} {:>8.3} {:>8.3} {:>10} {:>10}   paper: rel {:.2} cov {:.2}",
            s.name(),
            mean(&column(|p| p.rel_red)),
            mean(&column(|p| p.rel_full)),
            mean(&column(|p| p.coverage)),
            slower_than_nomg_red,
            slowdown_full,
            paper[si].1,
            paper[si].2
        );
    }
}
