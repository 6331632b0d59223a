//! Accounting invariants of [`mg_sim::SimStats`] on real engine runs.
//!
//! The unit tests in `mg-sim` pin the identities on hand-built stats;
//! these integration tests pin them on stats the engine actually
//! produces, across schemes that exercise every commit path: plain
//! singletons, embedded handles, and outlined (disabled) instances with
//! their synthesized jumps.

use mg_bench::{BenchContext, Scheme, SweepCell};
use mg_sim::MachineConfig;
use mg_workloads::{suite, BenchmarkSpec};

fn short_spec(name: &str) -> BenchmarkSpec {
    let mut s = suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark in suite");
    s.params.target_dyn = 10_000;
    s
}

#[test]
fn engine_stats_satisfy_invariants_across_schemes() {
    let red = MachineConfig::reduced();
    let ctx = BenchContext::builder(&short_spec("mib_crc32"), &red)
        .disk_cache(false)
        .build()
        .expect("context builds");
    // NoMg commits only singletons; StructAll commits handles;
    // SlackDynamic additionally outlines disabled instances (jumps).
    for scheme in [
        Scheme::NoMg,
        Scheme::StructAll,
        Scheme::SlackProfile,
        Scheme::SlackDynamic,
    ] {
        let p = ctx.prepare(&SweepCell::new(scheme, &red));
        let r = p.expect("cell prepares").simulate();
        assert!(r.stats.cycles > 0, "{}: ran no cycles", scheme.name());
        assert!(
            r.stats.committed_instrs > 0,
            "{}: committed nothing",
            scheme.name()
        );
        if let Err(e) = r.stats.check_invariants() {
            panic!("{}: {e}", scheme.name());
        }
    }
}

#[test]
fn engine_stats_satisfy_invariants_on_a_second_workload() {
    let red = MachineConfig::reduced();
    let ctx = BenchContext::builder(&short_spec("mib_sha"), &red)
        .disk_cache(false)
        .build()
        .expect("context builds");
    for scheme in [Scheme::StructAll, Scheme::StructBounded] {
        let p = ctx.prepare(&SweepCell::new(scheme, &red));
        let r = p.expect("cell prepares").simulate();
        if let Err(e) = r.stats.check_invariants() {
            panic!("{}: {e}", scheme.name());
        }
    }
}
