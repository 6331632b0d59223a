//! Integration tests for the parallel sweep runner: determinism of
//! parallel output, context-cache behaviour, and the fallible harness
//! construction paths.
//!
//! The context cache and its counters are process-wide, so every test
//! that touches them serializes on [`LOCK`].

use mg_bench::cache;
use mg_bench::figures::{fig6, paper_spec};
use mg_bench::{Scheme, SweepCell, SweepSpec};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// The acceptance bar of the runner: a parallel sweep's JSON is
/// byte-identical to a serial (`MG_JOBS=1`-equivalent) sweep's.
#[test]
fn parallel_fig6_json_is_byte_identical_to_serial() {
    let _guard = LOCK.lock().unwrap();
    let parallel = {
        let result = paper_spec(&suite()[..6])
            .jobs(4)
            .disk_cache(false)
            .quiet(true)
            .run();
        let view = fig6(&result);
        assert!(view.skipped.is_empty(), "skipped: {:?}", view.skipped);
        serde_json::to_string_pretty(&view.rows).unwrap()
    };
    let serial = {
        let result = paper_spec(&suite()[..6])
            .jobs(1)
            .disk_cache(false)
            .quiet(true)
            .run();
        let view = fig6(&result);
        assert!(view.skipped.is_empty(), "skipped: {:?}", view.skipped);
        serde_json::to_string_pretty(&view.rows).unwrap()
    };
    assert_eq!(parallel, serial);
}

/// A second sweep over the same spec rebuilds nothing: every context
/// comes from the in-memory cache.
#[test]
fn second_sweep_is_all_context_cache_hits() {
    let _guard = LOCK.lock().unwrap();
    let benches: Vec<_> = suite().iter().skip(10).take(3).cloned().collect();
    let red = MachineConfig::reduced();
    let spec = SweepSpec::new(&red)
        .benches(benches.clone())
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .disk_cache(false)
        .quiet(true);

    let before = cache::counters();
    let first = spec.run();
    let after_first = cache::counters();
    let second = spec.run();
    let after_second = cache::counters();

    assert_eq!(first.summary.failures, 0);
    assert_eq!(second.summary.failures, 0);
    // The first sweep may hit contexts other tests built, but the second
    // sweep must be 100% in-memory hits with zero rebuilds.
    let d1 = after_first.since(&before);
    let d2 = after_second.since(&after_first);
    assert_eq!(d1.total(), benches.len() as u64);
    assert_eq!(d2.misses, 0);
    assert_eq!(d2.disk_hits, 0);
    assert_eq!(d2.mem_hits, benches.len() as u64);
}

/// A machine that can never retire (zero-width commit) must surface as
/// `BenchError::CycleCap` through the fallible harness API rather than
/// hanging or panicking — exercised here against the event-driven
/// scheduler, whose wakeup heap simply drains while the ROB stays full.
#[test]
fn cycle_capped_run_surfaces_as_bench_error() {
    use mg_bench::{BenchContext, BenchError};
    let _guard = LOCK.lock().unwrap();
    let mut spec = mg_workloads::limit_study_benchmark();
    spec.params.target_dyn = 2_000; // keep the capped spin short
    let red = MachineConfig::reduced();
    let ctx = BenchContext::try_new(&spec, &red).unwrap();
    let mut stuck = red.clone();
    stuck.commit_width = 0;
    let p = ctx.prepare(&SweepCell::new(Scheme::NoMg, &stuck)).unwrap();
    match p.row(&p.simulate()) {
        Err(BenchError::CycleCap { bench, scheme }) => {
            assert_eq!(bench, spec.name);
            assert_eq!(scheme, Scheme::NoMg);
        }
        Ok(r) => panic!("expected CycleCap, got a successful run: {r:?}"),
        Err(e) => panic!("expected CycleCap, got {e}"),
    }
}

/// The `try_new` shorthand agrees with the explicit builder path it
/// abbreviates (same inputs, same cache policy, same bits).
#[test]
fn try_new_shorthand_matches_explicit_builder() {
    use mg_bench::BenchContext;
    let _guard = LOCK.lock().unwrap();
    let spec = mg_workloads::limit_study_benchmark();
    let red = MachineConfig::reduced();
    let cell = SweepCell::new(Scheme::StructAll, &red);
    let run = |ctx: BenchContext| {
        let p = ctx.prepare(&cell).unwrap();
        p.row(&p.simulate()).unwrap()
    };
    let short = run(BenchContext::try_new(&spec, &red).unwrap());
    let explicit = run(BenchContext::builder(&spec, &red)
        .train_input(spec.primary_input())
        .run_input(spec.primary_input())
        .build()
        .unwrap());
    assert_eq!(short.cycles, explicit.cycles);
    assert_eq!(short.ipc, explicit.ipc);
    assert_eq!(short.coverage, explicit.coverage);
}

/// A process that runs several sweeps writes one trace after the last,
/// holding every sweep's span (draining after each sweep would keep only
/// the last one's), and clears their journals once all completed.
#[test]
fn one_trace_holds_the_span_of_every_sweep() {
    use mg_bench::binfmt::{from_record, RecordKind, SPAN_TRACE_SCHEMA};
    use mg_obs::span::ChromeTrace;
    let _guard = LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("mg-trace-{}", std::process::id()));
    let red = MachineConfig::reduced();
    let sweep = |cells| {
        let spec = SweepSpec::new(&red).benches(suite().into_iter().take(1));
        let spec = spec.cells(vec![SweepCell::new(Scheme::NoMg, &red); cells]);
        spec.journal_dir(dir.join("journal"))
            .disk_cache(false)
            .quiet(true)
    };
    mg_obs::span::set_enabled(true);
    let cfg = mg_bench::Config::default();
    let results = mg_bench::supervisor::run_sweeps(&cfg, "two", vec![sweep(1), sweep(2)], &dir);
    mg_obs::span::set_enabled(false);
    assert_eq!(results.map(|r| r.len()), Ok(2));

    let bytes = std::fs::read(dir.join("TRACE_two.mgb")).unwrap();
    let doc: ChromeTrace = from_record(&bytes, RecordKind::SpanTrace, SPAN_TRACE_SCHEMA).unwrap();
    let sweeps = doc.traceEvents.iter().filter(|e| e.cat == "sweep");
    let names: Vec<&str> = sweeps.map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["sweep:1x1", "sweep:1x2"]);
    let journals = std::fs::read_dir(dir.join("journal")).map_or(0, |d| d.count());
    assert_eq!(journals, 0, "completed journals are cleared");
    let _ = std::fs::remove_dir_all(&dir);
}
