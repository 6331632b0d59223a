//! End-to-end smoke of the observability stack (`--features obs`):
//! conservation of stall attribution against the engine's own cycle
//! count, a typed round-trip of the binary trace dump, pipeview rendering,
//! sweep-level aggregation, and — the zero-cost contract's run-time
//! half — bit-identical statistics with the observer attached.

#![cfg(feature = "obs")]

use mg_bench::binfmt::{self, BinError, RecordKind};
use mg_bench::harness::{ObsSection, PreparedSim};
use mg_bench::{
    machine_fingerprint, BenchContext, Envelope, Scheme, SchemeRun, SweepCell, SweepSpec,
    SCHEMA_VERSION,
};
use mg_sim::{MachineConfig, ObsConfig, ObsReport};
use mg_workloads::{suite, BenchmarkSpec};
use serde::{Serialize, Value};

fn short_spec(name: &str) -> BenchmarkSpec {
    let mut s = suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("benchmark in suite");
    s.params.target_dyn = 10_000;
    s
}

/// Struct-All on the reduced machine, prepared on `name`.
fn prepared(name: &str) -> PreparedSim {
    let red = MachineConfig::reduced();
    BenchContext::builder(&short_spec(name), &red)
        .disk_cache(false)
        .build()
        .expect("context builds")
        .prepare(&SweepCell::new(Scheme::StructAll, &red))
        .expect("cell prepares")
}

/// [`prepared`] run with the observer attached: the row and the report.
fn observed(name: &str) -> (SchemeRun, ObsReport) {
    let mut p = prepared(name);
    p.opts.obs = Some(ObsConfig::default());
    let r = p.simulate();
    let run = p.row(&r).expect("instrumented run succeeds");
    (run, r.obs.expect("an observed run returns a report"))
}

#[test]
fn stall_attribution_conserves_engine_cycles() {
    let (run, report) = observed("mib_crc32");
    assert_eq!(
        report.cycles, run.cycles,
        "the report covers exactly the run's cycles"
    );
    assert!(
        report.conservation_ok(),
        "every issue slot must be charged exactly once per cycle"
    );
    assert!(report.committed_instrs > 0);
    assert_eq!(report.issue_width, report.stalls.width);
}

#[test]
fn observer_does_not_perturb_the_simulation() {
    let p = prepared("mib_crc32");
    let plain = p.simulate();
    let mut instrumented = p.clone();
    instrumented.opts.obs = Some(ObsConfig::default());
    let observed = instrumented.simulate();
    assert_eq!(
        plain.stats, observed.stats,
        "attaching the observer must not change a single statistic"
    );
    assert!(plain.obs.is_none());
    assert!(observed.obs.is_some());
}

#[test]
fn pipeview_renders_the_tail_of_the_run() {
    let (_, report) = observed("mib_crc32");
    let (lo, hi) = report.tail_window(32);
    let view = report.pipeview(lo, hi);
    assert!(view.contains("seq"), "header row present");
    assert!(
        view.lines().count() > 2,
        "the tail window shows ops:\n{view}"
    );
    assert!(
        view.contains('T'),
        "ops commit in the tail of a finished run:\n{view}"
    );
}

/// Seals `value` as an obs dump record and decodes it as the typed
/// envelope, exactly as the `obs` bin reads its artifact back.
fn typed_decode(value: &Value) -> Result<Envelope<ObsSection>, BinError> {
    let bytes = binfmt::to_record(RecordKind::ObsDump, SCHEMA_VERSION, value);
    binfmt::from_record(&bytes, RecordKind::ObsDump, SCHEMA_VERSION)
}

/// The entry `key` of a JSON-shaped object, for targeted damage.
fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Map(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("field {key} present")),
        other => panic!("expected an object at {key}, got {other:?}"),
    }
}

#[test]
fn trace_dump_round_trips_through_a_typed_decode() {
    let (_, report) = observed("mib_crc32");
    let section = ObsSection::new("mib_crc32", Scheme::StructAll, report);
    let envelope = Envelope {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        rows: section.clone(),
    };
    let value = envelope.to_value();
    let back = typed_decode(&value).expect("dump decodes as a typed section");
    assert_eq!(back.schema_version, SCHEMA_VERSION);
    assert_eq!(back.machine_fingerprint, machine_fingerprint());
    assert_eq!(back.rows, section, "every value survives the record");
    assert!(
        !back.rows.report.trace.is_empty(),
        "the dump carries trace rows"
    );

    // The rules a schema would state are enforced by the decode itself:
    // a required field, an integer type, and the op-class enum.
    let mut missing = value.clone();
    if let Value::Map(entries) = field_mut(field_mut(&mut missing, "rows"), "report") {
        entries.retain(|(k, _)| k != "cycles");
    }
    assert!(typed_decode(&missing).is_err(), "missing field rejected");

    let mut mistyped = value.clone();
    *field_mut(
        field_mut(field_mut(&mut mistyped, "rows"), "report"),
        "cycles",
    ) = Value::Str("many".into());
    assert!(typed_decode(&mistyped).is_err(), "non-integer rejected");

    let mut bad_class = value.clone();
    let trace = field_mut(
        field_mut(field_mut(&mut bad_class, "rows"), "report"),
        "trace",
    );
    if let Value::Seq(ops) = trace {
        *field_mut(&mut ops[0], "class") = Value::Str("Bogus".into());
    }
    assert!(
        typed_decode(&bad_class).is_err(),
        "unknown op class rejected"
    );
}

#[test]
fn observed_sweep_aggregates_and_conserves() {
    let red = MachineConfig::reduced();
    let result = SweepSpec::new(&red)
        .bench(&short_spec("mib_crc32"))
        .bench(&short_spec("mib_sha"))
        .cell(SweepCell::new(Scheme::NoMg, &red))
        .cell(SweepCell::new(Scheme::StructAll, &red))
        .disk_cache(false)
        .quiet(true)
        .jobs(2)
        .observe(ObsConfig::default())
        .run();
    assert_eq!(result.summary.failures, 0);
    for row in &result.rows {
        let agg = row
            .obs
            .as_ref()
            .expect("observed sweep fills per-bench aggregates");
        assert_eq!(agg.runs, 2, "{}: one report per cell", row.bench);
        assert!(agg.conservation_ok(), "{}: aggregate conserves", row.bench);
    }
    let total = result.obs_aggregate();
    assert_eq!(total.runs, 4);
    assert!(total.conservation_ok());
    assert!(total.render().contains("4 runs"));
}
