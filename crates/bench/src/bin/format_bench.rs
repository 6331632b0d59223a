//! Benchmark of the on-disk record format: measures record size and
//! load/replay time for the binary `mg_bench::binfmt` containers
//! against the JSON debug view of the same records, and writes
//! `results/BENCH_format.json`.
//!
//! Usage: `format_bench [N]` limits the sweep to the first N
//! benchmarks (default: the full 78-bench suite, as CI's
//! `format-smoke` job runs it).
//!
//! The journal and cache layers are measured on *real* records: the
//! bench runs a single-cell sweep over the suite with journaling kept,
//! then re-reads every journal row and disk-cache entry it produced.
//! Each record is also rendered to its JSON debug view — compact
//! `serde_json` text of the decoded value, what `export_json` renders —
//! so both formats decode the same data. Measured on one host, in one
//! process, the comparison is like for like. The span-trace and
//! obs-pipeline layers use deterministic
//! synthetic documents of realistic shape, so the bench does not need
//! the `obs` feature.
//!
//! Exits non-zero if the binary format fails its acceptance gates on
//! the durability layers (journal + cache, combined): records at least
//! 3x smaller than the JSON view and replay at least as fast.

use mg_bench::binfmt::{self, RecordKind};
use mg_bench::{save_json, Scheme, SweepCell, SweepSpec};
use mg_obs::mg_info;
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::{Serialize, Value};
use std::path::Path;
use std::time::Instant;

/// Decode repetitions per layer, to lift load times out of timer noise.
const REPS: u32 = 10;

#[derive(Serialize)]
struct LayerRow {
    layer: String,
    records: usize,
    bin_bytes: u64,
    json_bytes: u64,
    /// JSON bytes per binary byte (bigger is better for the new format).
    size_ratio: f64,
    bin_load_us: u64,
    json_load_us: u64,
    /// JSON load time per binary load time.
    load_speedup: f64,
}

/// One record measured in both formats: the sealed binary container
/// and the JSON debug view of the same decoded value.
struct Pair {
    bin: Vec<u8>,
    json: Vec<u8>,
}

impl Pair {
    fn new(bin: Vec<u8>, value: &Value) -> Pair {
        let json = serde_json::to_string(value)
            .expect("JSON view renders")
            .into_bytes();
        Pair { bin, json }
    }
}

fn pair_from_record(bytes: Vec<u8>) -> Option<Pair> {
    let value = decode_bin(&bytes)?;
    Some(Pair::new(bytes, &value))
}

fn decode_bin(bytes: &[u8]) -> Option<Value> {
    let header = binfmt::peek_header(bytes).ok()?;
    let kind = RecordKind::from_u16(header.kind)?;
    binfmt::open_value(bytes, kind, header.schema).ok()
}

fn decode_json(bytes: &[u8]) -> Option<Value> {
    serde_json::parse_value_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// Measures one layer: total sizes, and wall time to decode every
/// record `REPS` times in each format.
fn measure(layer: &str, pairs: &[Pair]) -> LayerRow {
    let bin_bytes: u64 = pairs.iter().map(|p| p.bin.len() as u64).sum();
    let json_bytes: u64 = pairs.iter().map(|p| p.json.len() as u64).sum();
    let t = Instant::now();
    for _ in 0..REPS {
        for p in pairs {
            assert!(decode_bin(&p.bin).is_some(), "binary record must decode");
        }
    }
    let bin_load_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
    let t = Instant::now();
    for _ in 0..REPS {
        for p in pairs {
            assert!(decode_json(&p.json).is_some(), "JSON record must parse");
        }
    }
    let json_load_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
    LayerRow {
        layer: layer.to_string(),
        records: pairs.len(),
        bin_bytes,
        json_bytes,
        size_ratio: json_bytes as f64 / (bin_bytes as f64).max(1.0),
        bin_load_us,
        json_load_us,
        load_speedup: json_load_us as f64 / (bin_load_us as f64).max(1.0),
    }
}

/// Collects every `.mgb` record under `dir` whose file name starts with
/// `prefix`, paired with its JSON view.
fn pairs_from_dir(dir: &Path, prefix: &str) -> Vec<Pair> {
    let Ok(listing) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = listing
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == binfmt::EXT)
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
        })
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| pair_from_record(std::fs::read(&p).ok()?))
        .collect()
}

/// A deterministic Chrome-trace document of `n` span events, shaped
/// like a real `MG_TRACE` drain.
fn synthetic_trace(n: u64) -> Vec<Pair> {
    let stages = ["train", "simulate", "select", "schedule"];
    let events: Vec<Value> = (0..n)
        .map(|i| {
            Value::Map(vec![
                ("name".into(), Value::Str(format!("bench-{}", i % 78))),
                (
                    "cat".into(),
                    Value::Str(stages[(i % 4) as usize].to_string()),
                ),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::U64(1_000 + 137 * i)),
                ("dur".into(), Value::U64(90 + (i % 400))),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(1 + i % 8)),
                (
                    "args".into(),
                    Value::Map(vec![("depth".into(), Value::Str((1 + i % 3).to_string()))]),
                ),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ]);
    let bin = binfmt::to_record(RecordKind::SpanTrace, binfmt::SPAN_TRACE_SCHEMA, &doc);
    vec![Pair::new(bin, &doc)]
}

/// A deterministic obs-style pipeline dump of `n` per-op trace rows,
/// shaped like the `OBS_<bench>` artifact's dominant section.
fn synthetic_obs(n: u64) -> Vec<Pair> {
    let classes = ["alu", "load", "store", "branch", "mg"];
    let rows: Vec<Value> = (0..n)
        .map(|i| {
            Value::Map(vec![
                ("seq".into(), Value::U64(i)),
                ("pc".into(), Value::U64(0x0040_0000 + 4 * (i % 9000))),
                (
                    "class".into(),
                    Value::Str(classes[(i % 5) as usize].to_string()),
                ),
                ("fetch".into(), Value::U64(10 * i)),
                ("dispatch".into(), Value::U64(10 * i + 3)),
                ("issue".into(), Value::U64(10 * i + 5)),
                ("commit".into(), Value::U64(10 * i + 9)),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("schema_version".into(), Value::U64(1)),
        ("bench".into(), Value::Str("mib_crc32".into())),
        ("scheme".into(), Value::Str("Struct-All".into())),
        ("trace".into(), Value::Seq(rows)),
    ]);
    let bin = binfmt::to_record(RecordKind::ObsDump, 1, &doc);
    vec![Pair::new(bin, &doc)]
}

fn main() {
    let cfg = mg_bench::Config::init_cli();
    let take: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    let red = MachineConfig::reduced();

    // Produce real journal rows and disk-cache entries: one cell per
    // bench, journal kept for measurement (driven via `try_run`, not
    // `run_cli`, precisely so the journal survives the sweep).
    let journal_root = Path::new("results").join("format-bench-journal");
    let _ = std::fs::remove_dir_all(&journal_root);
    let result = SweepSpec::new(&red)
        .benches(suite().iter().take(take).cloned())
        .cell(SweepCell::new(Scheme::SlackProfile, &red))
        .journal(true)
        .journal_dir(&journal_root)
        .jobs(cfg.effective_jobs())
        .try_run()
        .unwrap_or_else(|e| {
            eprintln!("format bench sweep failed: {e}");
            std::process::exit(2);
        });
    let journal_dir = result
        .summary
        .journal_dir
        .clone()
        .expect("sweep was journaled");

    let rows = vec![
        measure("journal", &pairs_from_dir(&journal_dir, "row-")),
        measure("cache", &pairs_from_dir(Path::new("results/cache"), "ctx-")),
        measure("trace_spans", &synthetic_trace(5_000)),
        measure("obs_pipeline", &synthetic_obs(5_000)),
    ];
    let _ = std::fs::remove_dir_all(&journal_root);

    println!("FORMAT BENCH: binary records vs their JSON debug view");
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>7} {:>12} {:>12} {:>8}",
        "layer", "records", "bin B", "json B", "ratio", "bin us", "json us", "speedup"
    );
    for r in &rows {
        println!(
            "{:<14} {:>7} {:>12} {:>12} {:>6.2}x {:>12} {:>12} {:>7.2}x",
            r.layer,
            r.records,
            r.bin_bytes,
            r.json_bytes,
            r.size_ratio,
            r.bin_load_us,
            r.json_load_us,
            r.load_speedup
        );
    }

    let path = save_json("BENCH_format", &rows);
    mg_info!("format benchmark written to {}", path.display());

    // Acceptance gates on the durability layers that replay on resume.
    let durable: Vec<&LayerRow> = rows
        .iter()
        .filter(|r| r.layer == "journal" || r.layer == "cache")
        .collect();
    let (bin_b, json_b, bin_us, json_us) = durable.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.bin_bytes,
            acc.1 + r.json_bytes,
            acc.2 + r.bin_load_us,
            acc.3 + r.json_load_us,
        )
    });
    if durable.iter().any(|r| r.records == 0) {
        eprintln!("FORMAT GATE FAILED: a durability layer produced no records to measure");
        std::process::exit(1);
    }
    if json_b < 3 * bin_b {
        eprintln!(
            "FORMAT GATE FAILED: binary journal+cache records are only {:.2}x smaller than their JSON view (need 3x)",
            json_b as f64 / (bin_b as f64).max(1.0)
        );
        std::process::exit(1);
    }
    if bin_us > json_us {
        eprintln!(
            "FORMAT GATE FAILED: binary replay took {bin_us}us vs {json_us}us for the JSON view"
        );
        std::process::exit(1);
    }
    println!(
        "format gates ok: journal+cache {:.2}x smaller, replay {:.2}x faster",
        json_b as f64 / (bin_b as f64).max(1.0),
        json_us as f64 / (bin_us as f64).max(1.0)
    );
}
