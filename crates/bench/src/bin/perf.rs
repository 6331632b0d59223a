//! Engine-throughput harness: measures simulator cycles/second on the
//! fig1 reduced-machine sweep and writes `results/BENCH_engine.json`,
//! the repo's performance-trajectory record (uploaded as a CI artifact),
//! naming the host it was measured on: a throughput is only comparable
//! with one measured on the same host, which is how CI's perf gate runs
//! base and head.
//!
//! Usage: `perf [N] [TARGET_DYN]` — sweep the first `N` benchmarks
//! (default: all 78) truncated to `TARGET_DYN` dynamic instructions
//! (default: 30000).
//!
//! Per (scheme, machine) cell, every benchmark's simulation input is
//! prepared once ([`mg_bench::harness::PreparedSim`]) and `simulate` is
//! then timed in isolation over `REPEATS` passes, keeping the best
//! (least-noisy) pass. Selection, rewriting, and functional execution
//! are excluded from the timed region — this harness tracks the engine
//! hot loop, nothing else.
//!
//! With `--features alloc-count`, a counting global allocator also
//! reports steady-state heap allocations per simulated cycle, measured
//! as the allocation-count *slope* between a short and a long run of the
//! same benchmark (setup allocations cancel out).
//!
//! With `--features obs`, one benchmark is additionally timed with the
//! pipeline observer attached vs. detached, recording the observer's
//! run-time overhead ratio (and checking stall-attribution
//! conservation) in the report's `obs` section.

use mg_bench::figures::FIG1_CELLS;
use mg_bench::harness::PreparedSim;
use mg_bench::{machine_fingerprint, BenchContext, SweepCell, SCHEMA_VERSION};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::Serialize;
use std::time::Instant;

const REPEATS: usize = 3;

#[cfg(feature = "alloc-count")]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocation events (alloc and
    /// grow-realloc; frees are not events of interest).
    pub struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTER: Counting = Counting;

    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[derive(Serialize)]
struct CellPerf {
    scheme: String,
    machine: String,
    benches: usize,
    sim_cycles: u64,
    wall_sec: f64,
    cycles_per_sec: f64,
}

#[derive(Serialize)]
struct AllocPerf {
    bench: String,
    short_cycles: u64,
    long_cycles: u64,
    short_allocs: u64,
    long_allocs: u64,
    /// Allocation events per extra simulated cycle between the short and
    /// long run — ~0 means the steady-state loop is allocation-free.
    steady_allocs_per_cycle: f64,
}

#[derive(Serialize)]
struct ObsPerf {
    bench: String,
    cycles: u64,
    plain_wall_sec: f64,
    observed_wall_sec: f64,
    /// Observed wall over plain wall: the run-time price of attaching
    /// the observer (the compile-it-out price is zero by construction).
    overhead_ratio: f64,
    conservation_ok: bool,
}

/// The host measured on: the first `model name` of `/proc/cpuinfo` and
/// the logical CPU count.
fn host() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'));
    let model = model.map_or("unknown CPU", |(_, m)| m.trim());
    format!("{model}, {} vCPUs", mg_bench::config::available_jobs())
}

#[derive(Serialize)]
struct PerfReport {
    schema_version: u32,
    machine_fingerprint: String,
    host: String,
    benches: usize,
    target_dyn: usize,
    repeats: usize,
    cells: Vec<CellPerf>,
    total_sim_cycles: u64,
    total_wall_sec: f64,
    sim_cycles_per_sec: f64,
    alloc: Option<AllocPerf>,
    obs: Option<ObsPerf>,
}

fn prepare_all(take: usize, target_dyn: usize) -> Vec<(String, Vec<PreparedSim>)> {
    let red = MachineConfig::reduced();
    suite()
        .into_iter()
        .take(take)
        .filter_map(|mut spec| {
            spec.params.target_dyn = target_dyn;
            let ctx = match BenchContext::builder(&spec, &red).disk_cache(false).build() {
                Ok(ctx) => ctx,
                Err(e) => {
                    eprintln!("skipped {}: {e}", spec.name);
                    return None;
                }
            };
            let mut sims = Vec::new();
            for &(scheme, machine) in FIG1_CELLS {
                match ctx.prepare(&SweepCell::new(scheme, &machine.config())) {
                    Ok(p) => sims.push(p),
                    Err(e) => {
                        let tag = machine.tag();
                        eprintln!("skipped {} cell {}/{tag}: {e}", spec.name, scheme.name());
                        return None;
                    }
                }
            }
            Some((spec.name.clone(), sims))
        })
        .collect()
}

/// Times one full pass of `sims` (every benchmark under one cell index),
/// returning (total simulated cycles, wall seconds).
fn time_cell(prepared: &[(String, Vec<PreparedSim>)], cell: usize) -> (u64, f64) {
    let mut best_wall = f64::INFINITY;
    let mut cycles = 0u64;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let mut pass_cycles = 0u64;
        for (_, sims) in prepared {
            let r = sims[cell].simulate();
            pass_cycles += r.stats.cycles;
        }
        let wall = t0.elapsed().as_secs_f64();
        cycles = pass_cycles;
        if wall < best_wall {
            best_wall = wall;
        }
    }
    (cycles, best_wall)
}

/// The benchmark the allocation and observer profiles run on.
#[cfg(any(feature = "alloc-count", feature = "obs"))]
const PROFILE_BENCH: &str = "mib_crc32";

/// Struct-All on the reduced machine, prepared on [`PROFILE_BENCH`] cut
/// to `target_dyn` dynamic instructions.
#[cfg(any(feature = "alloc-count", feature = "obs"))]
fn profile_cell(target_dyn: usize) -> Option<PreparedSim> {
    let red = MachineConfig::reduced();
    let mut spec = suite().into_iter().find(|s| s.name == PROFILE_BENCH)?;
    spec.params.target_dyn = target_dyn;
    let ctx = BenchContext::builder(&spec, &red).disk_cache(false);
    let cell = SweepCell::new(mg_bench::Scheme::StructAll, &red);
    ctx.build().ok()?.prepare(&cell).ok()
}

#[cfg(feature = "alloc-count")]
fn alloc_profile(target_dyn: usize) -> Option<AllocPerf> {
    // One benchmark, two trace lengths: the allocation-count slope
    // between them is the steady-state allocations per simulated cycle.
    let measure = |target_dyn| -> Option<(u64, u64)> {
        let p = profile_cell(target_dyn)?;
        p.simulate(); // warm: fault in lazily-allocated structures
        let a0 = alloc_count::allocs();
        let r = p.simulate();
        let a1 = alloc_count::allocs();
        Some((r.stats.cycles, a1 - a0))
    };
    let (short_cycles, short_allocs) = measure(target_dyn)?;
    let (long_cycles, long_allocs) = measure(target_dyn * 4)?;
    let dc = long_cycles.saturating_sub(short_cycles).max(1);
    let da = long_allocs.saturating_sub(short_allocs);
    Some(AllocPerf {
        bench: PROFILE_BENCH.to_string(),
        short_cycles,
        long_cycles,
        short_allocs,
        long_allocs,
        steady_allocs_per_cycle: da as f64 / dc as f64,
    })
}

#[cfg(not(feature = "alloc-count"))]
fn alloc_profile(_target_dyn: usize) -> Option<AllocPerf> {
    None
}

/// Times one benchmark with and without the pipeline observer attached:
/// the ratio is the run-time cost of observing (the cost with the `obs`
/// feature off is zero — the hooks compile away).
#[cfg(feature = "obs")]
fn obs_profile(target_dyn: usize) -> Option<ObsPerf> {
    let plain = profile_cell(target_dyn)?;
    let mut observed = plain.clone();
    observed.opts.obs = Some(mg_sim::ObsConfig::default());
    let best = |p: &PreparedSim| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            p.simulate();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let plain_wall_sec = best(&plain);
    let observed_wall_sec = best(&observed);
    let r = observed.simulate();
    let report = r.obs.as_ref()?;
    Some(ObsPerf {
        bench: PROFILE_BENCH.to_string(),
        cycles: r.stats.cycles,
        plain_wall_sec,
        observed_wall_sec,
        overhead_ratio: observed_wall_sec / plain_wall_sec.max(1e-12),
        conservation_ok: report.conservation_ok(),
    })
}

#[cfg(not(feature = "obs"))]
fn obs_profile(_target_dyn: usize) -> Option<ObsPerf> {
    None
}

fn main() {
    mg_bench::Config::init_cli();
    let take: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX);
    let target_dyn: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    eprintln!("preparing sweep inputs…");
    let prepared = prepare_all(take, target_dyn);
    assert!(!prepared.is_empty(), "no benchmarks prepared");

    let mut cells = Vec::new();
    let mut total_cycles = 0u64;
    let mut total_wall = 0.0f64;
    for (i, &(scheme, machine)) in FIG1_CELLS.iter().enumerate() {
        let tag = machine.tag();
        let (cycles, wall) = time_cell(&prepared, i);
        eprintln!(
            "{:<16} {:<5} {:>12} cycles  {:>8.3}s  {:>12.0} cyc/s",
            scheme.name(),
            tag,
            cycles,
            wall,
            cycles as f64 / wall
        );
        total_cycles += cycles;
        total_wall += wall;
        cells.push(CellPerf {
            scheme: scheme.name().to_string(),
            machine: tag.to_string(),
            benches: prepared.len(),
            sim_cycles: cycles,
            wall_sec: wall,
            cycles_per_sec: cycles as f64 / wall,
        });
    }

    let alloc = alloc_profile(10_000);
    if let Some(a) = &alloc {
        eprintln!(
            "steady-state allocations/cycle on {}: {:.4} ({} allocs over {} extra cycles)",
            a.bench,
            a.steady_allocs_per_cycle,
            a.long_allocs.saturating_sub(a.short_allocs),
            a.long_cycles.saturating_sub(a.short_cycles),
        );
    }

    let obs = obs_profile(target_dyn);
    if let Some(o) = &obs {
        eprintln!(
            "observer overhead on {}: {:.2}x ({:.3}s observed vs {:.3}s plain, conservation {})",
            o.bench,
            o.overhead_ratio,
            o.observed_wall_sec,
            o.plain_wall_sec,
            if o.conservation_ok { "ok" } else { "VIOLATED" },
        );
    }

    let report = PerfReport {
        schema_version: SCHEMA_VERSION,
        machine_fingerprint: machine_fingerprint(),
        host: host(),
        benches: prepared.len(),
        target_dyn,
        repeats: REPEATS,
        cells,
        total_sim_cycles: total_cycles,
        total_wall_sec: total_wall,
        sim_cycles_per_sec: total_cycles as f64 / total_wall,
        alloc,
        obs,
    };
    println!(
        "TOTAL: {} simulated cycles in {:.3}s = {:.0} sim-cycles/sec",
        report.total_sim_cycles, report.total_wall_sec, report.sim_cycles_per_sec
    );
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join("BENCH_engine.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize perf report");
    std::fs::write(&path, json).expect("write BENCH_engine.json");
    eprintln!("report written to {}", path.display());
}
