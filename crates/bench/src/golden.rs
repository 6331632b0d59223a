//! Golden-stats digests of the timing engine.
//!
//! The engine's scheduling core is performance-critical and gets
//! rewritten; the contract is that refactors are *behaviour-preserving*.
//! This module renders the engine's observable outputs — every
//! [`SimStats`] field, derived IPC bit patterns, and fig1-style JSON rows
//! — into a deterministic digest over the full 78-benchmark suite, which
//! is compared byte-for-byte against a committed snapshot produced by the
//! pre-refactor engine (`crates/bench/tests/golden/engine_stats.json`,
//! regenerated with `MG_GOLDEN_REGEN=1 cargo test -p mg-bench --test
//! golden`).
//!
//! Floats are pinned by bit pattern (`f64::to_bits`, rendered as hex), so
//! a digest match implies bit-identical arithmetic, not just equal
//! formatting.

use crate::cache::stable_hash64;
use crate::figures::{Fig1Row, Machine, FIG1_CELLS};
use crate::harness::{BenchContext, Scheme};
use crate::runner::{par_map, SweepCell};
use mg_sim::MachineConfig;
use mg_workloads::suite;
use serde::{Deserialize, Serialize};

/// The dynamic-length target the golden suite truncates every benchmark
/// to. Small enough that all 78 benchmarks × 6 cells run in test time,
/// large enough that every engine feature (squashes, forwarding, handle
/// issue, dynamic disabling) is exercised on real workloads.
pub const GOLDEN_TARGET_DYN: usize = 6_000;

/// One (scheme, machine) cell's digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenCell {
    /// Scheme display name.
    pub scheme: String,
    /// Machine tag (`base` / `red`).
    pub machine: String,
    /// Full `SimStats` Debug rendering, or `ERROR: …` for a failed cell.
    pub stats: String,
    /// `SimResult::ipc()` bit pattern in hex (zero for failed cells).
    pub ipc_bits: String,
}

/// Everything the engine produced for one benchmark.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenRow {
    /// Benchmark name.
    pub bench: String,
    /// FNV-1a hash of the per-static frequency profile, in hex.
    pub freqs_hash: String,
    /// FNV-1a hash of the slack profile's Debug rendering, in hex — pins
    /// the `profile_slack` engine path.
    pub slack_hash: String,
    /// Per-cell digests in fixed cell order.
    pub cells: Vec<GoldenCell>,
    /// The benchmark's fig1 row (IPC ratios vs. the baseline machine)
    /// serialized exactly as [`crate::figures::fig1`] writes it, or
    /// `ERROR: …`.
    pub fig1_json: String,
}

/// The golden cell list: Figure 1's grid and Slack-Dynamic on the
/// reduced machine, which exercises the run-time disabling machinery.
fn cell_schemes() -> Vec<(Scheme, Machine)> {
    [FIG1_CELLS, &[(Scheme::SlackDynamic, Machine::Reduced)]].concat()
}

/// Computes the digest of one benchmark.
fn golden_row(spec: &mg_workloads::BenchmarkSpec) -> GoldenRow {
    let red = MachineConfig::reduced();
    let mut spec = spec.clone();
    spec.params.target_dyn = GOLDEN_TARGET_DYN;
    let ctx = match BenchContext::builder(&spec, &red).disk_cache(false).build() {
        Ok(ctx) => ctx,
        Err(e) => {
            return GoldenRow {
                bench: spec.name.clone(),
                freqs_hash: String::new(),
                slack_hash: String::new(),
                cells: Vec::new(),
                fig1_json: format!("ERROR: {e}"),
            }
        }
    };
    let freqs_hash = {
        let freqs = &ctx.artifacts.freqs;
        let mut bytes = Vec::with_capacity(freqs.len() * 8);
        for f in freqs {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        format!("{:016x}", stable_hash64(&bytes))
    };
    let slack_hash = format!(
        "{:016x}",
        stable_hash64(format!("{:?}", ctx.artifacts.slack).as_bytes())
    );
    let mut cells = Vec::new();
    let mut ipcs = Vec::new();
    for (scheme, machine) in cell_schemes() {
        let (stats, ipc) = match ctx.prepare(&SweepCell::new(scheme, &machine.config())) {
            Ok(p) => {
                let r = p.simulate();
                let capped = if r.hit_cycle_cap { "CYCLE-CAP: " } else { "" };
                ipcs.push((!r.hit_cycle_cap).then_some(r.ipc()));
                (format!("{capped}{:?}", r.stats), r.ipc())
            }
            Err(e) => {
                ipcs.push(None);
                (format!("ERROR: {e}"), 0.0)
            }
        };
        cells.push(GoldenCell {
            scheme: scheme.name().to_string(),
            machine: machine.tag().to_string(),
            stats,
            ipc_bits: format!("{:016x}", f64::to_bits(ipc)),
        });
    }
    // Fig1 ratios need the first five cells (NoMg/base is the divisor).
    let fig1_json = match (ipcs[0], ipcs[1], ipcs[2], ipcs[3], ipcs[4]) {
        (Some(b), Some(n), Some(sa), Some(sn), Some(sp)) => {
            let row = Fig1Row {
                bench: spec.name.clone(),
                nomg: n / b,
                struct_all: sa / b,
                struct_none: sn / b,
                slack_profile: sp / b,
            };
            serde_json::to_string(&row).expect("fig1 row serializes")
        }
        _ => "ERROR: cell failed".to_string(),
    };
    GoldenRow {
        bench: spec.name.clone(),
        freqs_hash,
        slack_hash,
        cells,
        fig1_json,
    }
}

/// Computes golden rows for the full suite (all 78 benchmarks), in suite
/// order, on `jobs` workers. Row contents are independent of the worker
/// count.
pub fn golden_suite(jobs: usize) -> Vec<GoldenRow> {
    let specs = suite();
    par_map(&specs, jobs, |_, spec| golden_row(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_row_is_deterministic() {
        let spec = suite()
            .into_iter()
            .find(|s| s.name == "mib_crc32")
            .expect("registry entry");
        let a = golden_row(&spec);
        let b = golden_row(&spec);
        assert_eq!(a, b);
        assert_eq!(a.cells.len(), cell_schemes().len());
        assert!(a.cells.iter().all(|c| !c.stats.starts_with("ERROR")));
        assert!(a.fig1_json.contains("\"bench\":\"mib_crc32\""));
    }
}
