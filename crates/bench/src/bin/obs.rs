//! Observability driver: runs one benchmark with the pipeline observer
//! attached and dumps everything it produced — the trace dump record
//! `results/OBS_<bench>.mgb`, a Konata-style text pipeview of the run's
//! tail, the per-slot stall-attribution table, and the queue-occupancy
//! summary.
//!
//! Usage: `obs [BENCH] [SCHEME] [TARGET_DYN]`
//!
//! * `BENCH` — benchmark name from the suite (default `mib_crc32`)
//! * `SCHEME` — scheme display name, e.g. `Struct-All`, `no-minigraphs`,
//!   `Slack-Profile` (default `Struct-All`)
//! * `TARGET_DYN` — dynamic-instruction target (default 30000)
//!
//! `export_json results/OBS_<bench>.mgb` renders the record's JSON
//! debug view as `results/OBS_<bench>.json`.
//!
//! Only built with `--features obs`; without the feature the simulator
//! carries no instrumentation. The process exits non-zero if the dump
//! written does not decode back as the typed section it was written
//! from, or if the stall attribution fails its conservation check
//! (every issue-slot cycle charged exactly once) — CI's `obs-smoke` job
//! relies on both.

#[cfg(feature = "obs")]
fn main() {
    use mg_bench::binfmt::{self, RecordKind};
    use mg_bench::harness::ObsSection;
    use mg_bench::{machine_fingerprint, save_bin, BenchContext, Envelope, Scheme, SCHEMA_VERSION};
    use mg_sim::MachineConfig;
    use mg_workloads::suite;

    mg_bench::Config::init_cli();
    let positional: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = positional.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {flag:?}; usage: obs [BENCH] [SCHEME] [TARGET_DYN]");
        std::process::exit(2);
    }
    let bench = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "mib_crc32".into());
    let scheme_name = positional
        .get(1)
        .cloned()
        .unwrap_or_else(|| "Struct-All".into());
    let target_dyn: usize = positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);

    let Some(mut spec) = suite().into_iter().find(|s| s.name == bench) else {
        eprintln!("unknown benchmark {bench:?}; names look like mib_crc32, spec_mcf");
        std::process::exit(2);
    };
    let Some(scheme) = Scheme::from_name(&scheme_name) else {
        let names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        eprintln!(
            "unknown scheme {scheme_name:?}; one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    spec.params.target_dyn = target_dyn;

    let red = MachineConfig::reduced();
    let ctx = match BenchContext::builder(&spec, &red).build() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("context build failed: {e}");
            std::process::exit(1);
        }
    };
    let run = ctx
        .prepare(&mg_bench::SweepCell::new(scheme, &red))
        .and_then(|mut p| {
            p.opts.obs = Some(mg_sim::ObsConfig::default());
            let r = p.simulate();
            Ok((p.row(&r)?, r.obs.expect("an observed run returns a report")))
        });
    let (run, report) = match run {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("instrumented run failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{} under {}: {} cycles, IPC {:.3}, coverage {:.3}",
        spec.name,
        scheme.name(),
        run.cycles,
        run.ipc,
        run.coverage
    );

    let (lo, hi) = report.tail_window(64);
    println!("\npipeview, cycles [{lo}, {hi}):");
    print!("{}", report.pipeview(lo, hi));
    if report.trace_dropped > 0 {
        println!(
            "({} earlier ops fell out of the {}-entry trace ring)",
            report.trace_dropped,
            report.trace.len()
        );
    }

    println!("\nstall attribution over {} cycles:", report.cycles);
    print!("{}", report.stalls.render());

    let occ = &report.occupancy;
    println!("\noccupancy (mean / p95 / %full):");
    for (name, h) in [
        ("iq", &occ.iq),
        ("rob", &occ.rob),
        ("lq", &occ.lq),
        ("sq", &occ.sq),
    ] {
        println!(
            "  {:<4} {:>7.2} {:>5} {:>6.1}%",
            name,
            h.mean(),
            h.quantile(0.95),
            100.0 * h.frac_full()
        );
    }

    let section = ObsSection::new(&spec.name, scheme, report);
    let path = save_bin(&format!("OBS_{}", spec.name), RecordKind::ObsDump, &section);
    println!("\ntrace dump written to {}", path.display());

    // Read the canonical artifact back through a typed decode: every
    // field present with its declared type, enums in range, and the
    // values equal to the section that was written.
    let written = std::fs::read(&path).expect("read back trace dump");
    match binfmt::from_record::<Envelope<ObsSection>>(&written, RecordKind::ObsDump, SCHEMA_VERSION)
    {
        Ok(back)
            if back.schema_version == SCHEMA_VERSION
                && back.machine_fingerprint == machine_fingerprint()
                && back.rows == section =>
        {
            println!("trace dump decodes as the typed section it was written from")
        }
        Ok(_) => {
            eprintln!("trace dump decodes but differs from the section written");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("trace dump does not decode as a typed section: {e}");
            std::process::exit(1);
        }
    }

    if !section.conservation_ok() {
        eprintln!("stall attribution FAILED conservation: slot counts do not sum to cycles");
        std::process::exit(1);
    }
    println!("stall attribution conserves cycles: ok");
}

#[cfg(not(feature = "obs"))]
fn main() {
    eprintln!("the obs driver needs the observer compiled in: rerun with --features obs");
    std::process::exit(2);
}
