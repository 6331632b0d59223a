//! End-to-end criterion benchmark of the timing engine: one full
//! `simulate` call per iteration over prepared fig1-style cells, with
//! throughput reported in simulated cycles per second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mg_bench::{BenchContext, Scheme, SweepCell};
use mg_sim::MachineConfig;
use mg_workloads::benchmark;

fn simulate_end_to_end(c: &mut Criterion) {
    let base = MachineConfig::baseline();
    let red = MachineConfig::reduced();
    let mut spec = benchmark("mib_crc32").expect("registry entry");
    spec.params.target_dyn = 30_000;
    let ctx = BenchContext::builder(&spec, &red)
        .disk_cache(false)
        .build()
        .expect("context builds");

    let cells = [
        ("nomg-base", Scheme::NoMg, &base),
        ("nomg-red", Scheme::NoMg, &red),
        ("structall-red", Scheme::StructAll, &red),
        ("slackprofile-red", Scheme::SlackProfile, &red),
        ("slackdynamic-red", Scheme::SlackDynamic, &red),
    ];

    let mut g = c.benchmark_group("simulate");
    for (name, scheme, machine) in cells {
        let prepared = ctx
            .prepare(&SweepCell::new(scheme, machine))
            .expect("cell prepares");
        let cycles = prepared.simulate().stats.cycles;
        g.throughput(Throughput::Elements(cycles));
        g.bench_function(name, |b| b.iter(|| prepared.simulate().stats.cycles));
    }
    g.finish();
}

criterion_group!(benches, simulate_end_to_end);
criterion_main!(benches);
