//! Criterion micro/meso-benchmarks of the reproduction's components:
//! functional execution, timing simulation (with and without
//! mini-graphs), candidate enumeration, greedy selection, slack
//! profiling, and the branch predictor / cache models.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mg_bench::{BenchContext, Scheme::*, SweepCell};
use mg_core::candidate::{enumerate, SelectionConfig};
use mg_core::select::greedy_select;
use mg_sim::bpred::DirectionPredictor;
use mg_sim::cache::Cache;
use mg_sim::{BPredConfig, CacheConfig, MachineConfig};
use mg_workloads::{benchmark, Executor};

fn bench_workload() -> mg_workloads::Workload {
    let mut spec = benchmark("mib_crc32").expect("registry entry");
    spec.params.target_dyn = 30_000;
    spec.generate()
}

fn functional_execution(c: &mut Criterion) {
    let w = bench_workload();
    let (trace, _) = Executor::new(&w.program).run_with_mem(&w.init_mem).unwrap();
    let mut g = c.benchmark_group("functional");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("execute", |b| {
        b.iter(|| {
            Executor::new(&w.program)
                .run_with_mem(&w.init_mem)
                .unwrap()
                .0
                .len()
        })
    });
    g.finish();
}

fn timing_simulation(c: &mut Criterion) {
    let red = MachineConfig::reduced();
    let mut spec = benchmark("mib_crc32").expect("registry entry");
    spec.params.target_dyn = 30_000;
    let ctx = BenchContext::builder(&spec, &red)
        .disk_cache(false)
        .build()
        .expect("context builds");
    let [singleton, with_mg, mut profiling] = [NoMg, SlackProfile, NoMg].map(|s| {
        ctx.prepare(&SweepCell::new(s, &red))
            .expect("cell prepares")
    });
    profiling.opts.profile_slack = true;

    let mut g = c.benchmark_group("timing");
    g.throughput(Throughput::Elements(ctx.artifacts.trace.len() as u64));
    g.bench_function("singleton", |b| {
        b.iter(|| singleton.simulate().stats.cycles)
    });
    g.bench_function("with-minigraphs", |b| {
        b.iter(|| with_mg.simulate().stats.cycles)
    });
    g.bench_function("slack-profiling", |b| {
        b.iter(|| profiling.simulate().slack.unwrap().per_static.len())
    });
    g.finish();
}

fn selection(c: &mut Criterion) {
    let w = bench_workload();
    let (trace, _) = Executor::new(&w.program).run_with_mem(&w.init_mem).unwrap();
    let freqs = trace.static_freqs(&w.program);
    let cfg = SelectionConfig::default();
    let pool = enumerate(&w.program, &cfg);

    let mut g = c.benchmark_group("selection");
    g.bench_function("enumerate", |b| {
        b.iter(|| enumerate(&w.program, &cfg).len())
    });
    g.bench_function("greedy", |b| {
        b.iter_batched(
            || pool.clone(),
            |p| greedy_select(&w.program, &p, &freqs, &cfg).chosen.len(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn predictors_and_caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro");
    g.bench_function("bpred-predict-train", |b| {
        let mut p = DirectionPredictor::new(&BPredConfig::paper());
        let mut x = 0x1234_5678u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.predict_and_train(x & 0xffff, x & (1 << 40) != 0)
        })
    });
    g.bench_function("cache-access", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_bytes: 64,
            hit_lat: 3,
        });
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(8) & 0xf_ffff;
            cache.access(x)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    functional_execution,
    timing_simulation,
    selection,
    predictors_and_caches
);
criterion_main!(benches);
