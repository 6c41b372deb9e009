//! Dynamic maintenance costs: edit throughput and the query-time price of
//! incremental bucketization versus a full rebuild.
//!
//! Shape targets: single edits are microseconds (binary search + row
//! splice + index drop) while a rebuild is O(n log n); querying after
//! heavy churn is mildly slower than after a rebuild (fragmented buckets),
//! which `rebuild()` recovers.

use criterion::{criterion_group, criterion_main, Criterion};
use lemp_bench::workload::Workload;
use lemp_core::dynamic::DynamicLemp;
use lemp_core::{BucketPolicy, Engine, QueryRequest, RunConfig, WarmGoal};
use lemp_data::datasets::Dataset;

fn churn(engine: &mut DynamicLemp, rounds: usize) {
    let dim = engine.dim();
    for i in 0..rounds {
        let scale = 10f64.powf((i % 5) as f64 / 2.0 - 1.0);
        let v: Vec<f64> = (0..dim).map(|f| scale * ((i * 7 + f) as f64 * 0.013 - 1.0)).collect();
        let id = engine.insert(&v).expect("valid vector");
        if i % 2 == 1 {
            engine.remove(id / 2);
        }
    }
}

fn bench_edits(c: &mut Criterion) {
    let w = Workload::new(Dataset::Netflix, 0.003, 42);
    let mut group = c.benchmark_group(format!("dynamic_edits/{}", w.name));

    group.bench_function("insert+remove-pair", |b| {
        let mut engine = DynamicLemp::new(&w.probes, BucketPolicy::default(), RunConfig::default());
        let v = vec![0.25; engine.dim()];
        b.iter(|| {
            let id = engine.insert(&v).expect("valid vector");
            engine.remove(id);
        });
    });

    group.bench_function("full-rebuild", |b| {
        let mut engine = DynamicLemp::new(&w.probes, BucketPolicy::default(), RunConfig::default());
        churn(&mut engine, 200);
        b.iter(|| engine.rebuild());
    });

    group.finish();
}

fn bench_query_after_churn(c: &mut Criterion) {
    let w = Workload::new(Dataset::Netflix, 0.003, 42);
    let mut group = c.benchmark_group(format!("dynamic_query/{}", w.name));

    group.bench_function("fragmented", |b| {
        let mut engine = DynamicLemp::new(&w.probes, BucketPolicy::default(), RunConfig::default());
        churn(&mut engine, 500);
        engine.warm(&w.queries, WarmGoal::TopK(10));
        let plan = engine.plan(&QueryRequest::top_k(10));
        let mut scratch = engine.query_scratch();
        b.iter(|| engine.execute(&plan, &w.queries, &mut scratch));
    });

    group.bench_function("compacted", |b| {
        let mut engine = DynamicLemp::new(&w.probes, BucketPolicy::default(), RunConfig::default());
        churn(&mut engine, 500);
        engine.rebuild();
        engine.warm(&w.queries, WarmGoal::TopK(10));
        let plan = engine.plan(&QueryRequest::top_k(10));
        let mut scratch = engine.query_scratch();
        b.iter(|| engine.execute(&plan, &w.queries, &mut scratch));
    });

    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_edits, bench_query_after_churn
}
criterion_main!(benches);
