//! Shard fan-out scaling: one warmed engine answering a whole query batch,
//! at S = 1 (the unsharded serial baseline) versus S ∈ {2, 4, 8} shards
//! fanned out across scoped threads.
//!
//! Shape target: ≥ 1.5× throughput over S = 1 on a multi-core runner for
//! the batch workload (the acceptance gate of the sharding PR), trending
//! toward the core count while per-shard buckets stay cache-resident —
//! the same Amdahl ceiling as `parallel_scaling`, reached through data
//! parallelism instead of query-range parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_bench::workload::Workload;
use lemp_core::shard::ShardPolicy;
use lemp_core::{Engine, QueryRequest, ShardedLemp, WarmGoal};
use lemp_data::datasets::Dataset;

fn bench_shards(c: &mut Criterion) {
    for (ds, scale) in [(Dataset::Kdd, 0.002), (Dataset::Netflix, 0.004)] {
        let w = Workload::new(ds, scale, 42);
        let mut group = c.benchmark_group(format!("sharded_scaling/{}", w.name));
        for shards in [1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &shards| {
                let mut engine = ShardedLemp::builder()
                    .shards(shards)
                    .policy(ShardPolicy::LengthBanded)
                    .threads(shards)
                    .build(&w.probes);
                engine.warm(&w.queries, WarmGoal::TopK(10));
                let plan = engine.plan(&QueryRequest::top_k(10));
                let mut scratch = engine.query_scratch();
                b.iter(|| engine.execute(&plan, &w.queries, &mut scratch));
            });
        }
        group.finish();
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_shards
}
criterion_main!(benches);
