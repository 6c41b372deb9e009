//! **Sec. 4.4 outlook** as a criterion bench: sample-based tuning vs
//! online bandit selection ("some form of reinforcement learning").
//!
//! Shape target: all selection strategies produce identical (exact)
//! results and land in the same time regime. Every arm queries one warmed
//! engine, so only retrieval is timed: the tuner paid its cost at warm-up,
//! the bandits pay per-pair timing overhead plus exploration (each
//! iteration starts from a fresh learning state).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_bench::workload::Workload;
use lemp_core::{AdaptiveConfig, BanditPolicy, Engine, Lemp, LempVariant, QueryRequest, WarmGoal};
use lemp_data::datasets::Dataset;

fn bench_adaptive(c: &mut Criterion) {
    for (ds, scale) in [(Dataset::IeSvdT, 0.003), (Dataset::Netflix, 0.003)] {
        let w = Workload::new(ds, scale, 42);
        let k = 10;
        let mut engine = Lemp::builder().variant(LempVariant::LI).build(&w.probes);
        engine.warm(&w.queries, WarmGoal::TopK(k));
        let mut group = c.benchmark_group(format!("adaptive_selection/{}", w.name));
        group.bench_function(BenchmarkId::from_parameter("tuned-LI"), |b| {
            let plan = engine.plan(&QueryRequest::top_k(k));
            let mut scratch = engine.query_scratch();
            b.iter(|| engine.execute(&plan, &w.queries, &mut scratch));
        });
        for (label, policy) in [
            ("ucb1", BanditPolicy::Ucb1 { c: 1.0 }),
            ("eps-greedy", BanditPolicy::EpsilonGreedy { epsilon: 0.1, seed: 7 }),
        ] {
            let acfg = AdaptiveConfig { policy, ..Default::default() };
            let plan = engine.plan(&QueryRequest::top_k(k).adaptive(acfg));
            group.bench_function(BenchmarkId::from_parameter(label), |b| {
                b.iter(|| engine.execute(&plan, &w.queries, &mut engine.query_scratch()));
            });
        }
        group.finish();
    }
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
    targets = bench_adaptive
}
criterion_main!(benches);
