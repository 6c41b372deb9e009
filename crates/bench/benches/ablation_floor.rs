//! Ablation for the floored Row-Top-k extension: does feeding the score
//! floor into the running threshold `θ′` (pruning) beat running the plain
//! Row-Top-k and filtering afterwards?
//!
//! Shape target: at a loose floor the two are equivalent (the floor never
//! binds); the tighter the floor, the larger the pruning win — a tight
//! floor lets the driver skip whole buckets that the post-filter variant
//! still scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_bench::workload::Workload;
use lemp_core::{Engine, Lemp, LempVariant, QueryRequest, WarmGoal};
use lemp_data::datasets::Dataset;

fn bench_floor(c: &mut Criterion) {
    for (ds, scale) in [(Dataset::IeSvdT, 0.003), (Dataset::Netflix, 0.003)] {
        let w = Workload::new(ds, scale, 42);
        let k = 10;
        // Calibrate floors from the k-th score distribution of one plain run.
        let mut engine = Lemp::builder().variant(LempVariant::LI).build(&w.probes);
        let plain = engine.row_top_k(&w.queries, k);
        let mut kth: Vec<f64> =
            plain.lists.iter().filter_map(|l| l.last().map(|i| i.score)).collect();
        kth.sort_by(f64::total_cmp);
        if kth.is_empty() {
            continue;
        }
        let floors = [
            ("loose-p10", kth[kth.len() / 10]),
            ("median", kth[kth.len() / 2]),
            ("tight-p90", kth[kth.len() * 9 / 10]),
        ];

        // Both arms query one warmed engine, so only retrieval is timed.
        engine.warm(&w.queries, WarmGoal::TopK(k));
        let mut scratch = engine.query_scratch();
        let mut group = c.benchmark_group(format!("ablation_floor/{}", w.name));
        for (label, floor) in floors {
            let floored = engine.plan(&QueryRequest::top_k_with_floor(k, floor));
            group.bench_function(BenchmarkId::from_parameter(format!("prune/{label}")), |b| {
                b.iter(|| engine.execute(&floored, &w.queries, &mut scratch));
            });
            let plain = engine.plan(&QueryRequest::top_k(k));
            group.bench_function(
                BenchmarkId::from_parameter(format!("post-filter/{label}")),
                |b| {
                    b.iter(|| {
                        let mut out = engine.execute(&plain, &w.queries, &mut scratch).into_top_k();
                        for list in &mut out.lists {
                            list.retain(|i| i.score >= floor);
                        }
                        out
                    });
                },
            );
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
    targets = bench_floor
}
criterion_main!(benches);
