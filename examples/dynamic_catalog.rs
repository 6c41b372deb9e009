//! Dynamic catalogs: recommending against a probe set that churns.
//!
//! The paper preprocesses a static item matrix, but a production
//! recommender's catalog changes continuously — titles launch, titles are
//! delisted. This example drives [`DynamicLemp`] through a day of catalog
//! churn: every "hour" some items are removed, new ones are inserted, and
//! the same user cohort is re-queried. Results are cross-checked against a
//! from-scratch engine build each round, and the engine is compacted once
//! fragmentation (undersized buckets from incremental edits) crosses a
//! threshold.
//!
//! Run with: `cargo run --release --example dynamic_catalog`
//!
//! [`DynamicLemp`]: lemp::core::dynamic::DynamicLemp

use lemp::baselines::types::{canonical_pairs, topk_equivalent};
use lemp::core::dynamic::DynamicLemp;
use lemp::core::{RunConfig, WarmGoal};
use lemp::data::datasets::Dataset;
use lemp::{BucketPolicy, Engine, Lemp, QueryRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let spec = Dataset::Kdd.spec().scaled(0.002);
    let (users, items) = spec.generate(7);
    let k = 5;
    let mut rng = StdRng::seed_from_u64(99);

    let mut engine = DynamicLemp::new(&items, BucketPolicy::default(), RunConfig::default());
    // Warm once: every edit below re-indexes the buckets it touches, so the
    // engine stays warm and queries never build indexes.
    engine.warm(&users, WarmGoal::TopK(k));
    let mut scratch = engine.query_scratch();
    println!(
        "catalog: {} items (r = {}), cohort: {} users, top-{k} per user\n",
        engine.len(),
        engine.dim(),
        users.len()
    );

    for hour in 1..=8 {
        // Churn: delist ~3% of live items, launch ~4% new ones.
        let mut removed = 0;
        let target = engine.len() * 3 / 100;
        while removed < target {
            let id = rng.random_range(0..engine.next_id());
            if engine.remove(id) {
                removed += 1;
            }
        }
        let launches = engine.len() * 4 / 100;
        for _ in 0..launches {
            let item: Vec<f64> = (0..engine.dim())
                .map(|_| 0.4 * lemp::data::rng::standard_normal(&mut rng))
                .collect();
            engine.insert(&item).expect("valid item vector");
        }

        // Query the live catalog.
        let top = engine.run(&QueryRequest::top_k(k), &users, &mut scratch).into_top_k();
        let answered = top.lists.iter().filter(|l| !l.is_empty()).count();

        // Cross-check against a cold build over the same live vectors.
        let (ids, live) = engine.live_vectors();
        let mut cold = Lemp::builder().build(&live);
        let cold_top = cold.row_top_k(&users, k);
        assert!(
            topk_equivalent(&top.lists, &cold_top.lists, 1e-9),
            "hour {hour}: dynamic and cold-build results diverge"
        );
        let cold_above = cold.above_theta(&users, 1.0);
        let mut expected: Vec<(u32, u32)> =
            cold_above.entries.iter().map(|e| (e.query, ids[e.probe as usize])).collect();
        expected.sort_unstable();
        let above = engine.run(&QueryRequest::above_theta(1.0), &users, &mut scratch).into_above();
        assert_eq!(canonical_pairs(&above.entries), expected, "hour {hour}: Above-θ diverges");

        println!(
            "hour {hour}: -{removed} +{launches} items → {} live, {} buckets, \
             fragmentation {:.2}, {answered}/{} users answered",
            engine.len(),
            engine.bucket_count(),
            engine.fragmentation(),
            users.len()
        );

        // Compact when incremental edits have fragmented the bucketization.
        if engine.fragmentation() > 0.3 {
            engine.rebuild();
            println!(
                "        compacted → {} buckets, fragmentation {:.2}",
                engine.bucket_count(),
                engine.fragmentation()
            );
        }
    }

    println!("\nall hourly results matched a cold engine build — maintenance is exact.");
}
