//! Property-based integration tests for dynamic probe maintenance: any
//! edit script leaves the engine exactly equivalent to a fresh build over
//! the surviving vectors, for both problems and across variants.

use lemp::baselines::types::{canonical_pairs, topk_equivalent};
use lemp::baselines::Naive;
use lemp::core::dynamic::DynamicLemp;
use lemp::core::RunConfig;
use lemp::core::WarmGoal;
use lemp::linalg::VectorStore;
use lemp::{BucketPolicy, Engine, LempVariant, QueryRequest, QueryResponse};
use proptest::prelude::*;

/// Runs `request` on a warmed dynamic engine with a fresh scratch.
fn run(engine: &DynamicLemp, queries: &VectorStore, request: QueryRequest) -> QueryResponse {
    engine.run(&request, queries, &mut engine.query_scratch())
}

/// One edit: insert a vector (length scale spread over three decades to
/// exercise all routing branches) or remove an id that may or may not be
/// live.
#[derive(Debug, Clone)]
enum Edit {
    Insert(Vec<f64>),
    Remove(u32),
}

fn edit_strategy(dim: usize) -> impl Strategy<Value = Edit> {
    prop_oneof![
        3 => (
            proptest::collection::vec(-1.0f64..1.0, dim),
            -2.0f64..2.0, // log10 length scale
        )
            .prop_map(|(mut v, log_scale)| {
                let s = 10f64.powf(log_scale);
                for x in &mut v {
                    *x *= s;
                }
                Edit::Insert(v)
            }),
        2 => (0u32..200).prop_map(Edit::Remove),
    ]
}

/// The surviving `(stable id, vector)` mirror an edit script produces.
fn apply_mirror(initial: &VectorStore, edits: &[Edit]) -> (Vec<u32>, VectorStore) {
    let mut alive: Vec<(u32, Vec<f64>)> =
        (0..initial.len()).map(|i| (i as u32, initial.vector(i).to_vec())).collect();
    let mut next_id = initial.len() as u32;
    for edit in edits {
        match edit {
            Edit::Insert(v) => {
                alive.push((next_id, v.clone()));
                next_id += 1;
            }
            Edit::Remove(id) => {
                alive.retain(|(a, _)| a != id);
            }
        }
    }
    let ids: Vec<u32> = alive.iter().map(|(id, _)| *id).collect();
    let rows: Vec<Vec<f64>> = alive.iter().map(|(_, v)| v.clone()).collect();
    let store = if rows.is_empty() {
        VectorStore::empty(initial.dim()).expect("dim > 0")
    } else {
        VectorStore::from_rows(&rows).expect("mirror rows are valid")
    };
    (ids, store)
}

fn small_store(dim: usize, n: usize, seed: u64) -> VectorStore {
    // Deterministic pseudo-random content without pulling a generator dep:
    // a simple LCG spread over [-2, 2] with varying row scales.
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let scale = 10f64.powf((i % 5) as f64 - 2.0);
            (0..dim).map(|_| scale * next()).collect()
        })
        .collect();
    VectorStore::from_rows(&rows).expect("valid rows")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn edit_scripts_match_fresh_builds(
        n_initial in 1usize..60,
        dim in 1usize..6,
        edits in proptest::collection::vec(edit_strategy(4), 0..40),
        seed in 0u64..1000,
    ) {
        // Fix the edit dim to the sampled dim.
        let edits: Vec<Edit> = edits
            .into_iter()
            .map(|e| match e {
                Edit::Insert(v) => {
                    let mut v = v;
                    v.resize(dim, 0.25);
                    Edit::Insert(v)
                }
                other => other,
            })
            .collect();
        let initial = small_store(dim, n_initial, seed);
        let policy = BucketPolicy { min_bucket: 4, cache_bytes: 32 << 10, ..Default::default() };
        let config = RunConfig { sample_size: 4, ..Default::default() };
        let mut engine = DynamicLemp::new(&initial, policy, config);
        for edit in &edits {
            match edit {
                Edit::Insert(v) => {
                    engine.insert(v).expect("valid insert");
                }
                Edit::Remove(id) => {
                    let was_live = engine.contains(*id);
                    prop_assert_eq!(engine.remove(*id), was_live);
                }
            }
        }

        let (ids, mirror) = apply_mirror(&initial, &edits);
        prop_assert_eq!(engine.len(), mirror.len());

        // Warming after the script tunes the edited layout; the rebuild
        // below keeps the engine warm.
        let queries = small_store(dim, 8, seed + 1);
        let theta = 0.4;
        engine.warm(&queries, WarmGoal::Above(theta));
        let got = run(&engine, &queries, QueryRequest::above_theta(theta)).into_above();
        let (expect, _) = Naive.above_theta(&queries, &mirror, theta);
        let expect_pairs: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> =
                expect.iter().map(|e| (e.query, ids[e.probe as usize])).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(canonical_pairs(&got.entries), expect_pairs);

        let k = 3;
        let got = run(&engine, &queries, QueryRequest::top_k(k)).into_top_k();
        let (expect, _) = Naive.row_top_k(&queries, &mirror, k);
        prop_assert!(topk_equivalent(&got.lists, &expect, 1e-9));

        // Rebuild must not change anything either.
        engine.rebuild();
        let got = run(&engine, &queries, QueryRequest::top_k(k)).into_top_k();
        prop_assert!(topk_equivalent(&got.lists, &expect, 1e-9));
    }
}

#[test]
fn heavy_churn_with_every_variant_stays_exact() {
    let initial = small_store(6, 80, 3);
    let queries = small_store(6, 12, 4);
    for variant in LempVariant::all() {
        if variant.is_approximate() {
            continue;
        }
        let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
        let config = RunConfig { variant, sample_size: 4, ..Default::default() };
        let mut engine = DynamicLemp::new(&initial, policy, config);
        engine.warm(&queries, WarmGoal::Above(0.8));
        // interleave queries with edits: each edit must re-index the
        // buckets it touched before the next query reads them
        for round in 0..4u64 {
            for i in 0..10 {
                engine.remove((round * 13 + i * 7) as u32 % engine.next_id());
            }
            for i in 0..10 {
                let scale = 10f64.powf((i % 3) as f64 - 1.0);
                let v: Vec<f64> = (0..6).map(|f| scale * ((i + f) as f64 * 0.37 - 1.0)).collect();
                engine.insert(&v).unwrap();
            }
            let (ids, mirror) = engine.live_vectors();
            let got = run(&engine, &queries, QueryRequest::above_theta(0.8)).into_above();
            let (expect, _) = Naive.above_theta(&queries, &mirror, 0.8);
            let expect_pairs: Vec<(u32, u32)> = {
                let mut v: Vec<(u32, u32)> =
                    expect.iter().map(|e| (e.query, ids[e.probe as usize])).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(
                canonical_pairs(&got.entries),
                expect_pairs,
                "{} diverged in round {round}",
                variant.name()
            );
        }
    }
}

#[test]
fn interleaved_queries_see_each_edit_immediately() {
    let initial = small_store(4, 20, 9);
    let queries = small_store(4, 5, 10);
    let mut engine = DynamicLemp::new(&initial, BucketPolicy::default(), RunConfig::default());
    engine.warm(&queries, WarmGoal::TopK(1));
    let top1 = QueryRequest::top_k(1);
    let before = run(&engine, &queries, top1).into_top_k();
    // Insert a vector that dominates every query's top-1 by sheer length.
    let id = engine.insert(&[1e4, 1e4, 1e4, 1e4]).unwrap();
    let after = run(&engine, &queries, top1).into_top_k();
    for (q, (b, a)) in before.lists.iter().zip(&after.lists).enumerate() {
        assert!(
            a[0].id == id as usize || a[0].score >= b[0].score,
            "query {q} missed the dominating insert"
        );
    }
    // Remove it again: results return to the originals.
    engine.remove(id);
    let restored = run(&engine, &queries, top1).into_top_k();
    assert!(topk_equivalent(&restored.lists, &before.lists, 1e-9));
}
