//! Property tests for [`DynamicLemp`] edit sequences: arbitrary
//! insert/remove/rebuild interleavings must leave an engine that (a)
//! upholds both bucket-maintenance invariants, (b) reports exactly the
//! live set an independent oracle tracked, and (c) answers queries
//! **bit-identically** to an engine built from scratch over the same live
//! vectors.
//!
//! Property (c) is what makes this suite double as the WAL-replay oracle
//! of `lemp-store`: recovery replays an edit sequence onto a snapshot, so
//! "any edit sequence ≡ from-scratch build over its live set" is exactly
//! the guarantee that recovered engines answer like never-crashed ones.

use lemp_core::{BucketPolicy, DynamicLemp, Engine, QueryRequest, QueryResponse, RunConfig};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::VectorStore;
use proptest::prelude::*;

const DIM: usize = 3;

fn policy() -> BucketPolicy {
    BucketPolicy { min_bucket: 4, cache_bytes: 16 << 10, ..Default::default() }
}

fn config() -> RunConfig {
    RunConfig { sample_size: 4, ..Default::default() }
}

fn initial(rows: usize) -> VectorStore {
    if rows == 0 {
        VectorStore::empty(DIM).expect("dim > 0")
    } else {
        GeneratorConfig::gaussian(rows, DIM, 1.0).generate(4700)
    }
}

/// Warms `engine` on `queries` for the current layout and runs `request`.
fn run(engine: &mut DynamicLemp, queries: &VectorStore, request: QueryRequest) -> QueryResponse {
    engine.warm(queries, request.kind.warm_goal());
    engine.run(&request, queries, &mut engine.query_scratch())
}

/// Bucket-maintenance invariants (within-bucket order, partitioned length
/// axis, unique live ids), checked through the public inspection surface.
fn check_invariants(engine: &DynamicLemp) {
    let mut prev_min = f64::INFINITY;
    let mut seen = std::collections::BTreeSet::new();
    for bucket in engine.buckets().buckets() {
        assert!(!bucket.ids.is_empty(), "empty bucket retained");
        assert!(bucket.max_len <= prev_min, "inter-bucket order broken");
        assert_eq!(bucket.lengths[0].to_bits(), bucket.max_len.to_bits());
        assert_eq!(bucket.lengths[bucket.ids.len() - 1].to_bits(), bucket.min_len.to_bits());
        for w in bucket.lengths.windows(2) {
            assert!(w[0] >= w[1], "within-bucket order broken");
        }
        for &id in &bucket.ids {
            assert!(engine.contains(id), "dead id {id} in a bucket");
            assert!(seen.insert(id), "id {id} in two buckets");
        }
        prev_min = bucket.min_len;
    }
    assert_eq!(seen.len(), engine.len(), "live count disagrees with bucket contents");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_edit_scripts_match_a_from_scratch_build(
        init in 0usize..=30,
        ops in proptest::collection::vec(
            (
                0u8..10,                                   // 0-4 insert, 5-8 remove, 9 rebuild
                proptest::collection::vec(-2.0f64..2.0, DIM),
                0u64..1_000_000,                           // live-id selector for removals
                -2.0f64..2.0,                              // log10 length scale for inserts
            ),
            1..=40,
        ),
    ) {
        let probes = initial(init);
        let mut engine = DynamicLemp::new(&probes, policy(), config());
        // The oracle: id → vector while live (ids are dense from 0).
        let mut oracle: Vec<Option<Vec<f64>>> =
            (0..init).map(|i| Some(probes.vector(i).to_vec())).collect();

        for (kind, coords, selector, log_scale) in &ops {
            let live: Vec<u32> = oracle
                .iter()
                .enumerate()
                .filter_map(|(id, v)| v.as_ref().map(|_| id as u32))
                .collect();
            if *kind < 5 || live.is_empty() {
                let scale = 10f64.powf(*log_scale);
                let v: Vec<f64> = coords.iter().map(|x| x * scale).collect();
                let id = engine.insert(&v).expect("valid insert");
                prop_assert_eq!(id as usize, oracle.len(), "ids must stay dense");
                oracle.push(Some(v));
            } else if *kind < 9 {
                let id = live[(*selector as usize) % live.len()];
                prop_assert!(engine.remove(id), "live id {} must remove", id);
                oracle[id as usize] = None;
            } else {
                engine.rebuild();
            }
        }
        check_invariants(&engine);

        // (b) The live set matches the oracle exactly, bit for bit.
        let (ids, live_store) = engine.live_vectors();
        let expect_ids: Vec<u32> = oracle
            .iter()
            .enumerate()
            .filter_map(|(id, v)| v.as_ref().map(|_| id as u32))
            .collect();
        prop_assert_eq!(&ids, &expect_ids);
        for (row, &id) in ids.iter().enumerate() {
            let expect = oracle[id as usize].as_ref().expect("listed ids are live");
            prop_assert_eq!(live_store.vector(row), &expect[..], "vector of id {} mutated", id);
        }

        // (c) Queries answer bit-identically to a from-scratch build over
        // the same live vectors (fresh ids are 0..n in ascending stable-id
        // order, so `ids` maps them back).
        let queries = GeneratorConfig::gaussian(8, DIM, 1.0).generate(4701);
        let mut fresh = DynamicLemp::new(&live_store, policy(), config());
        let theta = 1.0;
        let got: Vec<(u32, u32, u64)> = {
            let out = run(&mut engine, &queries, QueryRequest::above_theta(theta)).into_above();
            let mut v: Vec<(u32, u32, u64)> =
                out.entries.iter().map(|e| (e.query, e.probe, e.value.to_bits())).collect();
            v.sort_unstable();
            v
        };
        let expect: Vec<(u32, u32, u64)> = {
            let out = run(&mut fresh, &queries, QueryRequest::above_theta(theta)).into_above();
            let mut v: Vec<(u32, u32, u64)> = out
                .entries
                .iter()
                .map(|e| (e.query, ids[e.probe as usize], e.value.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(got, expect, "Above-θ diverges from the from-scratch build");

        let k = 3;
        let edited_topk = run(&mut engine, &queries, QueryRequest::top_k(k)).into_top_k();
        let fresh_topk = run(&mut fresh, &queries, QueryRequest::top_k(k)).into_top_k();
        prop_assert!(
            lemp_baselines::types::topk_equivalent(&edited_topk.lists, &fresh_topk.lists, 0.0),
            "Row-Top-k scores diverge from the from-scratch build"
        );
    }
}
