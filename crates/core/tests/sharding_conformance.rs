//! Differential conformance suite for the sharded engine: for **every**
//! query kind (Row-Top-k, Above-θ, |Above-θ|, floored top-k, each also
//! under adaptive selection) and every shard count `S ∈ {1, 2, 3, 7}`, a
//! [`ShardedLemp`] must agree with the unsharded [`Lemp`] *and* with the
//! naive full scan on the same matrices — under every [`ShardPolicy`], all
//! through the [`Engine`] trait. Exactness across the merge
//! boundary is precisely where sharded systems rot, so the fixtures
//! deliberately include ties at the k-boundary and a θ exactly equal to a
//! score.
//!
//! The k-way merge is additionally pinned down in isolation with property
//! tests (vendored proptest): merged top-k of arbitrary shard-local lists
//! equals the top-k of their concatenation, duplicate global ids are
//! rejected, and `k` beyond the candidate count returns everything.

use lemp_baselines::types::{canonical_pairs, topk_equivalent};
use lemp_baselines::Naive;
use lemp_core::shard::{kway_merge_topk, ShardError, ShardPolicy};
use lemp_core::{AdaptiveConfig, Engine, Lemp, QueryRequest, QueryResponse, ShardedLemp, WarmGoal};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::{ScoredItem, VectorStore};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn policies(n: usize, shards: usize) -> Vec<ShardPolicy> {
    let s = shards as u32;
    vec![
        ShardPolicy::RoundRobin,
        ShardPolicy::LengthBanded,
        // A deterministic but scrambled explicit assignment.
        ShardPolicy::Explicit((0..n as u32).map(|i| (i * 13 + 5) % s).collect()),
    ]
}

fn fixture(m: usize, n: usize, seed: u64) -> (VectorStore, VectorStore) {
    let q = GeneratorConfig::gaussian(m, 8, 1.0).generate(seed);
    let p = GeneratorConfig::gaussian(n, 8, 1.3).generate(seed + 1);
    (q, p)
}

/// Runs one request through the unified query surface with a fresh scratch.
fn run(engine: &dyn Engine, q: &VectorStore, request: QueryRequest) -> QueryResponse {
    engine.run(&request, q, &mut engine.query_scratch())
}

/// Runs all five methods on `(q, p)` through Naive, the unsharded warmed
/// engine, and the sharded engine for every `S` and policy, asserting the
/// three agree. `k`/`theta`/`floor` parameterize the workloads.
fn assert_conformance(q: &VectorStore, p: &VectorStore, k: usize, theta: f64, floor: f64) {
    // Ground truth 1: the naive scan.
    let (naive_topk, _) = Naive.row_top_k(q, p, k);
    let (naive_above, _) = Naive.above_theta(q, p, theta);
    let naive_above = canonical_pairs(&naive_above);

    // Ground truth 2: the unsharded engine through the same surface.
    let mut single = Lemp::builder().sample_size(8).build(p);
    single.warm(q, WarmGoal::TopK(k.max(1)));
    let single_topk = run(&single, q, QueryRequest::top_k(k)).into_top_k();
    let single_above = run(&single, q, QueryRequest::above_theta(theta)).into_above();
    let single_abs = run(&single, q, QueryRequest::abs_above_theta(theta)).into_above();
    let single_floor = run(&single, q, QueryRequest::top_k_with_floor(k, floor)).into_top_k();

    // The unsharded engine itself must match naive (sanity of the truth).
    assert!(topk_equivalent(&single_topk.lists, &naive_topk, 1e-9));
    assert_eq!(canonical_pairs(&single_above.entries), naive_above);

    for shards in SHARD_COUNTS {
        for policy in policies(p.len(), shards) {
            let label = format!("S={shards} policy={policy:?}");
            let mut engine = ShardedLemp::builder()
                .shards(shards)
                .policy(policy)
                .sample_size(8)
                .threads(2)
                .build(p);
            engine.warm(q, WarmGoal::TopK(k.max(1)));
            let mut scratch = engine.query_scratch();
            let mut run = |request: QueryRequest| engine.run(&request, q, &mut scratch);

            // Row-Top-k: score multisets bit-identical to the unsharded
            // engine (both compute dir·p scaled by ‖q‖ on the same bytes),
            // and within 1e-9 of naive (which computes q·p directly).
            let topk = run(QueryRequest::top_k(k)).into_top_k();
            assert!(
                topk_equivalent(&topk.lists, &single_topk.lists, 0.0),
                "{label}: top-k diverges from the unsharded engine"
            );
            assert!(
                topk_equivalent(&topk.lists, &naive_topk, 1e-9),
                "{label}: top-k diverges from naive"
            );

            // Above-θ: the (query, probe) sets are byte-identical across
            // all three engines, and the values are bit-exact.
            let above = run(QueryRequest::above_theta(theta)).into_above();
            assert_eq!(canonical_pairs(&above.entries), naive_above, "{label}: Above-θ diverges");
            for e in &above.entries {
                let v = q.dot_between(e.query as usize, p, e.probe as usize);
                assert_eq!(v.to_bits(), e.value.to_bits(), "{label}: value not bit-exact");
            }

            // |Above-θ|.
            let abs = run(QueryRequest::abs_above_theta(theta)).into_above();
            assert_eq!(
                canonical_pairs(&abs.entries),
                canonical_pairs(&single_abs.entries),
                "{label}: |Above-θ| diverges"
            );

            // Floored top-k.
            let floored = run(QueryRequest::top_k_with_floor(k, floor)).into_top_k();
            assert!(
                topk_equivalent(&floored.lists, &single_floor.lists, 0.0),
                "{label}: floored top-k diverges"
            );
            for list in &floored.lists {
                assert!(list.iter().all(|it| it.score >= floor), "{label}: below-floor entry");
            }

            // Adaptive (bandit) selection: exact results regardless of the
            // arms chosen, learning state in per-shard selectors that the
            // scratch carries from the Above-θ run to the top-k run.
            let acfg = AdaptiveConfig::default();
            let above_a = run(QueryRequest::above_theta(theta).adaptive(acfg)).into_above();
            assert_eq!(
                canonical_pairs(&above_a.entries),
                naive_above,
                "{label}: adaptive Above-θ diverges"
            );
            let topk_a = run(QueryRequest::top_k(k).adaptive(acfg)).into_top_k();
            // The floored adaptive path filters the plain lists exactly.
            let floored_a =
                run(QueryRequest::top_k_with_floor(k, floor).adaptive(acfg)).into_top_k();
            assert!(
                topk_equivalent(&floored_a.lists, &single_floor.lists, 0.0),
                "{label}: adaptive floored top-k diverges"
            );
            assert_eq!(scratch.adaptive_reports().len(), shards, "{label}: one report per shard");
            assert!(
                topk_equivalent(&topk_a.lists, &naive_topk, 1e-9),
                "{label}: adaptive top-k diverges"
            );
        }
    }
}

#[test]
fn all_methods_agree_on_a_generic_workload() {
    let (q, p) = fixture(25, 160, 5000);
    assert_conformance(&q, &p, 5, 1.0, 0.8);
}

#[test]
fn all_methods_agree_on_a_heavy_tailed_workload() {
    // Higher length CoV: bucket pruning and the length-banded policy bite.
    let q = GeneratorConfig::gaussian(20, 8, 2.5).generate(5100);
    let p = GeneratorConfig::gaussian(140, 8, 3.0).generate(5101);
    assert_conformance(&q, &p, 3, 2.0, 1.5);
}

#[test]
fn ties_at_the_k_boundary_are_exact() {
    // Probes with duplicated vectors: the k-th best score ties across
    // several probe ids, so the k-boundary is ambiguous — every engine
    // must retain k entries with *bit-identical* score multisets even
    // though the retained ids may differ.
    let base = GeneratorConfig::gaussian(12, 6, 0.8).generate(5200);
    let mut rows: Vec<Vec<f64>> = (0..base.len()).map(|i| base.vector(i).to_vec()).collect();
    for i in 0..base.len() {
        rows.push(base.vector(i).to_vec()); // every probe twice
        rows.push(base.vector(i).to_vec()); // ...and thrice
    }
    let p = VectorStore::from_rows(&rows).unwrap();
    let q = GeneratorConfig::gaussian(10, 6, 0.8).generate(5201);
    let k = 4; // smaller than a tie class ⇒ the boundary always ties
    assert_conformance(&q, &p, k, 0.9, 0.5);

    // Explicitly split a tie class across shards and check the boundary.
    let (naive_topk, _) = Naive.row_top_k(&q, &p, k);
    let assignment: Vec<u32> = (0..p.len() as u32).map(|i| i % 3).collect();
    let mut engine = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::Explicit(assignment))
        .sample_size(8)
        .build(&p);
    engine.warm(&q, WarmGoal::TopK(k));
    let topk = run(&engine, &q, QueryRequest::top_k(k)).into_top_k();
    assert!(topk_equivalent(&topk.lists, &naive_topk, 1e-9));
    for list in &topk.lists {
        assert_eq!(list.len(), k);
        // The merge's canonical tie order: descending score, then
        // ascending global id.
        for w in list.windows(2) {
            assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id),
                "merged list must be canonically ordered"
            );
        }
    }
}

#[test]
fn theta_exactly_equal_to_a_score_is_inclusive_everywhere() {
    let (q, p) = fixture(15, 90, 5300);
    // θ = an actual inner product of the instance (Above-θ is a ≥ filter,
    // so this pair must be reported by every engine). Pick a mid-range
    // value so the boundary pair is not trivially the maximum.
    let mut values: Vec<f64> = Vec::new();
    for i in 0..q.len() {
        for j in 0..p.len() {
            values.push(q.dot_between(i, &p, j));
        }
    }
    values.sort_by(f64::total_cmp);
    let theta = values[values.len() * 9 / 10];
    assert!(theta > 0.0, "fixture must put the 90th percentile above zero");

    let (naive_above, _) = Naive.above_theta(&q, &p, theta);
    let naive_above = canonical_pairs(&naive_above);
    assert!(
        naive_above.len() >= values.len() / 20,
        "the exact-θ boundary must admit a real result set"
    );

    for shards in SHARD_COUNTS {
        let mut engine = ShardedLemp::builder().shards(shards).sample_size(8).build(&p);
        engine.warm(&q, WarmGoal::Above(theta));
        let above = run(&engine, &q, QueryRequest::above_theta(theta)).into_above();
        assert_eq!(canonical_pairs(&above.entries), naive_above, "S={shards}");
        // The boundary pair itself (value == θ) is present.
        assert!(
            above.entries.iter().any(|e| e.value == theta),
            "S={shards}: the exact-θ entry was dropped at the boundary"
        );
    }
}

#[test]
fn sharded_load_answers_like_the_builder() {
    // Build → save → load → warm → query: the loaded engine conforms too.
    let (q, p) = fixture(15, 100, 5400);
    let engine =
        ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).sample_size(8).build(&p);
    let mut buf = Vec::new();
    engine.write_to(&mut buf).unwrap();
    let mut loaded = ShardedLemp::read_from(&buf[..]).unwrap();
    loaded.warm(&q, WarmGoal::TopK(4));
    let (naive_topk, _) = Naive.row_top_k(&q, &p, 4);
    let topk = run(&loaded, &q, QueryRequest::top_k(4)).into_top_k();
    assert!(topk_equivalent(&topk.lists, &naive_topk, 1e-9));
}

// ---------------------------------------------------------------------------
// Property tests: the k-way merge in isolation.
// ---------------------------------------------------------------------------

/// Strategy: up to 5 shard-local lists over a shared id space, ids unique
/// across *all* lists (a valid partition), scores drawn with deliberate
/// collisions (few distinct values) so ties exercise the canonical order.
fn partitioned_lists() -> impl Strategy<Value = Vec<Vec<ScoredItem>>> {
    (1usize..=5, proptest::collection::vec((0u8..40, 0u8..8), 0..=30)).prop_map(|(nlists, raw)| {
        let mut lists: Vec<Vec<ScoredItem>> = vec![Vec::new(); nlists];
        for (i, (score_bin, route)) in raw.into_iter().enumerate() {
            // Unique id per item; coarse scores force ties.
            lists[(route as usize) % nlists]
                .push(ScoredItem { id: i, score: f64::from(score_bin) * 0.25 });
        }
        lists
    })
}

/// The specification: concatenate, sort by (score desc, id asc), truncate.
fn reference_topk(lists: &[Vec<ScoredItem>], k: usize) -> Vec<ScoredItem> {
    let mut all: Vec<ScoredItem> = lists.iter().flatten().copied().collect();
    all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_equals_topk_of_concatenation(lists in partitioned_lists(), k in 0usize..=12) {
        let expect = reference_topk(&lists, k);
        let got = kway_merge_topk(lists, k).expect("ids are a partition");
        prop_assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g.id, e.id);
            prop_assert_eq!(g.score.to_bits(), e.score.to_bits());
        }
    }

    #[test]
    fn merge_with_k_beyond_total_returns_everything(lists in partitioned_lists()) {
        let total: usize = lists.iter().map(Vec::len).sum();
        let got = kway_merge_topk(lists.clone(), total + 7).expect("ids are a partition");
        prop_assert_eq!(got.len(), total);
        let expect = reference_topk(&lists, total);
        for (g, e) in got.iter().zip(&expect) {
            prop_assert_eq!(g.id, e.id);
        }
    }

    #[test]
    fn merge_rejects_any_duplicated_global_id(
        lists in partitioned_lists(),
        dup_list in 0usize..5,
        k in 1usize..=8,
    ) {
        // Inject a duplicate of an existing id into some list.
        let mut lists = lists;
        let Some(item) = lists.iter().flatten().next().copied() else {
            return Ok(()); // nothing to duplicate
        };
        let target = dup_list % lists.len();
        lists[target].push(item);
        prop_assert_eq!(kway_merge_topk(lists, k), Err(ShardError::DuplicateGlobalId(item.id)));
    }
}

// ---------------------------------------------------------------------------
// Property tests: routed edits — placement determinism across rebuilds and
// differential conformance against the unsharded dynamic engine under
// arbitrary insert/remove/rebuild interleavings.
// ---------------------------------------------------------------------------

/// One step of an edit script. `Insert` carries a seed for a deterministic
/// vector; `Remove` selects the r-th live id at apply time (so scripts
/// stay valid however earlier steps reshaped the engine).
#[derive(Debug, Clone)]
enum Edit {
    Insert(u64),
    Remove(usize),
    Rebuild,
}

fn edit_script() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0u64..1000).prop_map(Edit::Insert),
            2 => (0usize..64).prop_map(Edit::Remove),
            1 => Just(Edit::Rebuild),
        ],
        0..=24,
    )
}

/// Deterministic insert vector with varied length so the banded policy
/// routes non-trivially.
fn edit_vector(seed: u64) -> Vec<f64> {
    (0..6u64).map(|i| ((seed * 31 + i * 7) % 13) as f64 * 0.25 - 0.75).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn routed_edit_scripts_match_the_unsharded_dynamic_engine(
        script in edit_script(),
        shards in 1usize..=4,
        banded in 0u8..2,
        seed in 0u64..4,
    ) {
        use lemp_core::{BucketPolicy, DynamicLemp, RunConfig};
        let p = GeneratorConfig::gaussian(40, 6, 1.2).generate(6000 + seed);
        let q = GeneratorConfig::gaussian(10, 6, 1.0).generate(6100 + seed);
        let policy =
            if banded == 1 { ShardPolicy::LengthBanded } else { ShardPolicy::RoundRobin };
        let mut sharded =
            ShardedLemp::builder().shards(shards).policy(policy).sample_size(8).build(&p);
        let bucket_policy = BucketPolicy { min_bucket: 8, ..Default::default() };
        let run_config = RunConfig { sample_size: 8, ..Default::default() };
        let mut single = DynamicLemp::new(&p, bucket_policy, run_config);

        for edit in &script {
            match edit {
                Edit::Insert(s) => {
                    let v = edit_vector(*s);
                    // Routing is deterministic: the preview pins (id, shard)
                    // before the edit, and the edit lands exactly there.
                    let (id, owner) = sharded.route_insert(&v);
                    prop_assert_eq!(sharded.insert(&v).unwrap(), id);
                    prop_assert_eq!(sharded.owner_of(id), Some(owner));
                    let single_id = single.insert(&v).unwrap();
                    prop_assert_eq!(single_id, id, "id allocation diverged from unsharded");
                }
                Edit::Remove(r) => {
                    let (ids, _) = sharded.live_vectors();
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[r % ids.len()];
                    prop_assert!(sharded.remove(id));
                    prop_assert!(single.remove(id));
                }
                Edit::Rebuild => {
                    // Placement survives rebuilds: every live id keeps its
                    // owner, so routing stays a pure function of the id
                    // space, never of bucket layout.
                    let owners: Vec<(u32, Option<usize>)> = {
                        let (ids, _) = sharded.live_vectors();
                        ids.iter().map(|&id| (id, sharded.owner_of(id))).collect()
                    };
                    sharded.rebuild();
                    single.rebuild();
                    for (id, owner) in owners {
                        prop_assert_eq!(sharded.owner_of(id), owner, "rebuild moved id {}", id);
                    }
                }
            }
        }

        // Differential conformance after the whole script: bit-identical
        // answers (tolerance 0.0) for both query kinds.
        sharded.warm(&q, WarmGoal::TopK(4));
        single.warm(&q, WarmGoal::TopK(4));
        let topk = run(&sharded, &q, QueryRequest::top_k(4)).into_top_k();
        let expect = run(&single, &q, QueryRequest::top_k(4)).into_top_k();
        prop_assert!(
            topk_equivalent(&topk.lists, &expect.lists, 0.0),
            "top-k diverged from the unsharded dynamic engine"
        );
        let above = run(&sharded, &q, QueryRequest::above_theta(0.9)).into_above();
        let expect = run(&single, &q, QueryRequest::above_theta(0.9)).into_above();
        prop_assert_eq!(canonical_pairs(&above.entries), canonical_pairs(&expect.entries));
    }
}
