//! Concurrent correctness of the warmed, `&self`-shareable query path.
//!
//! One engine is warmed once and then shared (a plain `&dyn Engine`, no
//! locking) by many threads running interleaved Row-Top-k and Above-θ
//! calls; every result must be identical to the single-threaded one-shot
//! run. This is the invariant `lemp-serve` builds on: after `warm`, the hot
//! path only reads the engine, so the retrieval phase is embarrassingly
//! parallel across requests (the paper runs single-threaded only as an
//! experimental control, Sec. 6).

use lemp_baselines::types::{canonical_pairs, topk_equivalent, Entry, TopKLists};
use lemp_baselines::Naive;
use lemp_core::shard::ShardPolicy;
use lemp_core::{AdaptiveConfig, BucketPolicy, Engine, QueryRequest, QueryResponse, ShardedLemp};
use lemp_core::{DynamicLemp, Lemp, LempVariant, RunConfig, WarmGoal};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::VectorStore;

fn fixture(m: usize, n: usize, seed: u64) -> (VectorStore, VectorStore) {
    let q = GeneratorConfig::gaussian(m, 10, 1.0).generate(seed);
    let p = GeneratorConfig::gaussian(n, 10, 1.2).generate(seed + 1);
    (q, p)
}

/// Runs one request with a fresh scratch.
fn run(engine: &dyn Engine, q: &VectorStore, request: QueryRequest) -> QueryResponse {
    engine.run(&request, q, &mut engine.query_scratch())
}

/// Naive |Above-θ|: the entries of `q` and of `−q` above `theta`.
fn naive_abs(q: &VectorStore, p: &VectorStore, theta: f64) -> Vec<Entry> {
    let (mut entries, _) = Naive.above_theta(q, p, theta);
    let (below, _) = Naive.above_theta(&q.negated(), p, theta);
    entries.extend(below.iter().map(|e| Entry { value: -e.value, ..*e }));
    entries
}

/// Naive floored Row-Top-k: the plain lists filtered by the floor.
fn naive_floored(q: &VectorStore, p: &VectorStore, k: usize, floor: f64) -> TopKLists {
    let (lists, _) = Naive.row_top_k(q, p, k);
    lists.into_iter().map(|l| l.into_iter().filter(|it| it.score >= floor).collect()).collect()
}

#[test]
fn warm_then_shared_matches_mut_paths() {
    let (q, p) = fixture(50, 400, 9000);
    for variant in LempVariant::all() {
        if variant.is_approximate() {
            continue;
        }
        let mut reference = Lemp::builder().variant(variant).sample_size(8).build(&p);
        let above_expect = reference.above_theta(&q, 1.1);
        let topk_expect = reference.row_top_k(&q, 5);

        let mut engine = Lemp::builder().variant(variant).sample_size(8).build(&p);
        let report = engine.warm(&q, WarmGoal::TopK(5));
        assert!(engine.is_warm());
        assert!(report.indexes_built > 0, "{}: warm must build indexes", variant.name());

        let above = run(&engine, &q, QueryRequest::above_theta(1.1)).into_above();
        assert_eq!(
            canonical_pairs(&above.entries),
            canonical_pairs(&above_expect.entries),
            "{} shared Above-θ diverges",
            variant.name()
        );
        assert_eq!(above.stats.indexes_built, 0, "shared path must not build");
        let topk = run(&engine, &q, QueryRequest::top_k(5)).into_top_k();
        assert!(
            topk_equivalent(&topk.lists, &topk_expect.lists, 1e-9),
            "{} shared Row-Top-k diverges",
            variant.name()
        );
    }
}

#[test]
fn blsh_warm_shared_matches_mut() {
    // The approximate variant must at least be *deterministically* equal
    // between the shared and the (fresh-engine) mut path: same signatures,
    // same minimum-match table, same candidates.
    let (q, p) = fixture(40, 300, 9100);
    let mut reference = Lemp::builder().variant(LempVariant::Blsh).build(&p);
    let expect = reference.above_theta(&q, 1.0);
    let mut engine = Lemp::builder().variant(LempVariant::Blsh).build(&p);
    engine.warm(&q, WarmGoal::Above(1.0));
    let got = run(&engine, &q, QueryRequest::above_theta(1.0)).into_above();
    assert_eq!(canonical_pairs(&got.entries), canonical_pairs(&expect.entries));
}

#[test]
fn n_threads_sharing_one_engine_match_single_threaded_run() {
    let (q, p) = fixture(60, 500, 9200);
    let k = 7;
    let theta = 1.0;

    // Single-threaded ground truth through the one-shot `&mut` driver.
    let mut reference = Lemp::builder().sample_size(8).build(&p);
    let topk_expect = reference.row_top_k(&q, k);
    let above_expect = reference.above_theta(&q, theta);

    let mut engine = Lemp::builder().sample_size(8).build(&p);
    engine.warm(&q, WarmGoal::TopK(k));
    let engine: &dyn Engine = &engine; // from here on, shared borrows only
    let (topk_plan, above_plan) =
        (engine.plan(&QueryRequest::top_k(k)), engine.plan(&QueryRequest::above_theta(theta)));

    const THREADS: usize = 8;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = &q;
                let (topk_expect, above_expect) = (&topk_expect, &above_expect);
                let (topk_plan, above_plan) = (&topk_plan, &above_plan);
                scope.spawn(move || {
                    let mut scratch = engine.query_scratch();
                    // Interleave the two problems so index reads overlap in
                    // as many ways as possible across threads.
                    for round in 0..3 {
                        if (t + round) % 2 == 0 {
                            let top = engine.execute(topk_plan, q, &mut scratch).into_top_k();
                            let above = engine.execute(above_plan, q, &mut scratch).into_above();
                            assert!(topk_equivalent(&top.lists, &topk_expect.lists, 1e-9));
                            assert_eq!(
                                canonical_pairs(&above.entries),
                                canonical_pairs(&above_expect.entries)
                            );
                        } else {
                            let above = engine.execute(above_plan, q, &mut scratch).into_above();
                            let top = engine.execute(topk_plan, q, &mut scratch).into_top_k();
                            assert_eq!(
                                canonical_pairs(&above.entries),
                                canonical_pairs(&above_expect.entries)
                            );
                            assert!(topk_equivalent(&top.lists, &topk_expect.lists, 1e-9));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("shared-engine worker panicked");
        }
    });
}

#[test]
fn shared_floor_abs_adaptive_and_chunked_match() {
    let (q, p) = fixture(40, 250, 9300);
    let mut engine = Lemp::builder().sample_size(8).build(&p);
    engine.warm(&q, WarmGoal::Above(1.2));
    let engine: &dyn Engine = &engine;
    let mut scratch = engine.query_scratch();
    let mut run = |request: QueryRequest| engine.run(&request, &q, &mut scratch);

    let floored = run(QueryRequest::top_k_with_floor(4, 0.8)).into_top_k();
    assert!(topk_equivalent(&floored.lists, &naive_floored(&q, &p, 4, 0.8), 1e-9));

    let abs = run(QueryRequest::abs_above_theta(1.2)).into_above();
    assert_eq!(canonical_pairs(&abs.entries), canonical_pairs(&naive_abs(&q, &p, 1.2)));

    // Adaptive (bandit) selection over the shared engine: exact results,
    // learning state in the caller's scratch.
    let acfg = AdaptiveConfig::default();
    let above = run(QueryRequest::above_theta(1.2).adaptive(acfg)).into_above();
    let (expect_entries, _) = Naive.above_theta(&q, &p, 1.2);
    assert_eq!(canonical_pairs(&above.entries), canonical_pairs(&expect_entries));
    let topk = run(QueryRequest::top_k(4).adaptive(acfg)).into_top_k();
    let (expect_topk, _) = Naive.row_top_k(&q, &p, 4);
    assert!(topk_equivalent(&topk.lists, &expect_topk, 1e-9));

    // Chunked streaming through &self.
    let mono = run(QueryRequest::above_theta(1.2)).into_above();
    let mut collected = Vec::new();
    let plan = engine.plan(&QueryRequest::above_theta(1.2).chunked(7));
    engine.execute_stream(&plan, &q, &mut scratch, &mut |_, block| {
        collected.extend_from_slice(block.entries().unwrap())
    });
    assert_eq!(canonical_pairs(&collected), canonical_pairs(&mono.entries));
    assert!(scratch.adaptive_reports()[0].total_pulls() > 0);
    let mut lists = Vec::new();
    let plan = engine.plan(&QueryRequest::top_k(4).chunked(9));
    engine.execute_stream(&plan, &q, &mut scratch, &mut |_, block| {
        lists.extend(block.into_top_k().lists)
    });
    assert!(topk_equivalent(&lists, &expect_topk, 1e-9));
}

#[test]
fn mut_wrappers_are_shims_after_warm() {
    // After warm, the one-shot &mut methods route through `Engine::run`:
    // results stay identical and no further indexes are built.
    let (q, p) = fixture(30, 200, 9400);
    let mut engine = Lemp::builder().sample_size(8).build(&p);
    let before = engine.row_top_k(&q, 3);
    engine.warm(&q, WarmGoal::TopK(3));
    let after = engine.row_top_k(&q, 3);
    assert!(topk_equivalent(&before.lists, &after.lists, 0.0));
    assert_eq!(after.stats.indexes_built, 0);
    let above = engine.above_theta(&q, 1.0);
    assert_eq!(above.stats.indexes_built, 0);
}

#[test]
fn dynamic_engine_stays_warm_across_edits() {
    let (q, p) = fixture(30, 260, 9500);
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut engine = DynamicLemp::new(&p, policy, config);
    engine.warm(&q, WarmGoal::TopK(5));
    assert!(engine.is_warm());

    // Churn through inserts (absorbing, bucket-opening, splitting) and
    // removals; the engine must stay warm and the shared path must agree
    // with a naive scan of the live set after every phase.
    let extra = GeneratorConfig::gaussian(40, 10, 2.5).generate(9600);
    for i in 0..extra.len() {
        engine.insert(extra.vector(i)).unwrap();
    }
    engine.insert(&[1e5; 10]).unwrap(); // far out of range: opens a bucket
    for id in (0..260u32).step_by(3) {
        engine.remove(id);
    }
    assert!(engine.is_warm());

    let (ids, live) = engine.live_vectors();
    let (naive_entries, _) = Naive.above_theta(&q, &live, 1.5);
    let expect: Vec<(u32, u32)> = {
        let mut v: Vec<(u32, u32)> =
            naive_entries.iter().map(|e| (e.query, ids[e.probe as usize])).collect();
        v.sort_unstable();
        v
    };
    let got = run(&engine, &q, QueryRequest::above_theta(1.5)).into_above();
    assert_eq!(canonical_pairs(&got.entries), expect);
    assert_eq!(got.stats.indexes_built, 0, "edits must re-warm eagerly");

    // Concurrent readers over the edited engine.
    let (naive_topk, _) = Naive.row_top_k(&q, &live, 5);
    let expect_topk: Vec<Vec<lemp_linalg::ScoredItem>> = naive_topk
        .iter()
        .map(|l| {
            l.iter()
                .map(|it| lemp_linalg::ScoredItem { id: ids[it.id] as usize, score: it.score })
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (engine, q, expect_topk): (&dyn Engine, _, _) = (&engine, &q, &expect_topk);
            scope.spawn(move || {
                let top = run(engine, q, QueryRequest::top_k(5)).into_top_k();
                assert!(topk_equivalent(&top.lists, expect_topk, 1e-9));
            });
        }
    });

    // Compaction keeps the engine warm too.
    engine.rebuild();
    assert!(engine.is_warm());
    let got = run(&engine, &q, QueryRequest::above_theta(1.5)).into_above();
    assert_eq!(canonical_pairs(&got.entries), expect);
}

#[test]
fn n_threads_sharing_one_sharded_engine_match_single_threaded_run() {
    let (q, p) = fixture(40, 420, 9900);
    let k = 5;
    let theta = 1.0;

    // Single-threaded ground truth: the unsharded warmed engine.
    let mut reference = Lemp::builder().sample_size(8).build(&p);
    reference.warm(&q, WarmGoal::TopK(k));
    let topk_expect = run(&reference, &q, QueryRequest::top_k(k)).into_top_k();
    let above_expect = run(&reference, &q, QueryRequest::above_theta(theta)).into_above();

    let mut engine = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .threads(2) // shard fan-out *inside* each request, on top of N clients
        .build(&p);
    engine.warm(&q, WarmGoal::TopK(k));
    let engine: &dyn Engine = &engine; // shared borrows only

    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = &q;
                let (topk_expect, above_expect) = (&topk_expect, &above_expect);
                scope.spawn(move || {
                    let mut scratch = engine.query_scratch();
                    for round in 0..3 {
                        if (t + round) % 2 == 0 {
                            let top =
                                engine.run(&QueryRequest::top_k(k), q, &mut scratch).into_top_k();
                            assert!(topk_equivalent(&top.lists, &topk_expect.lists, 0.0));
                        } else {
                            let request = QueryRequest::above_theta(theta);
                            let above = engine.run(&request, q, &mut scratch).into_above();
                            assert_eq!(
                                canonical_pairs(&above.entries),
                                canonical_pairs(&above_expect.entries)
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sharded-engine worker panicked");
        }
    });
}

#[test]
fn rebuild_under_changed_thread_count_preserves_warmth() {
    // Regression guard for the warm-preserving invariant: `set_threads`
    // and `rebuild` were never exercised together — a service that scales
    // its thread pool and then compacts must stay warm and exact.
    let (q, p) = fixture(25, 240, 9950);
    let policy = BucketPolicy { min_bucket: 8, cache_bytes: 64 << 10, ..Default::default() };
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut engine = DynamicLemp::new(&p, policy, config);
    engine.warm(&q, WarmGoal::TopK(4));
    assert!(engine.is_warm());

    // Churn so the rebuild actually reshapes buckets.
    for id in (0..240u32).step_by(5) {
        engine.remove(id);
    }
    let extra = GeneratorConfig::gaussian(30, 10, 2.0).generate(9951);
    for i in 0..extra.len() {
        engine.insert(extra.vector(i)).unwrap();
    }

    for threads in [4usize, 1, 3] {
        engine.set_threads(threads);
        engine.rebuild();
        assert!(engine.is_warm(), "rebuild under threads={threads} lost warmth");

        let (ids, live) = engine.live_vectors();
        let (naive_entries, _) = Naive.above_theta(&q, &live, 1.2);
        let expect: Vec<(u32, u32)> = {
            let mut v: Vec<(u32, u32)> =
                naive_entries.iter().map(|e| (e.query, ids[e.probe as usize])).collect();
            v.sort_unstable();
            v
        };
        let got = run(&engine, &q, QueryRequest::above_theta(1.2)).into_above();
        assert_eq!(canonical_pairs(&got.entries), expect, "threads={threads}");
        assert_eq!(
            got.stats.indexes_built, 0,
            "threads={threads}: rebuild must re-index eagerly, not lazily"
        );
    }
}

#[test]
#[should_panic(expected = "requires a warmed engine")]
fn shared_query_without_warm_panics() {
    let (q, p) = fixture(5, 40, 9700);
    let engine = Lemp::builder().build(&p);
    let _ = run(&engine, &q, QueryRequest::top_k(2));
}

#[test]
fn from_engine_wraps_a_loaded_static_image() {
    // The serve path: persist a static engine, load it back, wrap it as a
    // dynamic engine, warm, and query through &self.
    let (q, p) = fixture(20, 150, 9800);
    let engine = Lemp::builder().sample_size(8).build(&p);
    let mut buf = Vec::new();
    engine.write_to(&mut buf).unwrap();
    let loaded = Lemp::read_from(&buf[..]).unwrap();
    let mut dynamic = DynamicLemp::from_engine(loaded, BucketPolicy::default());
    assert_eq!(dynamic.len(), p.len());
    assert_eq!(dynamic.next_id(), p.len() as u32);
    dynamic.warm(&q, WarmGoal::TopK(3));
    let (expect, _) = Naive.row_top_k(&q, &p, 3);
    let got = run(&dynamic, &q, QueryRequest::top_k(3)).into_top_k();
    assert!(topk_equivalent(&got.lists, &expect, 1e-9));
    // …and it keeps accepting edits.
    let id = dynamic.insert(&[2.0; 10]).unwrap();
    assert_eq!(id, p.len() as u32);
    assert!(dynamic.remove(id));
}
