//! Engine-trait conformance: every [`QueryKind`] × [`ExecOptions`]
//! combination, through `dyn Engine`, for every engine backend.
//!
//! This is the differential gate of the unified query surface. Each
//! planned `request → plan → execute` result is checked three ways:
//!
//! * **against the naive baseline**: Above-θ entry sets exactly (as
//!   `(query, probe)` pairs), Row-Top-k scores within `1e-9`;
//! * **across engines, bit for bit**: [`Lemp`], [`DynamicLemp`] and
//!   [`ShardedLemp`] with one and with three shards must return the same
//!   Above-θ entries (values compared as bits) and the same Row-Top-k
//!   scores (tolerance 0.0; at a tied k-boundary the retained *ids* may
//!   legally differ between exact runs, never the scores);
//! * **across execution forms, bit for bit**: streamed chunked
//!   ([`Engine::execute_stream`]), materialized chunked and monolithic
//!   execution agree, and so do the one-shot cold-engine driver
//!   ([`Lemp::above_theta`] / [`Lemp::row_top_k`]) and [`Engine::execute`].

use lemp_baselines::types::{canonical_pairs, topk_equivalent, Entry, TopKLists};
use lemp_baselines::Naive;
use lemp_core::shard::ShardPolicy;
use lemp_core::{
    AdaptiveConfig, DynamicLemp, Engine, ExecOptions, Lemp, QueryKind, QueryPlan, QueryRequest,
    QueryResponse, QueryRows, ShardedLemp, WarmGoal,
};
use lemp_core::{BucketPolicy, LempVariant, RunConfig};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::VectorStore;

const DIM: usize = 8;
const K: usize = 4;
const THETA: f64 = 1.0;

fn fixture() -> (VectorStore, VectorStore) {
    let q = GeneratorConfig::gaussian(30, DIM, 1.0).generate(9000);
    let p = GeneratorConfig::gaussian(220, DIM, 1.2).generate(9001);
    (q, p)
}

/// A floor that bites: the median 3rd-best value, nudged off the exact
/// score so the comparison is insensitive to one-ulp formula differences.
fn biting_floor(q: &VectorStore, p: &VectorStore) -> f64 {
    let (full, _) = Naive.row_top_k(q, p, 3);
    let mut thirds: Vec<f64> = full.iter().filter(|l| l.len() >= 3).map(|l| l[2].score).collect();
    thirds.sort_by(f64::total_cmp);
    thirds[thirds.len() / 2] + 1e-7
}

fn sharded(p: &VectorStore, shards: usize) -> ShardedLemp {
    ShardedLemp::builder().shards(shards).policy(ShardPolicy::LengthBanded).sample_size(8).build(p)
}

/// The warmed backends behind one trait-object handle each: the two
/// unsharded engines, then the sharded engine with one and three shards.
fn engines(q: &VectorStore, p: &VectorStore) -> Vec<(&'static str, Box<dyn Engine>)> {
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut backends: Vec<(&'static str, Box<dyn Engine>)> = vec![
        ("Lemp", Box::new(Lemp::builder().sample_size(8).build(p))),
        ("DynamicLemp", Box::new(DynamicLemp::new(p, BucketPolicy::default(), config))),
        ("ShardedLemp S=1", Box::new(sharded(p, 1))),
        ("ShardedLemp S=3", Box::new(sharded(p, 3))),
    ];
    for (_, engine) in &mut backends {
        engine.warm_up(q, WarmGoal::TopK(K));
    }
    backends
}

fn kinds(floor: f64) -> Vec<QueryKind> {
    vec![
        QueryKind::AboveTheta { theta: THETA },
        QueryKind::AbsAboveTheta { theta: THETA },
        QueryKind::TopK { k: K },
        QueryKind::TopKWithFloor { k: K, floor },
    ]
}

fn option_sets() -> Vec<(&'static str, ExecOptions)> {
    let adaptive = AdaptiveConfig::default();
    vec![
        ("tuned", ExecOptions::default()),
        ("chunked", ExecOptions { chunk: Some(7), ..Default::default() }),
        ("adaptive", ExecOptions { adaptive: Some(adaptive), ..Default::default() }),
        ("adaptive+chunked", ExecOptions { adaptive: Some(adaptive), chunk: Some(5) }),
    ]
}

/// Canonical, bit-comparable form of an entry set.
fn canon(entries: &[Entry]) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> =
        entries.iter().map(|e| (e.query, e.probe, e.value.to_bits())).collect();
    v.sort_unstable();
    v
}

/// Bit-comparable results of the four kinds under default (tuned,
/// monolithic) execution.
struct Reference {
    above: Vec<(u32, u32, u64)>,
    abs: Vec<(u32, u32, u64)>,
    topk: TopKLists,
    floored: TopKLists,
}

/// The reference results of `engine` under default execution options.
fn reference(engine: &dyn Engine, q: &VectorStore, floor: f64) -> Reference {
    let mut scratch = engine.query_scratch();
    let mut run = |request: QueryRequest| engine.run(&request, q, &mut scratch);
    Reference {
        above: canon(run(QueryRequest::above_theta(THETA)).entries().unwrap()),
        abs: canon(run(QueryRequest::abs_above_theta(THETA)).entries().unwrap()),
        topk: run(QueryRequest::top_k(K)).into_top_k().lists,
        floored: run(QueryRequest::top_k_with_floor(K, floor)).into_top_k().lists,
    }
}

/// Asserts `reference` answers every kind like the naive baseline.
fn assert_matches_naive(reference: &Reference, q: &VectorStore, p: &VectorStore, floor: f64) {
    let pairs = |v: &[(u32, u32, u64)]| v.iter().map(|&(a, b, _)| (a, b)).collect::<Vec<_>>();
    let (above, _) = Naive.above_theta(q, p, THETA);
    assert!(!above.is_empty(), "fixture must produce entries");
    assert_eq!(pairs(&reference.above), canonical_pairs(&above), "Above-θ diverges from Naive");

    let (below, _) = Naive.above_theta(&q.negated(), p, THETA);
    let mut abs = above.clone();
    abs.extend(below.iter().map(|e| Entry { value: -e.value, ..*e }));
    assert!(abs.len() > above.len(), "fixture must produce negative entries");
    assert_eq!(pairs(&reference.abs), canonical_pairs(&abs), "|Above-θ| diverges from Naive");

    let (topk, _) = Naive.row_top_k(q, p, K);
    assert!(topk_equivalent(&reference.topk, &topk, 1e-9), "Row-Top-k diverges from Naive");
    // Filtering the plain top-k by the floor is the floored answer.
    let floored: TopKLists = topk
        .iter()
        .map(|list| list.iter().filter(|item| item.score >= floor).copied().collect())
        .collect();
    assert!(floored.iter().any(|l| l.len() < K), "the floor must bite");
    assert!(
        topk_equivalent(&reference.floored, &floored, 1e-9),
        "floored Row-Top-k diverges from Naive"
    );
}

/// Asserts `response` equals `reference` bit-for-bit for `kind`.
fn assert_matches(label: &str, response: &QueryResponse, kind: &QueryKind, reference: &Reference) {
    match (&response.rows, kind) {
        (QueryRows::Entries(entries), QueryKind::AboveTheta { .. }) => {
            assert_eq!(canon(entries), reference.above, "{label}");
        }
        (QueryRows::Entries(entries), QueryKind::AbsAboveTheta { .. }) => {
            assert_eq!(canon(entries), reference.abs, "{label}");
        }
        (QueryRows::Lists(lists), QueryKind::TopK { .. }) => {
            assert!(topk_equivalent(lists, &reference.topk, 0.0), "{label}");
        }
        (QueryRows::Lists(lists), QueryKind::TopKWithFloor { .. }) => {
            assert!(topk_equivalent(lists, &reference.floored, 0.0), "{label}");
        }
        _ => panic!("{label}: response shape does not match the kind"),
    }
}

/// Above-θ through `Engine` with every (query, bucket) pair on LENGTH
/// (variant L) and with LENGTH and INCR mixed (LI), at every query count
/// from one to nine, so LENGTH blocks of one to four queries all occur:
/// entries match Naive bit for bit, one and three worker threads agree,
/// and under L the method mix is all LENGTH.
#[test]
fn length_blocks_are_exact_at_every_block_size() {
    let (all_q, p) = fixture();
    for variant in [LempVariant::L, LempVariant::LI] {
        for threads in [1, 3] {
            let mut engine =
                Lemp::builder().variant(variant).sample_size(8).threads(threads).build(&p);
            engine.warm_up(&all_q, WarmGoal::Above(THETA));
            let mut scratch = engine.query_scratch();
            for m in 1..=9 {
                let q = all_q.select(&(0..m).collect::<Vec<_>>());
                let response = engine.run(&QueryRequest::above_theta(THETA), &q, &mut scratch);
                let (naive, _) = Naive.above_theta(&q, &p, THETA);
                let what = format!("{variant:?} threads={threads} m={m}");
                assert_eq!(canon(response.entries().unwrap()), canon(&naive), "{what}");
                let mix = response.stats.method_mix;
                if variant == LempVariant::L {
                    assert_eq!(mix.length, mix.total(), "{what}: every pair on LENGTH");
                }
            }
        }
    }
}

#[test]
fn every_kind_and_option_agrees_with_naive_and_across_engines() {
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);
    let backends = engines(&q, &p);
    // The unsharded engine's default execution is the reference; it must
    // itself match Naive, and every backend × kind × option must match it
    // bit for bit.
    let expect = reference(backends[0].1.as_ref(), &q, floor);
    assert_matches_naive(&expect, &q, &p, floor);

    for (name, boxed) in &backends {
        let engine: &dyn Engine = boxed.as_ref();
        let mut scratch = engine.query_scratch();
        for kind in kinds(floor) {
            for (opt_name, options) in option_sets() {
                let request = QueryRequest { kind, options };
                let plan = engine.plan(&request);
                let response = engine.execute(&plan, &q, &mut scratch);
                let label = format!("{name} / {} / {opt_name}", kind.name());
                assert_matches(&label, &response, &kind, &expect);
                // Uniform statistics: every response reports its work.
                assert_eq!(response.stats.counters.queries, q.len() as u64, "{label}");
                assert!(response.stats.method_mix.total() > 0, "{label}: empty method mix");
            }
        }
    }
}

#[test]
fn one_shot_driver_matches_engine_execute() {
    // The cold one-shot driver tunes on the batch and builds indexes
    // lazily; a warmed engine runs the planned path. Same answers, bit for
    // bit, serial and multi-threaded.
    let (q, p) = fixture();
    for threads in [1usize, 3] {
        let cold = || Lemp::builder().sample_size(8).threads(threads).build(&p);
        let above = cold().above_theta(&q, THETA);
        let topk = cold().row_top_k(&q, K);
        assert!(!cold().is_warm(), "the one-shot driver needs no warm-up");

        let mut warm = cold();
        warm.warm(&q, WarmGoal::TopK(K));
        let engine: &dyn Engine = &warm;
        let mut scratch = engine.query_scratch();
        let planned = engine.run(&QueryRequest::above_theta(THETA), &q, &mut scratch);
        assert_eq!(canon(&above.entries), canon(planned.entries().unwrap()), "threads={threads}");
        let planned = engine.run(&QueryRequest::top_k(K), &q, &mut scratch);
        assert!(topk_equivalent(&topk.lists, planned.lists().unwrap(), 0.0), "threads={threads}");
    }
}

/// Asserts two result sets are identical: entries bit for bit, Row-Top-k
/// scores with tolerance 0.0.
fn assert_same(label: &str, a: &QueryRows, b: &QueryRows) {
    match (a, b) {
        (QueryRows::Entries(x), QueryRows::Entries(y)) => assert_eq!(canon(x), canon(y), "{label}"),
        (QueryRows::Lists(x), QueryRows::Lists(y)) => {
            assert!(topk_equivalent(x, y, 0.0), "{label}")
        }
        _ => panic!("{label}: response shapes differ"),
    }
}

/// Runs `plan` through [`Engine::execute_stream`] and concatenates the
/// blocks, checking that they arrive contiguous, in query order, and with
/// global entry query ids.
fn collect_streamed(
    engine: &dyn Engine,
    plan: &QueryPlan,
    q: &VectorStore,
    label: &str,
) -> QueryRows {
    let mut rows = if plan.request().kind.is_above() {
        QueryRows::Entries(Vec::new())
    } else {
        QueryRows::Lists(Vec::new())
    };
    let mut next = 0;
    let mut blocks = 0;
    engine.execute_stream(plan, q, &mut engine.query_scratch(), &mut |offset, block| {
        assert_eq!(offset, next, "{label}: blocks must be contiguous and in order");
        let len = block.stats.counters.queries as usize;
        match (&mut rows, block.rows) {
            (QueryRows::Entries(all), QueryRows::Entries(entries)) => {
                let range = offset as u32..(offset + len) as u32;
                assert!(entries.iter().all(|e| range.contains(&e.query)), "{label}: ids");
                all.extend(entries);
            }
            (QueryRows::Lists(all), QueryRows::Lists(lists)) => {
                assert_eq!(lists.len(), len, "{label}");
                all.extend(lists);
            }
            _ => panic!("{label}: block shape does not match the kind"),
        }
        next += len;
        blocks += 1;
    });
    assert_eq!(next, q.len(), "{label}: every query row streamed once");
    let chunk = plan.request().options.chunk.expect("a chunked plan");
    assert_eq!(blocks, q.len().div_ceil(chunk), "{label}: one block per chunk");
    rows
}

#[test]
fn streamed_chunked_matches_materialized_and_monolithic() {
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);
    for (name, boxed) in engines(&q, &p) {
        let engine: &dyn Engine = boxed.as_ref();
        for kind in kinds(floor) {
            for (opt_name, options) in option_sets() {
                let label = format!("{name} / {} / {opt_name}", kind.name());
                let chunked =
                    QueryRequest { kind, options: ExecOptions { chunk: Some(6), ..options } };
                let monolithic =
                    QueryRequest { kind, options: ExecOptions { chunk: None, ..options } };
                // Fresh scratches: each form starts from the same (empty)
                // adaptive learning state; results are exact either way.
                let mono = engine.run(&monolithic, &q, &mut engine.query_scratch());
                let plan = engine.plan(&chunked);
                let materialized = engine.execute(&plan, &q, &mut engine.query_scratch());
                assert_same(&format!("{label} materialized"), &materialized.rows, &mono.rows);
                assert_eq!(materialized.stats.counters.queries, q.len() as u64, "{label}");
                let streamed = collect_streamed(engine, &plan, &q, &label);
                assert_same(&format!("{label} streamed"), &streamed, &mono.rows);
            }
        }
    }
}

/// The edit script the dynamic quantized backend and its exact twin both
/// run after warming: one probe longer than every other (a new bucket),
/// one inside the length range, two removals.
fn edit(engine: &mut DynamicLemp, p: &VectorStore) {
    let mut long = p.vector(0).to_vec();
    long.iter_mut().for_each(|x| *x *= 9.0);
    engine.insert(&long).unwrap();
    engine.insert(p.vector(7)).unwrap();
    assert!(engine.remove(3));
    assert!(engine.remove(150));
}

/// The three backends with forced `bits`-wide QUANT, warmed; the dynamic
/// one has run [`edit`].
fn forced_quant_engines(
    q: &VectorStore,
    p: &VectorStore,
    bits: u8,
) -> Vec<(&'static str, Box<dyn Engine>)> {
    let mut single = Lemp::builder().sample_size(8).quantize(bits).quantize_force(true).build(p);
    single.warm(q, WarmGoal::TopK(K));
    assert!(
        single.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
        "warm must encode every bucket against the engine codebook"
    );

    let config = RunConfig {
        sample_size: 8,
        quantize_bits: bits,
        quantize_force: true,
        ..Default::default()
    };
    let mut dynamic = DynamicLemp::new(p, BucketPolicy::default(), config);
    dynamic.warm(q, WarmGoal::TopK(K));
    edit(&mut dynamic, p);
    assert!(
        dynamic.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
        "edits must re-encode the touched buckets"
    );

    let mut sharded = ShardedLemp::builder()
        .shards(3)
        .policy(ShardPolicy::LengthBanded)
        .sample_size(8)
        .quantize(bits)
        .quantize_force(true)
        .build(p);
    sharded.warm(q, WarmGoal::TopK(K));
    vec![
        ("Lemp+quant", Box::new(single) as Box<dyn Engine>),
        ("DynamicLemp+quant", Box::new(dynamic)),
        ("ShardedLemp+quant", Box::new(sharded)),
    ]
}

#[test]
fn quantized_engines_answer_bit_identically_for_every_kind_and_backend() {
    // The quantized differential suite: engines whose every bucket is
    // forced through the QUANT scan must answer every QueryKind ×
    // ExecOptions combination **bit-for-bit** like their full-precision
    // twins, on all three backends. The QUANT scan only prunes with the
    // distortion-lifted bound; verification against the full-precision
    // vectors restores exactness — any divergence here is a broken bound,
    // not a tolerance issue. The 2-bit codebook (four centroids per
    // subspace) leaves large distortion bounds, so the lifted bound is
    // exercised far from the `eps ≈ 0` regime.
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);

    let mut single = Lemp::builder().sample_size(8).build(&p);
    single.warm(&q, WarmGoal::TopK(K));
    let exact_single = reference(&single, &q, floor);
    assert_matches_naive(&exact_single, &q, &p, floor);
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    dynamic.warm(&q, WarmGoal::TopK(K));
    edit(&mut dynamic, &p);
    let exact_dynamic = reference(&dynamic, &q, floor);

    for bits in [8u8, 2] {
        for (name, boxed) in forced_quant_engines(&q, &p, bits) {
            let exact = if name.starts_with("Dynamic") { &exact_dynamic } else { &exact_single };
            let engine: &dyn Engine = boxed.as_ref();
            let mut scratch = engine.query_scratch();
            for kind in kinds(floor) {
                for (opt_name, options) in option_sets() {
                    let request = QueryRequest { kind, options };
                    let plan = engine.plan(&request);
                    let response = engine.execute(&plan, &q, &mut scratch);
                    let label = format!("{name} bits={bits} / {} / {opt_name}", kind.name());
                    assert_matches(&label, &response, &kind, exact);
                    if options.adaptive.is_none() {
                        assert!(response.stats.method_mix.quant > 0, "{label}: QUANT never ran");
                    }
                }
            }
        }
    }
}

#[test]
fn two_bit_codebooks_leave_large_distortion_bounds() {
    // Guards the premise of the 2-bit differential case above.
    let (q, p) = fixture();
    let mut engine = Lemp::builder().sample_size(8).quantize(2).quantize_force(true).build(&p);
    engine.warm(&q, WarmGoal::TopK(K));
    let codebook = engine.buckets().codebook().expect("codebook trained at warm");
    assert_eq!(codebook.k(), 4);
    let worst = engine
        .buckets()
        .buckets()
        .iter()
        .filter_map(|b| b.indexes.quant.as_ref())
        .map(|qb| qb.eps())
        .fold(0.0f64, f64::max);
    assert!(worst > 0.2, "2-bit eps {worst} is too small to exercise the lifted bound");
}

#[test]
fn execute_builds_at_most_one_lookup_table_per_query_per_shard() {
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);
    for (name, boxed) in forced_quant_engines(&q, &p, 8) {
        let engine: &dyn Engine = boxed.as_ref();
        let mut scratch = engine.query_scratch();
        let cap = (q.len() * engine.shard_count()) as u64;
        for request in [
            QueryRequest::top_k(K),
            QueryRequest::top_k_with_floor(K, floor),
            QueryRequest::above_theta(THETA),
        ] {
            let stats = engine.run(&request, &q, &mut scratch).stats;
            let label = format!("{name} / {}", request.kind.name());
            assert!(stats.method_mix.quant > 0, "{label}: QUANT never ran");
            assert!(stats.lut_builds > 0, "{label}: QUANT ran without a lookup table");
            assert!(
                stats.lut_builds <= cap,
                "{label}: {} tables for {} queries × {} shards",
                stats.lut_builds,
                q.len(),
                engine.shard_count()
            );
            assert!(
                stats.lut_builds < stats.method_mix.quant,
                "{label}: one table per QUANT bucket visit ({} builds, {} visits)",
                stats.lut_builds,
                stats.method_mix.quant
            );
        }
    }
}

#[test]
fn k_edge_cases_are_clamped_identically_across_engines() {
    let (q, p) = fixture();
    let n = p.len();
    for (name, engine) in engines(&q, &p) {
        let mut scratch = engine.query_scratch();
        // k = 0: empty lists, no panic.
        let zero = engine.run(&QueryRequest::top_k(0), &q, &mut scratch);
        assert!(
            zero.lists().unwrap().iter().all(Vec::is_empty),
            "{name}: k = 0 must return empty lists"
        );
        // k beyond the probe count (and a hostile k that would overflow a
        // heap allocation without the clamp): every probe comes back.
        for k in [n + 100, usize::MAX] {
            let all = engine.run(&QueryRequest::top_k(k), &q, &mut scratch);
            for (qi, list) in all.lists().unwrap().iter().enumerate() {
                assert_eq!(list.len(), n, "{name}: k = {k}, query {qi}");
            }
        }
    }
    // The one-shot cold driver clamps the same way (unified semantics).
    let mut lazy = Lemp::builder().sample_size(8).build(&p);
    let out = lazy.row_top_k(&q, usize::MAX);
    assert!(out.lists.iter().all(|l| l.len() == n));
}

#[test]
fn dyn_handles_share_one_call_site() {
    // The acceptance property of the refactor, in miniature: one loop, no
    // per-engine match arms, every backend.
    let (q, p) = fixture();
    let request = QueryRequest::top_k(K);
    let mut lists: Vec<TopKLists> = Vec::new();
    for (_, engine) in engines(&q, &p) {
        let mut scratch = engine.query_scratch();
        lists.push(engine.run(&request, &q, &mut scratch).into_top_k().lists);
    }
    // All backends agree bit-for-bit on the scores.
    for other in &lists[1..] {
        assert!(topk_equivalent(&lists[0], other, 0.0));
    }
}

#[test]
fn plans_describe_the_tuned_assignment() {
    let (q, p) = fixture();
    for (name, engine) in engines(&q, &p) {
        let plan = engine.plan(&QueryRequest::above_theta(THETA));
        assert_eq!(plan.segments().len(), engine.shard_count(), "{name}");
        let buckets: usize = plan.segments().iter().map(|s| s.bucket_count()).sum();
        assert!(buckets > 0, "{name}: plan covers no buckets");
        let summary = plan.describe();
        assert!(summary.contains("above-theta"), "{name}: {summary}");
    }
}

#[test]
#[should_panic(expected = "scratch was made for a")]
fn scratch_from_another_engine_kind_is_rejected() {
    let (q, p) = fixture();
    let mut single = Lemp::builder().sample_size(8).build(&p);
    single.warm(&q, WarmGoal::TopK(K));
    let mut sharded = ShardedLemp::builder().shards(2).sample_size(8).build(&p);
    sharded.warm(&q, WarmGoal::TopK(K));
    let mut wrong = (&sharded as &dyn Engine).query_scratch();
    let single: &dyn Engine = &single;
    let _ = single.run(&QueryRequest::top_k(1), &q, &mut wrong);
}
