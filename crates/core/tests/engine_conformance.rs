//! Engine-trait conformance: every [`QueryKind`] × [`ExecOptions`]
//! combination, through `dyn Engine`, for all three engine backends —
//! asserted bit-identical to the classic (pre-refactor) entry points and
//! consistent with the naive baseline.
//!
//! This is the differential gate of the unified query surface: the planned
//! `request → plan → execute` path must return exactly what the direct
//! `above_theta_shared` / `row_top_k_shared` / floor / abs / adaptive
//! methods return, for [`Lemp`], [`DynamicLemp`] and [`ShardedLemp`]
//! alike. Above-θ entry values are compared bit-for-bit; Row-Top-k scores
//! are compared with tolerance 0.0 (bit-exact scores; at a tied k-boundary
//! the retained *ids* may legally differ between exact runs, never the
//! scores).

use lemp_baselines::types::{topk_equivalent, Entry, TopKLists};
use lemp_baselines::Naive;
use lemp_core::shard::ShardPolicy;
use lemp_core::{
    AdaptiveConfig, DynamicLemp, Engine, ExecOptions, Lemp, QueryKind, QueryRequest, QueryResponse,
    QueryRows, ShardedLemp, WarmGoal,
};
use lemp_core::{BucketPolicy, RunConfig};
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

/// The three warmed backends behind one trait-object handle each.
fn engines(q: &VectorStore, p: &VectorStore) -> Vec<(&'static str, Box<dyn Engine>)> {
    let mut single = Lemp::builder().sample_size(8).build(p);
    single.warm(q, WarmGoal::TopK(K));

    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(p, BucketPolicy::default(), config);
    dynamic.warm(q, WarmGoal::TopK(K));

    let mut sharded =
        ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).sample_size(8).build(p);
    sharded.warm(q, WarmGoal::TopK(K));

    vec![
        ("Lemp", Box::new(single) as Box<dyn Engine>),
        ("DynamicLemp", Box::new(dynamic)),
        ("ShardedLemp", Box::new(sharded)),
    ]
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

/// Classic entry-point results for all kinds, per engine, computed on the
/// concrete types before they disappear behind `dyn Engine`.
struct Classic {
    above: Vec<(u32, u32, u64)>,
    abs: Vec<(u32, u32, u64)>,
    topk: TopKLists,
    floored: TopKLists,
}

fn classic_for_single(engine: &Lemp, q: &VectorStore, floor: f64) -> Classic {
    let mut scratch = engine.make_scratch();
    Classic {
        above: canon(&engine.above_theta_shared(q, THETA, &mut scratch).entries),
        abs: canon(&engine.abs_above_theta_shared(q, THETA, &mut scratch).entries),
        topk: engine.row_top_k_shared(q, K, &mut scratch).lists,
        floored: engine.row_top_k_with_floor_shared(q, K, floor, &mut scratch).lists,
    }
}

fn classic_for_dynamic(engine: &DynamicLemp, q: &VectorStore, floor: f64) -> Classic {
    let mut scratch = engine.make_scratch();
    Classic {
        above: canon(&engine.above_theta_shared(q, THETA, &mut scratch).entries),
        abs: canon(&engine.abs_above_theta_shared(q, THETA, &mut scratch).entries),
        topk: engine.row_top_k_shared(q, K, &mut scratch).lists,
        floored: engine.row_top_k_with_floor_shared(q, K, floor, &mut scratch).lists,
    }
}

fn classic_for_sharded(engine: &ShardedLemp, q: &VectorStore, floor: f64) -> Classic {
    let mut scratch = engine.make_scratch();
    Classic {
        above: canon(&engine.above_theta_shared(q, THETA, &mut scratch).entries),
        abs: canon(&engine.abs_above_theta_shared(q, THETA, &mut scratch).entries),
        topk: engine.row_top_k_shared(q, K, &mut scratch).lists,
        floored: engine.row_top_k_with_floor_shared(q, K, floor, &mut scratch).lists,
    }
}

#[test]
fn every_kind_and_option_matches_the_classic_entry_points() {
    let (q, p) = fixture();
    let floor = biting_floor(&q, &p);

    // Naive ground truth, shared by every engine.
    let (naive_above, _) = Naive.above_theta(&q, &p, THETA);
    let naive_above = canon(&naive_above);
    let (naive_topk, _) = Naive.row_top_k(&q, &p, K);
    assert!(!naive_above.is_empty(), "fixture must produce entries");

    // Each backend is built once; the classic (pre-refactor) entry points
    // run on the concrete type, then the *same instance* answers through
    // the trait object — any divergence is a planned-path defect, not a
    // tuning difference.
    let mut single = Lemp::builder().sample_size(8).build(&p);
    single.warm(&q, WarmGoal::TopK(K));
    let classic_single = classic_for_single(&single, &q, floor);

    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    dynamic.warm(&q, WarmGoal::TopK(K));
    let classic_dynamic = classic_for_dynamic(&dynamic, &q, floor);

    let mut sharded =
        ShardedLemp::builder().shards(3).policy(ShardPolicy::LengthBanded).sample_size(8).build(&p);
    sharded.warm(&q, WarmGoal::TopK(K));
    let classic_sharded = classic_for_sharded(&sharded, &q, floor);

    let backends: Vec<(&str, Box<dyn Engine>, Classic)> = vec![
        ("Lemp", Box::new(single), classic_single),
        ("DynamicLemp", Box::new(dynamic), classic_dynamic),
        ("ShardedLemp", Box::new(sharded), classic_sharded),
    ];

    for (name, boxed, classic) in backends {
        // The classic results themselves must match Naive (sanity).
        assert_eq!(
            classic.above.iter().map(|&(a, b, _)| (a, b)).collect::<Vec<_>>(),
            naive_above.iter().map(|&(a, b, _)| (a, b)).collect::<Vec<_>>(),
            "{name}: classic Above-θ diverges from Naive"
        );
        assert!(
            topk_equivalent(&classic.topk, &naive_topk, 1e-9),
            "{name}: classic Row-Top-k diverges from Naive"
        );

        let engine: &dyn Engine = boxed.as_ref();
        let mut scratch = engine.query_scratch();
        for kind in kinds(floor) {
            for (opt_name, options) in option_sets() {
                let request = QueryRequest { kind, options };
                let plan = engine.plan(&request);
                let response = engine.execute(&plan, &q, &mut scratch);
                let label = format!("{name} / {} / {opt_name}", kind.name());
                match (&response.rows, &kind) {
                    (QueryRows::Entries(entries), QueryKind::AboveTheta { .. }) => {
                        assert_eq!(canon(entries), classic.above, "{label}");
                    }
                    (QueryRows::Entries(entries), QueryKind::AbsAboveTheta { .. }) => {
                        assert_eq!(canon(entries), classic.abs, "{label}");
                    }
                    (QueryRows::Lists(lists), QueryKind::TopK { .. }) => {
                        assert!(topk_equivalent(lists, &classic.topk, 0.0), "{label}");
                    }
                    (QueryRows::Lists(lists), QueryKind::TopKWithFloor { .. }) => {
                        assert!(topk_equivalent(lists, &classic.floored, 0.0), "{label}");
                    }
                    _ => panic!("{label}: response shape does not match the kind"),
                }
                // Uniform statistics: every response reports its work.
                assert_eq!(response.stats.counters.queries, q.len() as u64, "{label}");
                assert!(response.stats.method_mix.total() > 0, "{label}: empty method mix");
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

/// Asserts `response` equals `classic` bit-for-bit for `kind`.
fn assert_matches_classic(
    label: &str,
    response: &QueryResponse,
    kind: &QueryKind,
    classic: &Classic,
) {
    match (&response.rows, kind) {
        (QueryRows::Entries(entries), QueryKind::AboveTheta { .. }) => {
            assert_eq!(canon(entries), classic.above, "{label}");
        }
        (QueryRows::Entries(entries), QueryKind::AbsAboveTheta { .. }) => {
            assert_eq!(canon(entries), classic.abs, "{label}");
        }
        (QueryRows::Lists(lists), QueryKind::TopK { .. }) => {
            assert!(topk_equivalent(lists, &classic.topk, 0.0), "{label}");
        }
        (QueryRows::Lists(lists), QueryKind::TopKWithFloor { .. }) => {
            assert!(topk_equivalent(lists, &classic.floored, 0.0), "{label}");
        }
        _ => panic!("{label}: response shape does not match the kind"),
    }
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
    let exact_single = classic_for_single(&single, &q, floor);
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    dynamic.warm(&q, WarmGoal::TopK(K));
    edit(&mut dynamic, &p);
    let exact_dynamic = classic_for_dynamic(&dynamic, &q, floor);

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
                    assert_matches_classic(&label, &response, &kind, exact);
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
    // The classic entry points clamp the same way (unified semantics).
    let mut lazy = Lemp::builder().sample_size(8).build(&p);
    let out = lazy.row_top_k(&q, usize::MAX);
    assert!(out.lists.iter().all(|l| l.len() == n));
    let config = RunConfig { sample_size: 8, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, BucketPolicy::default(), config);
    let out = dynamic.row_top_k(&q, usize::MAX);
    assert!(out.lists.iter().all(|l| l.len() == n));
}

#[test]
fn dyn_handles_share_one_call_site() {
    // The acceptance property of the refactor, in miniature: one loop, no
    // per-engine match arms, three backends.
    let (q, p) = fixture();
    let request = QueryRequest::top_k(K);
    let mut lists: Vec<TopKLists> = Vec::new();
    for (_, engine) in engines(&q, &p) {
        let mut scratch = engine.query_scratch();
        lists.push(engine.run(&request, &q, &mut scratch).into_top_k().lists);
    }
    // All three backends agree bit-for-bit on the scores.
    assert!(topk_equivalent(&lists[0], &lists[1], 0.0), "Lemp vs DynamicLemp");
    assert!(topk_equivalent(&lists[0], &lists[2], 0.0), "Lemp vs ShardedLemp");
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

#[test]
fn chunked_execution_matches_the_streaming_shims() {
    // The chunked ExecOption must agree with the pre-existing chunked
    // streaming entry points (which remain for sink-style consumers).
    let (q, p) = fixture();
    let mut engine = Lemp::builder().sample_size(8).build(&p);
    engine.warm(&q, WarmGoal::Above(THETA));
    let mut scratch = engine.make_scratch();
    let mut streamed: Vec<Entry> = Vec::new();
    engine.above_theta_chunked_shared(&q, THETA, 7, &mut scratch, |es| {
        streamed.extend_from_slice(es)
    });
    let planned = {
        let engine: &dyn Engine = &engine;
        let mut scratch = engine.query_scratch();
        engine.run(&QueryRequest::above_theta(THETA).chunked(7), &q, &mut scratch).into_above()
    };
    assert_eq!(canon(&planned.entries), canon(&streamed));
}
