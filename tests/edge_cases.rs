//! Edge-case and failure-injection tests across the whole stack.

use lemp::baselines::types::{canonical_pairs, topk_equivalent};
use lemp::baselines::Naive;
use lemp::data::synthetic::GeneratorConfig;
use lemp::linalg::VectorStore;
use lemp::{Engine, Lemp, LempVariant, QueryRequest, QueryResponse};

fn engine_for(probes: &VectorStore, variant: LempVariant) -> Lemp {
    Lemp::builder().variant(variant).sample_size(4).build(probes)
}

/// Warms `engine` on `queries` for `request` and runs it through the
/// unified query surface.
fn run(engine: &mut Lemp, queries: &VectorStore, request: QueryRequest) -> QueryResponse {
    engine.warm(queries, request.kind.warm_goal());
    engine.run(&request, queries, &mut engine.query_scratch())
}

fn exact_variants() -> impl Iterator<Item = LempVariant> {
    LempVariant::all().into_iter().filter(|v| !v.is_approximate())
}

#[test]
fn zero_probe_vectors_are_handled_everywhere() {
    // Some probes are exactly zero; θ > 0 excludes them, θ ≤ 0 includes.
    let mut rows: Vec<Vec<f64>> = (0..50).map(|i| vec![1.0 + i as f64 * 0.1, 0.5]).collect();
    rows.push(vec![0.0, 0.0]);
    rows.push(vec![0.0, 0.0]);
    let probes = VectorStore::from_rows(&rows).unwrap();
    let queries = GeneratorConfig::gaussian(10, 2, 0.5).generate(1);
    for theta in [1.0, 0.0, -0.5] {
        let (expect, _) = Naive.above_theta(&queries, &probes, theta);
        for variant in exact_variants() {
            let mut engine = engine_for(&probes, variant);
            let out = engine.above_theta(&queries, theta);
            assert_eq!(
                canonical_pairs(&out.entries),
                canonical_pairs(&expect),
                "{} at theta {theta}",
                variant.name()
            );
        }
    }
}

#[test]
fn zero_query_vectors_are_handled_everywhere() {
    let probes = GeneratorConfig::gaussian(60, 3, 0.5).generate(2);
    let queries =
        VectorStore::from_rows(&[vec![0.0, 0.0, 0.0], vec![1.0, 0.2, -0.3], vec![0.0, 0.0, 0.0]])
            .unwrap();
    for theta in [0.5, 0.0] {
        let (expect, _) = Naive.above_theta(&queries, &probes, theta);
        for variant in exact_variants() {
            let mut engine = engine_for(&probes, variant);
            let out = engine.above_theta(&queries, theta);
            assert_eq!(
                canonical_pairs(&out.entries),
                canonical_pairs(&expect),
                "{} at theta {theta}",
                variant.name()
            );
        }
    }
    // Top-k with a zero query: any k probes tie at score 0.
    let (expect, _) = Naive.row_top_k(&queries, &probes, 4);
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.row_top_k(&queries, 4);
        assert!(topk_equivalent(&out.lists, &expect, 1e-9), "{}", variant.name());
    }
}

#[test]
fn all_duplicate_probes() {
    let probes = VectorStore::from_rows(&vec![vec![0.6, 0.8]; 40]).unwrap();
    let queries = GeneratorConfig::gaussian(8, 2, 0.3).generate(3);
    let (expect, _) = Naive.above_theta(&queries, &probes, 0.5);
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.above_theta(&queries, 0.5);
        assert_eq!(canonical_pairs(&out.entries), canonical_pairs(&expect), "{}", variant.name());
    }
}

#[test]
fn single_probe_and_single_query() {
    let probes = VectorStore::from_rows(&[vec![1.0, 2.0, 2.0]]).unwrap();
    let queries = VectorStore::from_rows(&[vec![3.0, 0.0, 0.0]]).unwrap();
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.above_theta(&queries, 2.0);
        assert_eq!(out.entries.len(), 1, "{}", variant.name());
        assert!((out.entries[0].value - 3.0).abs() < 1e-9);
        let out = engine.row_top_k(&queries, 3);
        assert_eq!(out.lists[0].len(), 1);
    }
}

#[test]
fn dimension_one_vectors() {
    let probes = VectorStore::from_rows(&[vec![2.0], vec![-1.0], vec![0.5], vec![3.0]]).unwrap();
    let queries = VectorStore::from_rows(&[vec![1.5], vec![-2.0]]).unwrap();
    let (expect, _) = Naive.above_theta(&queries, &probes, 1.0);
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.above_theta(&queries, 1.0);
        assert_eq!(canonical_pairs(&out.entries), canonical_pairs(&expect), "{}", variant.name());
    }
    let (expect, _) = Naive.row_top_k(&queries, &probes, 2);
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.row_top_k(&queries, 2);
        assert!(topk_equivalent(&out.lists, &expect, 1e-9), "{}", variant.name());
    }
}

#[test]
fn negative_theta_returns_bulk_results() {
    let probes = GeneratorConfig::gaussian(30, 4, 0.5).generate(4);
    let queries = GeneratorConfig::gaussian(5, 4, 0.5).generate(5);
    // θ far below the minimum: every pair qualifies.
    let (expect, _) = Naive.above_theta(&queries, &probes, -100.0);
    assert_eq!(expect.len(), 150);
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.above_theta(&queries, -100.0);
        assert_eq!(out.entries.len(), 150, "{}", variant.name());
    }
}

#[test]
fn extreme_length_spread_does_not_break_math() {
    // 6 orders of magnitude of length spread: thresholds and feasible
    // regions go through extreme values.
    let rows: Vec<Vec<f64>> =
        (0..60).map(|i| vec![10f64.powi(i % 7 - 3), 0.5 * (i as f64).cos()]).collect();
    let probes = VectorStore::from_rows(&rows).unwrap();
    let queries = GeneratorConfig::gaussian(10, 2, 2.0).generate(6);
    let theta = lemp::data::calibrate::exact_theta(&queries, &probes, 40).unwrap();
    let (expect, _) = Naive.above_theta(&queries, &probes, theta);
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.above_theta(&queries, theta);
        assert_eq!(canonical_pairs(&out.entries), canonical_pairs(&expect), "{}", variant.name());
    }
}

#[test]
fn tiny_cache_budget_still_exact() {
    // Degenerate bucketization: cache budget below one vector's footprint
    // forces min-size buckets.
    let probes = GeneratorConfig::gaussian(150, 6, 1.0).generate(7);
    let queries = GeneratorConfig::gaussian(20, 6, 1.0).generate(8);
    let theta = lemp::data::calibrate::exact_theta(&queries, &probes, 100).unwrap();
    let (expect, _) = Naive.above_theta(&queries, &probes, theta);
    let policy = lemp::BucketPolicy { cache_bytes: 1, min_bucket: 2, ..Default::default() };
    let mut engine = Lemp::builder().policy(policy).sample_size(4).build(&probes);
    assert!(engine.buckets().bucket_count() > 30);
    let out = engine.above_theta(&queries, theta);
    assert_eq!(canonical_pairs(&out.entries), canonical_pairs(&expect));
}

#[test]
fn repeated_runs_are_deterministic() {
    let probes = GeneratorConfig::gaussian(120, 8, 1.0).generate(9);
    let queries = GeneratorConfig::gaussian(15, 8, 1.0).generate(10);
    let mut engine = Lemp::builder().sample_size(5).build(&probes);
    let a = engine.above_theta(&queries, 0.8);
    let b = engine.above_theta(&queries, 0.8);
    assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
    // And across fresh engines (fresh lazy indexes, fresh tuning).
    let mut engine2 = Lemp::builder().sample_size(5).build(&probes);
    let c = engine2.above_theta(&queries, 0.8);
    assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&c.entries));
}

#[test]
fn counters_are_consistent() {
    let probes = GeneratorConfig::gaussian(200, 8, 1.0).generate(11);
    let queries = GeneratorConfig::gaussian(30, 8, 1.0).generate(12);
    let theta = lemp::data::calibrate::exact_theta(&queries, &probes, 300).unwrap();
    for variant in exact_variants() {
        let mut engine = engine_for(&probes, variant);
        let out = engine.above_theta(&queries, theta);
        let c = &out.stats.counters;
        assert_eq!(c.queries, 30, "{}", variant.name());
        assert_eq!(c.results, out.entries.len() as u64, "{}", variant.name());
        assert!(c.retrieval_ns > 0, "{}", variant.name());
        // Verified exact methods never report fewer candidates than results.
        assert!(c.candidates >= c.results, "{}", variant.name());
    }
}

#[test]
fn blsh_false_negatives_are_bounded_not_silent() {
    // Failure injection for the approximate method: shrink the signature to
    // 4 bits — pruning gets aggressive, but reported entries must still all
    // be true positives (no false positives ever).
    let probes = GeneratorConfig::gaussian(300, 10, 1.0).generate(13);
    let queries = GeneratorConfig::gaussian(40, 10, 1.0).generate(14);
    let theta = lemp::data::calibrate::exact_theta(&queries, &probes, 400).unwrap();
    let mut engine =
        Lemp::builder().variant(LempVariant::Blsh).blsh(4, 0.03).sample_size(4).build(&probes);
    let out = engine.above_theta(&queries, theta);
    for e in &out.entries {
        let dot = lemp::linalg::kernels::dot(
            queries.vector(e.query as usize),
            probes.vector(e.probe as usize),
        );
        assert!(dot >= theta - 1e-9, "false positive reported");
        assert!((dot - e.value).abs() < 1e-9);
    }
}

// ── Edge cases for the extension APIs (abs, floor, adaptive) ────────────

#[test]
fn abs_above_with_degenerate_inputs() {
    use lemp::Entry;
    // Single dimension, single probe: the two passes must not duplicate.
    let p = VectorStore::from_rows(&[vec![2.0]]).unwrap();
    let q = VectorStore::from_rows(&[vec![1.0], vec![-1.0], vec![0.0]]).unwrap();
    let mut engine = Lemp::new(&p);
    let out = run(&mut engine, &q, QueryRequest::abs_above_theta(1.5)).into_above();
    let mut got: Vec<Entry> = out.entries.clone();
    got.sort_by_key(|e| e.query);
    assert_eq!(got.len(), 2);
    assert_eq!((got[0].query, got[0].value), (0, 2.0));
    assert_eq!((got[1].query, got[1].value), (1, -2.0));
    // Zero queries: nothing qualifies (|0| < θ).
    let zeros = VectorStore::from_rows(&[vec![0.0]]).unwrap();
    let abs = QueryRequest::abs_above_theta(0.1);
    assert!(run(&mut engine, &zeros, abs).entries().unwrap().is_empty());
    // Empty query set.
    let empty = VectorStore::empty(1).unwrap();
    assert!(run(&mut engine, &empty, abs).entries().unwrap().is_empty());
}

#[test]
fn abs_above_duplicate_probes_report_each_copy() {
    let p = VectorStore::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![-1.0, -1.0]]).unwrap();
    let q = VectorStore::from_rows(&[vec![2.0, 0.0]]).unwrap();
    let mut engine = Lemp::new(&p);
    let out = run(&mut engine, &q, QueryRequest::abs_above_theta(1.9));
    let pairs = canonical_pairs(out.entries().unwrap());
    assert_eq!(pairs, vec![(0, 0), (0, 1), (0, 2)]);
}

#[test]
fn floored_topk_with_all_variants_on_duplicates() {
    // Duplicates straddling the floor: every exact variant must agree on
    // the *set* sizes (ties within equal scores may order differently).
    let p =
        VectorStore::from_rows(&[vec![3.0, 0.0], vec![3.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]])
            .unwrap();
    let q = VectorStore::from_rows(&[vec![1.0, 0.0]]).unwrap();
    for variant in exact_variants() {
        let mut engine = engine_for(&p, variant);
        let out = run(&mut engine, &q, QueryRequest::top_k_with_floor(4, 2.0)).into_top_k();
        assert_eq!(out.lists[0].len(), 2, "{}", variant.name());
        assert!(out.lists[0].iter().all(|i| i.score == 3.0), "{}", variant.name());
    }
}

#[test]
fn floor_between_negative_scores() {
    // All inner products negative; a negative floor must still rank and
    // filter correctly (Row-Top-k warm-up runs with negative θ′).
    let p = VectorStore::from_rows(&[vec![-1.0, 0.0], vec![-2.0, 0.0], vec![-3.0, 0.0]]).unwrap();
    let q = VectorStore::from_rows(&[vec![1.0, 0.0]]).unwrap();
    let mut engine = Lemp::new(&p);
    let out = run(&mut engine, &q, QueryRequest::top_k_with_floor(3, -2.5)).into_top_k();
    let ids: Vec<usize> = out.lists[0].iter().map(|i| i.id).collect();
    assert_eq!(ids, vec![0, 1], "keeps −1 and −2, drops −3");
}

#[test]
fn adaptive_degenerate_configurations_stay_exact() {
    use lemp::{AdaptiveConfig, BanditPolicy};
    let probes = GeneratorConfig::gaussian(150, 6, 1.0).generate(71);
    let queries = GeneratorConfig::gaussian(20, 6, 0.7).generate(72);
    let (expect, _) = Naive.above_theta(&queries, &probes, 0.8);
    for acfg in [
        // One context bin: the bandit cannot learn a t_b switch at all.
        AdaptiveConfig { theta_bins: 1, ..Default::default() },
        // Two arms only: LENGTH vs COORD(1).
        AdaptiveConfig { max_phi: 1, ..Default::default() },
        // Absurdly many bins: most stay empty.
        AdaptiveConfig { theta_bins: 64, ..Default::default() },
        // Pure random selection forever.
        AdaptiveConfig {
            policy: BanditPolicy::EpsilonGreedy { epsilon: 1.0, seed: 9 },
            ..Default::default()
        },
    ] {
        let mut engine = Lemp::new(&probes);
        engine.warm(&queries, lemp::core::WarmGoal::Above(0.8));
        let mut scratch = engine.query_scratch();
        let out =
            engine.run(&QueryRequest::above_theta(0.8).adaptive(acfg), &queries, &mut scratch);
        let entries = out.entries().unwrap();
        assert_eq!(canonical_pairs(entries), canonical_pairs(&expect), "{acfg:?} diverged");
        let report = &scratch.adaptive_reports()[0];
        assert_eq!(report.total_pulls(), out.stats.method_mix.total());
    }
}

#[test]
fn adaptive_handles_zero_and_single_probe_buckets() {
    use lemp::AdaptiveConfig;
    let p = VectorStore::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.5], vec![4.0, -1.0]]).unwrap();
    let q = VectorStore::from_rows(&[vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
    let (expect, _) = Naive.above_theta(&q, &p, -0.5); // θ ≤ 0 reaches zero buckets
    let mut engine = Lemp::new(&p);
    let adaptive = QueryRequest::above_theta(-0.5).adaptive(AdaptiveConfig::default());
    let out = run(&mut engine, &q, adaptive);
    assert_eq!(canonical_pairs(out.entries().unwrap()), canonical_pairs(&expect));
    let (expect_k, _) = Naive.row_top_k(&q, &p, 2);
    let out = run(&mut engine, &q, QueryRequest::top_k(2).adaptive(AdaptiveConfig::default()));
    assert!(topk_equivalent(out.lists().unwrap(), &expect_k, 1e-9));
}
