//! Property-based tests (proptest) on the core invariants of the paper's
//! machinery.

use lemp::core::bounds::{feasible_region, local_threshold, max_cosine_given_coord};
use lemp::core::bucket::{BucketPolicy, ProbeBuckets};
use lemp::linalg::{kernels, stats, TopK, VectorStore};
use lemp::{Engine, Lemp, QueryRequest, QueryResponse};
use proptest::prelude::*;

/// Warms `engine` on `queries` for `request` and runs it through the
/// unified query surface.
fn run_warm(engine: &mut Lemp, queries: &VectorStore, request: QueryRequest) -> QueryResponse {
    engine.warm(queries, request.kind.warm_goal());
    engine.run(&request, queries, &mut engine.query_scratch())
}

/// A random vector store: `n` vectors of dimension `dim` with values and
/// per-vector scales drawn from the given ranges.
fn store_strategy(
    n: std::ops::Range<usize>,
    dim: std::ops::Range<usize>,
) -> impl Strategy<Value = VectorStore> {
    (n, dim).prop_flat_map(|(n, dim)| {
        proptest::collection::vec(proptest::collection::vec(-3.0f64..3.0, dim..=dim), n..=n)
            .prop_map(move |rows| VectorStore::from_rows(&rows).expect("finite rows"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Sec. 4.2: any unit vector pair with cosine ≥ θ̂ has every coordinate
    /// of p̄ inside the feasible region of the matching q̄ coordinate.
    #[test]
    fn feasible_region_soundness(
        qf in -1.0f64..1.0,
        th in -1.2f64..1.0,
        x in -1.0f64..1.0,
    ) {
        let (lo, hi) = feasible_region(qf, th);
        if max_cosine_given_coord(qf, x) >= th {
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9,
                "feasible x={x} outside [{lo}, {hi}] for qf={qf}, th={th}");
        }
    }

    /// The region is monotone: raising the threshold never widens it.
    #[test]
    fn feasible_region_monotone_in_threshold(
        qf in -1.0f64..1.0,
        th1 in -1.0f64..1.0,
        delta in 0.0f64..0.5,
    ) {
        let th2 = (th1 + delta).min(1.0);
        let (lo1, hi1) = feasible_region(qf, th1);
        let (lo2, hi2) = feasible_region(qf, th2);
        prop_assert!(lo2 >= lo1 - 1e-9);
        prop_assert!(hi2 <= hi1 + 1e-9);
    }

    /// Local thresholds scale inversely with both lengths (Eq. 3).
    #[test]
    fn local_threshold_scaling(
        theta in 0.01f64..10.0,
        q in 0.01f64..10.0,
        lb in 0.01f64..10.0,
        f in 1.0f64..4.0,
    ) {
        let t = local_threshold(theta, q, lb);
        prop_assert!((local_threshold(theta, q * f, lb) - t / f).abs() < 1e-9 * t.abs().max(1.0));
        prop_assert!((local_threshold(theta * f, q, lb) - t * f).abs() < 1e-9 * (t * f).abs().max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Bucketization is a partition ordered by length with correct metadata.
    #[test]
    fn bucketization_invariants(store in store_strategy(1..120, 1..8), ratio in 0.5f64..1.0) {
        let policy = BucketPolicy { length_ratio: ratio, min_bucket: 5, cache_bytes: 16 << 10, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        let mut seen = vec![false; store.len()];
        let mut last_max = f64::INFINITY;
        for b in pb.buckets() {
            prop_assert!(!b.is_empty());
            prop_assert!(b.max_len <= last_max + 1e-12);
            last_max = b.max_len;
            prop_assert!((b.lengths[0] - b.max_len).abs() < 1e-9);
            for w in b.lengths.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-12);
            }
            for (lid, &id) in b.ids.iter().enumerate() {
                prop_assert!(!seen[id as usize]);
                seen[id as usize] = true;
                // length × direction reconstructs the original vector
                let orig = store.vector(id as usize);
                let dir = b.dirs.vector(lid);
                for (f, &o) in orig.iter().enumerate() {
                    prop_assert!((b.lengths[lid] * dir[f] - o).abs() < 1e-9);
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// TopK matches a full sort for arbitrary scores.
    #[test]
    fn topk_matches_sort(scores in proptest::collection::vec(-100.0f64..100.0, 0..80), k in 0usize..20) {
        let mut top = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            top.push(i, s);
        }
        let got: Vec<usize> = top.drain_sorted().into_iter().map(|x| x.id).collect();
        let mut expect: Vec<usize> = (0..scores.len()).collect();
        expect.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        expect.truncate(k);
        prop_assert_eq!(got, expect);
    }

    /// Quantiles are monotone and bounded by the extremes.
    #[test]
    fn quantiles_are_monotone(xs in proptest::collection::vec(-50.0f64..50.0, 1..60), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let a = stats::quantile(&xs, lo);
        let b = stats::quantile(&xs, hi);
        prop_assert!(a <= b + 1e-12);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-12 && b <= max + 1e-12);
    }

    /// Binary IO round-trips arbitrary stores exactly.
    #[test]
    fn binary_io_roundtrip(store in store_strategy(1..30, 1..6)) {
        let mut path = std::env::temp_dir();
        path.push(format!("lemp-prop-io-{}-{}", std::process::id(), store.as_flat().len()));
        lemp::data::io::write_binary(&store, &path).unwrap();
        let back = lemp::data::io::read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(store, back);
    }

    /// The dot kernel matches the naive sum for arbitrary vectors.
    #[test]
    fn dot_kernel_matches_reference(
        a in proptest::collection::vec(-10.0f64..10.0, 0..40),
    ) {
        let b: Vec<f64> = a.iter().rev().cloned().collect();
        let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let got = kernels::dot(&a, &b);
        prop_assert!((got - expect).abs() < 1e-9 * (1.0 + expect.abs()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole engine agrees with Naive on arbitrary inputs (the paper's
    /// exactness claim, as a property).
    #[test]
    fn lemp_li_is_exact_on_arbitrary_stores(
        probes in store_strategy(1..100, 1..6),
        queries in store_strategy(1..20, 1..6),
        theta in -1.0f64..5.0,
    ) {
        // Dimensions must match: regenerate queries at the probe dimension.
        let dim = probes.dim();
        let q_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|v| (0..dim).map(|f| v.get(f).copied().unwrap_or(0.41)).collect())
            .collect();
        let queries = VectorStore::from_rows(&q_rows).unwrap();

        use lemp::baselines::types::{canonical_pairs, topk_equivalent};
        use lemp::baselines::Naive;
        let (expect, _) = Naive.above_theta(&queries, &probes, theta);
        let mut engine = lemp::Lemp::builder().sample_size(4).build(&probes);
        let out = engine.above_theta(&queries, theta);
        prop_assert_eq!(canonical_pairs(&out.entries), canonical_pairs(&expect));

        let (expect_k, _) = Naive.row_top_k(&queries, &probes, 3);
        let out = engine.row_top_k(&queries, 3);
        prop_assert!(topk_equivalent(&out.lists, &expect_k, 1e-9));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The AVX2 kernels are bit-identical to the scalar reference on
    /// arbitrary inputs (same per-lane operation order, no FMA). Skipped on
    /// machines without AVX2. Forcing the ISA is safe under concurrent
    /// tests precisely because of the property being verified.
    #[test]
    fn simd_dot_and_dist_are_bit_identical_to_scalar(
        a in proptest::collection::vec(-100.0f64..100.0, 0..120),
    ) {
        use lemp::linalg::simd;
        if simd::avx2_supported() {
            let b: Vec<f64> = a.iter().rev().map(|x| x * 0.7 - 0.1).collect();
            let prev = simd::override_isa(simd::Isa::Scalar);
            let dot_s = kernels::dot(&a, &b);
            let dist_s = kernels::dist_sq(&a, &b);
            simd::override_isa(simd::Isa::Avx2);
            let dot_v = kernels::dot(&a, &b);
            let dist_v = kernels::dist_sq(&a, &b);
            simd::override_isa(prev);
            prop_assert_eq!(dot_s.to_bits(), dot_v.to_bits());
            prop_assert_eq!(dist_s.to_bits(), dist_v.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// |Above-θ| equals the brute-force two-sided scan, with exact signed
    /// values, on arbitrary stores.
    #[test]
    fn abs_above_theta_is_exact(
        probes in store_strategy(1..80, 2..6),
        queries in store_strategy(1..15, 2..6),
        theta in 0.05f64..4.0,
    ) {
        let dim = probes.dim();
        let q_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|v| (0..dim).map(|f| v.get(f).copied().unwrap_or(-0.3)).collect())
            .collect();
        let queries = VectorStore::from_rows(&q_rows).unwrap();

        let mut expect: Vec<(u32, u32)> = Vec::new();
        for i in 0..queries.len() {
            for j in 0..probes.len() {
                if queries.dot_between(i, &probes, j).abs() >= theta {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        expect.sort_unstable();
        let mut engine = lemp::Lemp::builder().sample_size(4).build(&probes);
        let out = run_warm(&mut engine, &queries, QueryRequest::abs_above_theta(theta)).into_above();
        use lemp::baselines::types::canonical_pairs;
        prop_assert_eq!(canonical_pairs(&out.entries), expect);
        for e in &out.entries {
            let v = queries.dot_between(e.query as usize, &probes, e.probe as usize);
            prop_assert_eq!(v.to_bits(), e.value.to_bits());
        }
    }

    /// Row-Top-k with a floor equals the plain Row-Top-k filtered by the
    /// floor, whenever the floor is not within rounding distance of any
    /// score (tied boundaries may legally differ).
    #[test]
    fn floored_topk_equals_filtered_topk(
        probes in store_strategy(2..80, 2..6),
        queries in store_strategy(1..12, 2..6),
        k in 1usize..6,
        pick in 0.0f64..1.0,
    ) {
        let dim = probes.dim();
        let q_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|v| (0..dim).map(|f| v.get(f).copied().unwrap_or(0.9)).collect())
            .collect();
        let queries = VectorStore::from_rows(&q_rows).unwrap();

        let mut engine = lemp::Lemp::builder().sample_size(4).build(&probes);
        let plain = run_warm(&mut engine, &queries, QueryRequest::top_k(k)).into_top_k();
        // Floor at a score quantile, nudged off every observed score.
        let mut scores: Vec<f64> = plain.lists.iter().flatten().map(|i| i.score).collect();
        prop_assume!(!scores.is_empty());
        scores.sort_by(f64::total_cmp);
        let idx = ((scores.len() - 1) as f64 * pick) as usize;
        let floor = scores[idx] + 1e-7;
        prop_assume!(scores.iter().all(|s| (s - floor).abs() > 1e-9));

        let mut scratch = engine.query_scratch();
        let floored =
            engine.run(&QueryRequest::top_k_with_floor(k, floor), &queries, &mut scratch).into_top_k();
        for (plain_list, floored_list) in plain.lists.iter().zip(&floored.lists) {
            let expect: Vec<usize> = plain_list
                .iter()
                .filter(|i| i.score >= floor)
                .map(|i| i.id)
                .collect();
            let got: Vec<usize> = floored_list.iter().map(|i| i.id).collect();
            prop_assert_eq!(got, expect);
            prop_assert!(floored_list.iter().all(|i| i.score >= floor));
        }
    }

    /// The adaptive driver is exact under arbitrary bandit hyperparameters
    /// (a bad policy can only be slow, never wrong).
    #[test]
    fn adaptive_is_exact_under_arbitrary_policies(
        probes in store_strategy(1..80, 2..6),
        queries in store_strategy(1..12, 2..6),
        theta in -0.5f64..3.0,
        epsilon in 0.0f64..1.0,
        seed in 0u64..1000,
        bins in 1usize..6,
    ) {
        let dim = probes.dim();
        let q_rows: Vec<Vec<f64>> = queries
            .iter()
            .map(|v| (0..dim).map(|f| v.get(f).copied().unwrap_or(0.2)).collect())
            .collect();
        let queries = VectorStore::from_rows(&q_rows).unwrap();

        use lemp::baselines::types::{canonical_pairs, topk_equivalent};
        use lemp::baselines::Naive;
        use lemp::{AdaptiveConfig, BanditPolicy};
        let acfg = AdaptiveConfig {
            policy: BanditPolicy::EpsilonGreedy { epsilon, seed },
            theta_bins: bins,
            ..Default::default()
        };
        let (expect, _) = Naive.above_theta(&queries, &probes, theta);
        let mut engine = lemp::Lemp::new(&probes);
        let out = run_warm(&mut engine, &queries, QueryRequest::above_theta(theta).adaptive(acfg));
        prop_assert_eq!(canonical_pairs(out.entries().unwrap()), canonical_pairs(&expect));

        let (expect_k, _) = Naive.row_top_k(&queries, &probes, 3);
        let out = run_warm(&mut engine, &queries, QueryRequest::top_k(3).adaptive(acfg));
        prop_assert!(topk_equivalent(out.lists().unwrap(), &expect_k, 1e-9));
    }
}
