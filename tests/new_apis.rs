//! Integration tests for the extension APIs — |Above-θ|, floored Row-Top-k
//! and adaptive selection, all requests of the unified query surface —
//! across crate boundaries: persisted engine images, multi-threaded
//! configurations, and the facade re-exports.

use lemp::baselines::types::{canonical_pairs, topk_equivalent};
use lemp::baselines::Naive;
use lemp::data::synthetic::GeneratorConfig;
use lemp::linalg::VectorStore;
use lemp::{
    AdaptiveConfig, AdaptiveReport, BanditPolicy, Engine, Lemp, LempVariant, QueryRequest,
    QueryResponse,
};

fn data(m: usize, n: usize, cov: f64, seed: u64) -> (VectorStore, VectorStore) {
    let q = GeneratorConfig::gaussian(m, 12, cov).generate(seed);
    let p = GeneratorConfig::gaussian(n, 12, cov).generate(seed + 1);
    (q, p)
}

/// Warms `engine` on `queries` for `request` and runs it; also returns
/// what the adaptive bandits learned (empty for tuned requests).
fn run(
    engine: &mut Lemp,
    queries: &VectorStore,
    request: QueryRequest,
) -> (QueryResponse, Vec<AdaptiveReport>) {
    engine.warm(queries, request.kind.warm_goal());
    let mut scratch = engine.query_scratch();
    let out = engine.run(&request, queries, &mut scratch);
    (out, scratch.adaptive_reports())
}

fn temp(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("lemp-new-apis-{tag}-{}.eng", std::process::id()));
    p
}

#[test]
fn abs_above_on_reloaded_engine_matches_fresh() {
    let (q, p) = data(40, 300, 1.0, 9000);
    let theta = 1.1;
    let mut fresh = Lemp::builder().variant(LempVariant::LI).build(&p);
    let path = temp("abs");
    fresh.save(&path).unwrap();
    let (expect, _) = run(&mut fresh, &q, QueryRequest::abs_above_theta(theta));
    assert!(!expect.entries().unwrap().is_empty(), "fixture must produce results");

    let mut loaded = Lemp::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let (got, _) = run(&mut loaded, &q, QueryRequest::abs_above_theta(theta));
    assert_eq!(canonical_pairs(got.entries().unwrap()), canonical_pairs(expect.entries().unwrap()));
}

#[test]
fn abs_above_runs_multithreaded() {
    let (q, p) = data(50, 250, 0.9, 9100);
    let theta = 0.9;
    let mut serial = Lemp::builder().build(&p);
    let mut parallel = Lemp::builder().threads(4).build(&p);
    let a = run(&mut serial, &q, QueryRequest::abs_above_theta(theta)).0.into_above();
    let b = run(&mut parallel, &q, QueryRequest::abs_above_theta(theta)).0.into_above();
    assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
    assert!(a.entries.iter().any(|e| e.value < 0.0), "two-sided fixture");
}

#[test]
fn floored_topk_across_variants() {
    let (q, p) = data(25, 200, 0.8, 9200);
    let k = 4;
    // A floor from the data: the median 2nd-best value, nudged off-score.
    let (full, _) = Naive.row_top_k(&q, &p, 2);
    let mut seconds: Vec<f64> = full.iter().map(|l| l[1].score).collect();
    seconds.sort_by(f64::total_cmp);
    let floor = seconds[seconds.len() / 2] + 1e-7;

    let mut reference: Option<Vec<Vec<usize>>> = None;
    for variant in [LempVariant::L, LempVariant::I, LempVariant::LI, LempVariant::Ta] {
        let mut engine = Lemp::builder().variant(variant).sample_size(6).build(&p);
        let out = run(&mut engine, &q, QueryRequest::top_k_with_floor(k, floor)).0.into_top_k();
        for list in &out.lists {
            assert!(list.iter().all(|i| i.score >= floor), "{}", variant.name());
            assert!(list.len() <= k);
        }
        let ids: Vec<Vec<usize>> =
            out.lists.iter().map(|l| l.iter().map(|i| i.id).collect()).collect();
        match &reference {
            None => reference = Some(ids),
            Some(expect) => assert_eq!(&ids, expect, "{} diverges", variant.name()),
        }
    }
}

#[test]
fn adaptive_on_reloaded_engine_matches_naive() {
    let (q, p) = data(30, 250, 1.1, 9300);
    let engine = Lemp::builder().build(&p);
    let path = temp("adaptive");
    engine.save(&path).unwrap();
    let mut loaded = Lemp::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let acfg = AdaptiveConfig {
        policy: BanditPolicy::EpsilonGreedy { epsilon: 0.2, seed: 3 },
        ..Default::default()
    };
    let (expect, _) = Naive.above_theta(&q, &p, 1.0);
    let (out, reports) = run(&mut loaded, &q, QueryRequest::above_theta(1.0).adaptive(acfg));
    assert_eq!(canonical_pairs(out.entries().unwrap()), canonical_pairs(&expect));
    assert_eq!(reports[0].buckets.len(), loaded.buckets().bucket_count());

    let (expect_k, _) = Naive.row_top_k(&q, &p, 5);
    let (out, _) = run(&mut loaded, &q, QueryRequest::top_k(5).adaptive(acfg));
    assert!(topk_equivalent(out.lists().unwrap(), &expect_k, 1e-9));
}

#[test]
fn adaptive_report_names_align_with_arm_stats() {
    let (q, p) = data(40, 200, 0.7, 9400);
    let mut engine = Lemp::new(&p);
    let (_, reports) = run(&mut engine, &q, QueryRequest::top_k(3).adaptive(Default::default()));
    let report = &reports[0];
    assert!(!report.arm_names.is_empty());
    assert_eq!(report.arm_names[0], "LENGTH");
    for bins in &report.buckets {
        for bin in bins {
            assert_eq!(bin.arms.len(), report.arm_names.len());
            assert!(bin.lo < bin.hi);
            if let Some(best) = bin.best_arm {
                assert!(best < report.arm_names.len());
                assert!(bin.arms[best].pulls > 0, "best arm must have been pulled");
            }
        }
    }
}

#[test]
fn floor_interacts_with_streaming_column_top_k_reversal() {
    // Column-Top-k is Row-Top-k with roles reversed (Sec. 2); a floored
    // row query against the transposed role assignment must agree with
    // the brute-force scan on the same orientation.
    let (q, p) = data(20, 60, 0.6, 9500);
    let k = 3;
    let floor = 0.4;
    let mut engine = Lemp::builder().sample_size(4).build(&q); // probes := Q
    let out = run(&mut engine, &p, QueryRequest::top_k_with_floor(k, floor)).0.into_top_k();
    for (j, list) in out.lists.iter().enumerate() {
        let mut expect: Vec<(usize, f64)> = (0..q.len())
            .map(|i| (i, p.dot_between(j, &q, i)))
            .filter(|&(_, v)| v >= floor)
            .collect();
        expect.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
        expect.truncate(k);
        let got: Vec<usize> = list.iter().map(|i| i.id).collect();
        let want: Vec<usize> = expect.iter().map(|&(i, _)| i).collect();
        assert_eq!(got, want, "column {j}");
    }
}
