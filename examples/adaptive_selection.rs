//! Online (bandit) algorithm selection — the paper's Sec. 4.4 outlook.
//!
//! The sample-based tuner measures a handful of queries up front and fixes
//! per-bucket parameters; the adaptive driver instead learns *while
//! retrieving*: each (bucket, local-threshold-bin) is a multi-armed bandit
//! over {LENGTH, COORD/INCR(φ)}. Every arm is exact, so the answer is
//! always the same — the bandit only decides how fast it arrives.
//!
//! This example runs both on a skewed IE-SVDᵀ workload, verifies the
//! results agree, and prints what one bucket's bandits learned: which arm
//! each θ_b bin converged to, which is the learned analogue of the tuner's
//! `t_b` switch point.
//!
//! Run with: `cargo run --release --example adaptive_selection`

use std::time::Instant;

use lemp::baselines::types::topk_equivalent;
use lemp::core::WarmGoal;
use lemp::data::datasets::Dataset;
use lemp::{AdaptiveConfig, BanditPolicy, Engine, Lemp, LempVariant, QueryRequest};

fn main() {
    let spec = Dataset::IeSvdT.spec().scaled(0.008);
    println!("dataset {}: {} queries × {} probes", spec.name, spec.m, spec.n);
    let (queries, probes) = spec.generate(11);
    let k = 10;

    // Baseline: the paper's sample-based tuner (Sec. 4.4).
    let t = Instant::now();
    let mut tuned = Lemp::builder().variant(LempVariant::LI).build(&probes);
    let tuned_out = tuned.row_top_k(&queries, k);
    let tuned_secs = t.elapsed().as_secs_f64();

    // Adaptive: UCB1 bandits, LI flavor (LENGTH + INCR arms), on a warmed
    // engine. The bandit does not use the tuner, so the warm-up's tuning
    // time is not charged to it.
    let acfg = AdaptiveConfig { policy: BanditPolicy::Ucb1 { c: 1.0 }, ..Default::default() };
    let t = Instant::now();
    let mut adaptive = Lemp::new(&probes);
    let warmed = adaptive.warm(&queries, WarmGoal::TopK(k));
    let request = QueryRequest::top_k(k).adaptive(acfg);
    let mut scratch = adaptive.query_scratch();
    let adaptive_out = adaptive.run(&request, &queries, &mut scratch).into_top_k();
    let adaptive_secs = t.elapsed().as_secs_f64() - warmed.tune_ns as f64 / 1e9;
    let report = scratch.adaptive_reports().remove(0);

    assert!(
        topk_equivalent(&adaptive_out.lists, &tuned_out.lists, 1e-9),
        "exactness invariant: adaptive must return the tuned result"
    );
    println!("\nRow-Top-{k}: results identical (exactness holds under any policy)");
    println!("  tuned LEMP-LI : {:7.1} ms", tuned_secs * 1e3);
    println!("  adaptive UCB1 : {:7.1} ms", adaptive_secs * 1e3);
    println!(
        "  method mix    : tuned {:.0}% LENGTH — adaptive {:.0}% LENGTH",
        100.0 * tuned_out.stats.method_mix.length_share(),
        100.0 * adaptive_out.stats.method_mix.length_share(),
    );

    // Show the learning state of the busiest bucket: per θ_b bin, the arm
    // the bandit would exploit now. Low bins should prefer LENGTH, high
    // bins a coordinate method — the bandit's version of the tuner's t_b.
    let busiest = report
        .buckets
        .iter()
        .enumerate()
        .max_by_key(|(_, bins)| {
            bins.iter().flat_map(|b| b.arms.iter()).map(|a| a.pulls).sum::<u64>()
        })
        .map(|(b, _)| b)
        .unwrap_or(0);
    println!("\nlearned policy of bucket {busiest} (the busiest one):");
    println!("  {:>14}  {:>7}  {:<12}  per-arm pulls", "θ_b bin", "pulls", "exploits");
    for bin in &report.buckets[busiest] {
        let pulls: u64 = bin.arms.iter().map(|a| a.pulls).sum();
        let exploit = match bin.best_arm {
            Some(a) => report.arm_names[a].clone(),
            None => "—".to_string(),
        };
        let detail: Vec<String> = bin
            .arms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.pulls > 0)
            .map(|(i, a)| format!("{}×{}", report.arm_names[i], a.pulls))
            .collect();
        let range = format!("[{:.2}, {:.2})", bin.lo, bin.hi);
        println!("  {range:>14}  {pulls:>7}  {exploit:<12}  {}", detail.join("  "));
    }

    // Warm reuse: a long-lived service keeps its scratch (and with it the
    // learning state) across calls, so the second batch starts from the
    // learned state instead of exploring from scratch.
    let mut scratch = adaptive.query_scratch();
    let t = Instant::now();
    let cold = adaptive.run(&request, &queries, &mut scratch).into_top_k();
    let cold_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = adaptive.run(&request, &queries, &mut scratch).into_top_k();
    let warm_secs = t.elapsed().as_secs_f64();
    assert!(topk_equivalent(&warm.lists, &cold.lists, 1e-9));
    println!(
        "\nwarm reuse of one scratch: first batch {:.1} ms, second batch {:.1} ms \
         ({} total pulls recorded)",
        cold_secs * 1e3,
        warm_secs * 1e3,
        scratch.adaptive_reports()[0].total_pulls()
    );
}
