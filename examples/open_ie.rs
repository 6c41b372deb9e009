//! Open information extraction scenario: retrieve all high-confidence facts
//! from a factorized argument–pattern matrix (the paper's IE-NMF workload).
//!
//! Riedel et al. factorize a binary matrix of (subject, object) arguments ×
//! verbal patterns; large entries of the reconstructed product are predicted
//! facts. This example generates NMF-like factors with the statistics of the
//! paper's IE-NMF dataset (Table 1: sparse, non-negative, extreme length
//! skew — CoV 5.53 on the probe side) and solves Above-θ at a θ calibrated
//! to a target result size, exactly like the paper's @recall-level
//! experiments.
//!
//! The second half switches to SVD factors (signed values) and uses
//! `abs_above_theta` to retrieve *both* ends of the confidence scale: the
//! paper's intro motivates exactly this — matrix factorization is used "to
//! predict additional facts, **spot unlikely facts**, and reason about
//! verbal phrases". Strongly negative entries are the unlikely facts.
//!
//! Run with: `cargo run --release --example open_ie`

use std::time::Instant;

use lemp::baselines::types::canonical_pairs;
use lemp::baselines::Naive;
use lemp::core::WarmGoal;
use lemp::data::calibrate;
use lemp::data::datasets::Dataset;
use lemp::{Engine, Lemp, LempVariant, QueryRequest};

fn main() {
    // IE-NMF at 1/200 of the paper's size: ~3.9K patterns × 660 arguments.
    let spec = Dataset::IeNmf.spec().scaled(0.005);
    println!(
        "dataset {} (scaled): {} queries × {} probes, r = {}",
        spec.name, spec.m, spec.n, spec.dim
    );
    let (queries, probes) = spec.generate(11);

    // Calibrate θ so that ≈ 2000 facts qualify (an @2k recall level).
    let target = 2_000;
    let theta = calibrate::sampled_theta(&queries, &probes, target, 200_000, 3)
        .expect("valid calibration target");
    println!("calibrated θ = {theta:.4} for ≈ {target} high-confidence facts");

    // LEMP-LI vs naive.
    let t = Instant::now();
    let mut engine = Lemp::builder().variant(LempVariant::LI).build(&probes);
    let out = engine.above_theta(&queries, theta);
    let lemp_time = t.elapsed();

    let t = Instant::now();
    let (naive_entries, _) = Naive.above_theta(&queries, &probes, theta);
    let naive_time = t.elapsed();

    assert_eq!(
        canonical_pairs(&out.entries),
        canonical_pairs(&naive_entries),
        "LEMP and Naive disagree"
    );

    println!("\nretrieved {} predicted facts:", out.entries.len());
    let mut strongest = out.entries.clone();
    strongest.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap());
    for e in strongest.iter().take(5) {
        println!("  pattern {:>5} × argument {:>5} (confidence {:.3})", e.query, e.probe, e.value);
    }

    println!("\ntimings:");
    println!("  naive: {naive_time:.2?}  ({} inner products)", queries.len() * probes.len());
    println!(
        "  LEMP : {lemp_time:.2?}  ({} candidates, {:.1} per query)",
        out.stats.counters.candidates,
        out.stats.counters.candidates_per_query()
    );
    println!(
        "  speedup {:.1}x — length skew lets LEMP prune most buckets outright",
        naive_time.as_secs_f64() / lemp_time.as_secs_f64()
    );

    // ── Part 2: unlikely facts via |Above-θ| on signed SVD factors ──────
    // NMF factors are non-negative, so every predicted confidence is ≥ 0;
    // spotting *unlikely* facts needs the signed SVD factorization.
    let spec = Dataset::IeSvd.spec().scaled(0.005);
    println!("\ndataset {} (scaled): {} queries × {} probes", spec.name, spec.m, spec.n);
    let (queries, probes) = spec.generate(23);
    let theta = calibrate::sampled_theta(&queries, &probes, 1_000, 200_000, 5)
        .expect("valid calibration target");

    let mut engine = Lemp::builder().variant(LempVariant::LI).build(&probes);
    engine.warm(&queries, WarmGoal::Above(theta));
    let request = QueryRequest::abs_above_theta(theta);
    let out = engine.run(&request, &queries, &mut engine.query_scratch()).into_above();
    let likely = out.entries.iter().filter(|e| e.value > 0.0).count();
    let unlikely = out.entries.len() - likely;
    println!("|entry| ≥ {theta:.4}: {likely} high-confidence facts, {unlikely} unlikely facts");
    let mut most_unlikely: Vec<_> = out.entries.iter().filter(|e| e.value < 0.0).collect();
    most_unlikely.sort_by(|a, b| a.value.partial_cmp(&b.value).unwrap());
    for e in most_unlikely.iter().take(3) {
        println!(
            "  pattern {:>5} × argument {:>5} is contradicted (score {:.3})",
            e.query, e.probe, e.value
        );
    }
}
