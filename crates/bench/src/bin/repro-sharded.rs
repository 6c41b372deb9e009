//! Sharding conformance at Table-1 workload scale: for every base dataset,
//! run Row-Top-k and Above-θ through the naive scan, the unsharded engine,
//! and a [`ShardedLemp`] under both built-in policies, and **fail (exit 1)
//! on any divergence** — the CI smoke gate for the shard merge layer.
//! Also reports the sharded wall time next to the unsharded one (shard
//! fan-out across the machine's cores).
//!
//! Usage: `repro-sharded [scale=0.001] [seed=42] [shards=3] [k=10]`

use std::time::Instant;

use lemp_baselines::types::{canonical_pairs, topk_equivalent};
use lemp_baselines::Naive;
use lemp_bench::report::{preamble, print_table, Args};
use lemp_bench::workload::Workload;
use lemp_core::shard::ShardPolicy;
use lemp_core::{Engine, Lemp, QueryRequest, ShardedLemp, WarmGoal};
use lemp_data::datasets::Dataset;

fn main() {
    let args = Args::parse();
    let scale = args.get_f64("scale", 0.001);
    let seed = args.get_u64("seed", 42);
    let shards = args.get_u64("shards", 3).max(1) as usize;
    let k = args.get_u64("k", 10).max(1) as usize;
    preamble(&format!("Sharding conformance (S = {shards})"), scale, seed);

    let mut rows = Vec::new();
    let mut failures = 0usize;
    for ds in Dataset::all_base() {
        let w = Workload::new(ds, scale, seed);
        let theta = w.mid_theta(seed);

        let (naive_topk, _) = Naive.row_top_k(&w.queries, &w.probes, k);
        let (naive_above, _) = Naive.above_theta(&w.queries, &w.probes, theta);
        let naive_above = canonical_pairs(&naive_above);

        let mut single = Lemp::builder().build(&w.probes);
        single.warm(&w.queries, WarmGoal::TopK(k));
        let mut scratch = single.query_scratch();
        let single_start = Instant::now();
        let single_topk =
            single.run(&QueryRequest::top_k(k), &w.queries, &mut scratch).into_top_k();
        let single_s = single_start.elapsed().as_secs_f64();
        let single_above =
            single.run(&QueryRequest::above_theta(theta), &w.queries, &mut scratch).into_above();

        for policy in [ShardPolicy::RoundRobin, ShardPolicy::LengthBanded] {
            let label = match policy {
                ShardPolicy::RoundRobin => "rr",
                _ => "banded",
            };
            let mut engine = ShardedLemp::builder()
                .shards(shards)
                .policy(policy)
                .threads(shards)
                .build(&w.probes);
            engine.warm(&w.queries, WarmGoal::TopK(k));
            let mut scratch = engine.query_scratch();
            let sharded_start = Instant::now();
            let topk = engine.run(&QueryRequest::top_k(k), &w.queries, &mut scratch).into_top_k();
            let sharded_s = sharded_start.elapsed().as_secs_f64();
            let above = engine
                .run(&QueryRequest::above_theta(theta), &w.queries, &mut scratch)
                .into_above();

            let mut verdict = "ok";
            if !topk_equivalent(&topk.lists, &single_topk.lists, 0.0) {
                eprintln!("{} [{label}]: sharded top-{k} diverges from unsharded", w.name);
                verdict = "MISMATCH";
            }
            if !topk_equivalent(&topk.lists, &naive_topk, 1e-9) {
                eprintln!("{} [{label}]: sharded top-{k} diverges from naive", w.name);
                verdict = "MISMATCH";
            }
            if canonical_pairs(&above.entries) != naive_above
                || canonical_pairs(&single_above.entries) != naive_above
            {
                eprintln!("{} [{label}]: Above-θ = {theta:.4} diverges", w.name);
                verdict = "MISMATCH";
            }
            if verdict != "ok" {
                failures += 1;
            }
            rows.push(vec![
                w.name.clone(),
                label.to_string(),
                format!("{}", w.queries.len()),
                format!("{}", w.probes.len()),
                format!("{}", naive_above.len()),
                format!("{:.1} ms", single_s * 1e3),
                format!("{:.1} ms", sharded_s * 1e3),
                verdict.to_string(),
            ]);
        }
    }
    print_table(
        &format!("Sharded (S = {shards}) vs unsharded vs Naive"),
        &["Dataset", "Policy", "m", "n", "|Above-θ|", "Top-k 1 shard", "Top-k sharded", "Exact?"],
        &rows,
    );
    if failures > 0 {
        eprintln!("repro-sharded: {failures} conformance failure(s)");
        std::process::exit(1);
    }
    println!("\nall sharded runs byte-identical to the unsharded engine and exact vs Naive");
}
