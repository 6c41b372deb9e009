//! Ablation for the Sec. 4.4 outlook: "More elaborate approaches for
//! algorithm selection are possible, e.g., some form of reinforcement
//! learning." — does online bandit selection match the sample-based tuner?
//!
//! Compares the tuned LEMP-LI against the adaptive driver with UCB1 and
//! ε-greedy policies (arms: LENGTH + COORD/INCR φ ∈ 1..5, context: θ_b
//! bins), on one high-length-skew and one low-skew dataset, for both
//! problems. Every configuration is exact, so only time and the learned
//! method mix differ. The tuned rows time the one-shot driver (tuning,
//! lazy index builds, retrieval); the adaptive rows time a warm-up (every
//! arm's indexes) minus its tuning time, which the bandit does not use,
//! plus the adaptive execution.
//!
//! Usage: `cargo run --release --bin repro-ablation-adaptive [scale=0.01] [seed=42] [k=10]`

use std::time::Instant;

use lemp_bench::report::{fmt_secs, preamble, print_table, Args};
use lemp_bench::workload::Workload;
use lemp_core::{AdaptiveConfig, BanditPolicy, Engine, Lemp, LempVariant, QueryRequest, RunStats};
use lemp_data::datasets::Dataset;

struct Row {
    dataset: String,
    config: String,
    secs: f64,
    stats: RunStats,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.dataset.clone(),
            self.config.clone(),
            fmt_secs(self.secs),
            format!("{:.0}", self.stats.counters.candidates_per_query()),
            format!("{:.0}%", 100.0 * self.stats.method_mix.length_share()),
        ]
    }
}

fn adaptive_configs() -> Vec<(&'static str, AdaptiveConfig)> {
    vec![
        (
            "adaptive UCB1 (c=1)",
            AdaptiveConfig { policy: BanditPolicy::Ucb1 { c: 1.0 }, ..Default::default() },
        ),
        (
            "adaptive UCB1 (c=0, greedy)",
            AdaptiveConfig { policy: BanditPolicy::Ucb1 { c: 0.0 }, ..Default::default() },
        ),
        (
            "adaptive ε-greedy (ε=0.1)",
            AdaptiveConfig {
                policy: BanditPolicy::EpsilonGreedy { epsilon: 0.1, seed: 7 },
                ..Default::default()
            },
        ),
    ]
}

/// Seconds and statistics of one adaptive run on a fresh engine: build,
/// warm-up (every index build included) without the tuner's own time, and
/// the adaptive execution.
fn adaptive_run(w: &Workload, request: QueryRequest, acfg: AdaptiveConfig) -> (f64, RunStats) {
    let start = Instant::now();
    let mut engine = Lemp::new(&w.probes);
    let warm = engine.warm(&w.queries, request.kind.warm_goal());
    let out = engine.run(&request.adaptive(acfg), &w.queries, &mut engine.query_scratch());
    (start.elapsed().as_secs_f64() - warm.tune_ns as f64 / 1e9, out.stats)
}

fn main() {
    let args = Args::parse();
    let scale = args.get_f64("scale", 0.01);
    let seed = args.get_u64("seed", 42);
    let k = args.get_u64("k", 10) as usize;
    preamble("Sec. 4.4 ablation: sample-based tuner vs bandit selection", scale, seed);

    let mut topk_rows: Vec<Row> = Vec::new();
    let mut above_rows: Vec<Row> = Vec::new();
    for ds in [Dataset::IeSvdT, Dataset::Netflix] {
        let w = Workload::new(ds, scale, seed);

        // Row-Top-k: tuned baseline, then each bandit policy.
        let start = Instant::now();
        let mut engine = Lemp::builder().variant(LempVariant::LI).build(&w.probes);
        let out = engine.row_top_k(&w.queries, k);
        topk_rows.push(Row {
            dataset: w.name.clone(),
            config: "tuned LEMP-LI (Sec. 4.4)".into(),
            secs: start.elapsed().as_secs_f64(),
            stats: out.stats,
        });
        for (label, acfg) in adaptive_configs() {
            let (secs, stats) = adaptive_run(&w, QueryRequest::top_k(k), acfg);
            topk_rows.push(Row { dataset: w.name.clone(), config: label.into(), secs, stats });
        }

        // Above-θ at the mid recall level.
        let levels = w.recall_levels(seed);
        if let Some(level) = levels.get(levels.len() / 2) {
            let start = Instant::now();
            let mut engine = Lemp::builder().variant(LempVariant::LI).build(&w.probes);
            let out = engine.above_theta(&w.queries, level.theta);
            above_rows.push(Row {
                dataset: format!("{} {}", w.name, level.label),
                config: "tuned LEMP-LI (Sec. 4.4)".into(),
                secs: start.elapsed().as_secs_f64(),
                stats: out.stats,
            });
            for (label, acfg) in adaptive_configs() {
                let (secs, stats) = adaptive_run(&w, QueryRequest::above_theta(level.theta), acfg);
                above_rows.push(Row {
                    dataset: format!("{} {}", w.name, level.label),
                    config: label.into(),
                    secs,
                    stats,
                });
            }
        }
    }

    let headers = ["Dataset", "Selection", "time", "|C|/q", "LENGTH share"];
    print_table(
        &format!("Adaptive-selection ablation — Row-Top-{k}"),
        &headers,
        &topk_rows.iter().map(Row::cells).collect::<Vec<_>>(),
    );
    print_table(
        "Adaptive-selection ablation — Above-θ (mid recall level)",
        &headers,
        &above_rows.iter().map(Row::cells).collect::<Vec<_>>(),
    );
    println!(
        "\nshape check: the bandit policies land in the same time regime as the tuned \
         hybrid (identical results; selection overhead is per-pair timing + warm-up \
         exploration) and learn a LENGTH/coordinate mix comparable to the tuner's. \
         UCB1 c=0 under-explores and may lock onto a mediocre arm; ε-greedy keeps \
         exploring forever and pays a small steady tax."
    );
}
