//! `lemp-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-above|batch-topk-quant|serve-topk|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed with `lemp-data`, drives
//! the system through its public surfaces (in-process `Engine`, edits,
//! kernels; HTTP against a `lemp serve` child process), checks every
//! sampled answer against the Naive baseline, and prints the metrics. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! repeats the measured phase with spans recorded around every call into a
//! layer and reports the per-layer metrics derived from them, plus the
//! tracing overhead. The last stdout line is the JSON result; the line
//! before it carries provenance, sample counts and the plan fingerprint.
//! Exits 1 on any wrong answer, 2 on a usage or setup error.

mod batch;
mod check;
mod host;
mod http;
mod loadgen;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lemp_serve::json::{obj, Json};

use stats::Tally;
use trace::SpanLog;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The inputs of the per-layer metrics every workload reports: the
/// `per_layer` list of `BENCHMARK.json`.
pub struct Layers<'a> {
    /// `kernels::dot` at the workload's dimensionality, ns per call.
    pub dot_ns: f64,
    /// `execute` time per query row of the traced (or replayed) reads.
    pub execute_us_per_query: f64,
    /// Counters of the same `execute` calls.
    pub stats: &'a lemp_core::RunStats,
    /// Probes the engine holds.
    pub n: usize,
    /// Traced over untraced time of the measured phase, minus one.
    pub tracing_overhead_frac: f64,
}

/// What a workload run hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted and failed (errors, sheds, wrong answers).
    pub tally: Tally,
    /// The metrics of the result line: the `BENCHMARK.json` end-to-end
    /// metrics, which every workload reports, or the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Every end-to-end metric that applies to this workload, under its own
    /// name (`batch_qps`, `read_p50_ms`, `max_rps`, …): printed and
    /// recorded in the first JSON line. `op_ms` in the result is one of
    /// them, rescaled for the batch workloads.
    pub by_name: Vec<Metric>,
    /// Provenance, sample counts, plan fingerprint and validity notes.
    pub info: Vec<(&'static str, Json)>,
    /// Spans of the traced run (empty otherwise).
    pub spans: SpanLog,
}

impl Report {
    fn new(epoch: Instant, trace: bool) -> Self {
        Self {
            tally: Tally::default(),
            metrics: Vec::new(),
            by_name: Vec::new(),
            info: Vec::new(),
            spans: SpanLog::new(epoch, 0, trace),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Adds a workload's end-to-end number (see [`Report::by_name`]).
    pub fn by_name(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.by_name.push(Metric { name: name.into(), value, unit });
    }

    /// Adds the per-layer metrics every workload reports. `core.build`,
    /// `core.warm` and `core.plan` are medians of the spans logged so far.
    pub fn layers(&mut self, l: Layers) {
        let med = |name: &str| stats::median(&trace::durations(self.spans.spans(), name));
        let (build_ns, warm_ns, plan_ns) = (med("core.build"), med("core.warm"), med("core.plan"));
        let c = &l.stats.counters;
        let (queries, candidates) = (c.queries as f64, c.candidates as f64);
        self.metric("linalg.dot_ns", l.dot_ns, "ns");
        self.metric("core.build_s", build_ns / 1e9, "s");
        self.metric("core.warm_s", warm_ns / 1e9, "s");
        self.metric("core.plan_us", plan_ns / 1e3, "us");
        self.metric("core.execute_us_per_query", l.execute_us_per_query, "us");
        self.metric("core.candidates_per_query", candidates / queries, "count");
        self.metric("core.scan_frac", candidates / (queries * l.n as f64), "ratio");
        self.metric("core.results_per_candidate", c.results as f64 / candidates, "ratio");
        self.metric("bench.tracing_overhead_frac", l.tracing_overhead_frac, "ratio");
    }

    /// Adds an info field.
    pub fn note(&mut self, key: &'static str, value: Json) {
        self.info.push((key, value));
    }
}

/// The checkout root (the parent of this package's directory).
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package lives in the checkout").into()
}

/// Where runs write spans, plan ledgers and scratch stores.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Workload names. The serve workloads are not in `BENCHMARK.json`: on a
/// shared host their latencies follow the host's serving capacity, and the
/// generator of serve-mixed sometimes falls behind on every try (see the
/// README).
pub const WORKLOADS: [&str; 4] = ["batch-above", "batch-topk-quant", "serve-topk", "serve-mixed"];

fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut report = Report::new(epoch, args.trace);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out dir: {e}"))?;
    match args.workload.as_str() {
        "batch-above" => batch::run(batch::ABOVE, args, &mut report)?,
        "batch-topk-quant" => batch::run(batch::TOPK_QUANT, args, &mut report)?,
        "serve-topk" => serve::run(serve::TOPK, args, &mut report)?,
        "serve-mixed" => serve::run(serve::MIXED, args, &mut report)?,
        other => return Err(format!("unknown workload {other} (one of {})", WORKLOADS.join(", "))),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // The serve workloads boot `lemp serve` as a child of this binary.
    if raw.first().map(String::as_str) == Some(serve::CHILD_FLAG) {
        let mut cli = vec!["serve".to_string()];
        cli.extend_from_slice(&raw[1..]);
        return match lemp_cli::run(&cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let tally = report.tally;
    let correct = tally.wrong == 0;
    let spans_path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if args.trace {
        if let Err(e) = trace::write_jsonl(report.spans.spans(), &spans_path) {
            eprintln!("warning: cannot write spans to {}: {e}", spans_path.display());
        }
    }
    for m in &report.metrics {
        eprintln!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for m in &report.by_name {
        eprintln!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<34} {:>14.6} (failed {} of {} attempted)",
        "fail_frac",
        tally.fail_frac(),
        tally.failed(),
        tally.attempted
    );

    let mut info = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("provenance", host::provenance(&checkout_root())),
        (
            "fail",
            obj(vec![
                ("fail_frac", Json::Num(tally.fail_frac())),
                ("errors", Json::Num(tally.errors as f64)),
                ("shed", Json::Num(tally.shed as f64)),
                ("wrong", Json::Num(tally.wrong as f64)),
            ]),
        ),
    ];
    if args.trace {
        info.push(("spans_file", Json::Str(spans_path.display().to_string())));
        info.push(("spans", Json::Num(report.spans.spans().len() as f64)));
        let self_ms = trace::self_ms_by_name(report.spans.spans());
        info.push((
            "self_ms_by_span",
            Json::Obj(self_ms.into_iter().map(|(k, v)| (k.to_string(), Json::Num(v))).collect()),
        ));
    }
    if !report.by_name.is_empty() {
        info.push(("by_name", metrics_json(&report.by_name)));
    }
    info.append(&mut report.info);
    println!("{}", obj(info).render());

    let metrics = metrics_json(&report.metrics);
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed() as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} wrong answers", tally.wrong);
        ExitCode::from(1)
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry =
                    obj(vec![("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&s(&[
            "--workload",
            "serve-topk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-topk", 7, 10.0, true)
        );
        assert!(parse_args(&s(&["--seed", "1"])).is_err());
        assert!(parse_args(&s(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "x", "--seconds"])).is_err());
    }
}
