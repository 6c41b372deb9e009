//! The in-process batch workloads: one warmed `Lemp` engine, `plan` +
//! `execute` over the generated query matrix on one thread.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use lemp_core::{
    Engine, Lemp, LempVariant, MethodMix, QuantCodes, QueryPlan, QueryRequest, RunStats,
};
use lemp_data::calibrate;
use lemp_data::datasets::Dataset;
use lemp_data::rng::seeded;
use lemp_linalg::{kernels, VectorStore};
use lemp_serve::json::{num_arr, obj, Json};
use rand::Rng;

use crate::stats::median;
use crate::trace::SpanLog;
use crate::{check, host, Args, Layers, Report};

/// The retrieval problem of a batch workload.
#[derive(Debug, Clone, Copy)]
pub enum Problem {
    /// Above-θ with θ calibrated to retrieve this fraction of `m·n`.
    Above {
        /// Target share of the product's entries.
        frac: f64,
    },
    /// Row-Top-k.
    TopK {
        /// Results per query row.
        k: usize,
    },
}

/// A batch workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Dataset shape (Table 1 statistics).
    pub dataset: Dataset,
    /// Scale applied to both sides.
    pub scale: f64,
    /// What is retrieved.
    pub problem: Problem,
    /// Code width of the quantized buckets (0 = exact engine only).
    pub quantize_bits: u8,
    /// Query rows per `execute` call (`None`: the whole query matrix).
    pub block_rows: Option<usize>,
    /// Rows of every answered call checked against Naive.
    pub check_rows: usize,
}

/// IE-SVD, exact engine, Above-θ at ~4·10⁻⁴ of the product.
pub const ABOVE: BatchSpec = BatchSpec {
    dataset: Dataset::IeSvd,
    scale: 0.2,
    problem: Problem::Above { frac: 4e-4 },
    quantize_bits: 0,
    block_rows: Some(38_550),
    check_rows: 48,
};

/// Netflix, forced 8-bit QUANT, Row-Top-10.
pub const TOPK_QUANT: BatchSpec = BatchSpec {
    dataset: Dataset::Netflix,
    scale: 0.2,
    problem: Problem::TopK { k: 10 },
    quantize_bits: 8,
    block_rows: Some(8_000),
    check_rows: 128,
};

/// Engine set-ups per run; `setup_s` is their median. A set-up takes
/// 0.3–0.5 s.
const SETUP_REPS: u64 = 10;
/// Every how many set-ups an engine is kept for the measured phase.
const MEASURE_EVERY: u64 = 2;
/// Blocks the measured phase cycles over, from the first: every run does
/// the same mix of work, however many calls fit in it.
const MEASURED_BLOCKS: usize = 2;
/// Pairs sampled to calibrate θ: about 800 of them land above θ, so the
/// result count varies by a few per cent between seeds, not tens.
const THETA_SAMPLES: usize = 2_000_000;

/// What one measured phase saw.
#[derive(Debug, Default)]
struct Phase {
    rows: u64,
    /// `(engine, block, rows, execute ns)` of each call.
    calls: Vec<(usize, usize, u64, u64)>,
    exec_ns: u64,
    /// Counters of each engine's calls.
    stats: Vec<RunStats>,
    checked: u64,
    wrong: u64,
}

/// Runs a batch workload and fills `report`.
pub fn run(spec: BatchSpec, args: &Args, report: &mut Report) -> Result<(), String> {
    let shape = spec.dataset.spec().scaled(spec.scale);
    let (queries, probes) = shape.generate(args.seed);
    let (m, n) = (queries.len(), probes.len());
    let request = match spec.problem {
        Problem::Above { frac } => {
            let target = (m as f64 * n as f64 * frac) as usize;
            let theta =
                calibrate::sampled_theta(&queries, &probes, target, THETA_SAMPLES, args.seed)
                    .ok_or("cannot calibrate theta")?;
            QueryRequest::above_theta(theta)
        }
        Problem::TopK { k } => QueryRequest::top_k(k),
    };
    let goal = request.kind.warm_goal();

    // Set-up: build + warm_up, several times. The tuner races on wall-clock
    // time, so two set-ups may choose different plans. Untraced, every
    // MEASURE_EVERY-th engine is kept, and the measured phase interleaves
    // their calls, so a slow stretch of the host hits every engine alike.
    // Traced, the last engine is measured untraced and then traced, half
    // the run each.
    let mut setup_s = Vec::new();
    let mut plans = BTreeSet::new();
    let mut kept: Vec<Lemp> = Vec::new();
    let mut warm_report = None;
    let mut checked = 0;
    let untraced = || SpanLog::new(Instant::now(), 0, false);
    let measure_on = |es: &[Lemp], seconds: f64, first_request: u64, log: &mut SpanLog| {
        measure(&spec, es, &request, &queries, &probes, seconds, args.seed, first_request, log)
    };
    for rep in 0..SETUP_REPS {
        if args.trace {
            kept.clear();
        }
        let log = &mut report.spans;
        let root = log.open("bench.setup", None, rep);
        let t0 = Instant::now();
        let (mut e, _) = log.time("core.build", Some(root), rep, || {
            Lemp::builder()
                .variant(LempVariant::LI)
                .threads(1)
                .quantize(spec.quantize_bits)
                .quantize_force(spec.quantize_bits > 0)
                .build(&probes)
        });
        let (wr, _) = log.time("core.warm", Some(root), rep, || e.warm_up(&queries, goal));
        setup_s.push(t0.elapsed().as_secs_f64());
        log.close(root);
        plans.insert(e.plan(&request).describe());
        warm_report = Some(wr);
        if args.trace || rep % MEASURE_EVERY == MEASURE_EVERY - 1 {
            kept.push(e);
        }
    }
    let engine = kept.last().expect("at least one set-up");
    let plan = engine.plan(&request);

    let (base, traced) = if args.trace {
        let base = measure_on(&kept, args.seconds / 2.0, 0, &mut untraced());
        (base, Some(measure_on(&kept, args.seconds / 2.0, 1 << 30, &mut report.spans)))
    } else {
        (measure_on(&kept, args.seconds, 0, &mut untraced()), None)
    };
    let engines_qps: Vec<f64> = (0..kept.len())
        .map(|e| {
            let (rows, ns) =
                base.calls.iter().filter(|c| c.0 == e).fold((0, 0), |(r, t), c| (r + c.2, t + c.3));
            rows as f64 / (ns as f64 / 1e9)
        })
        .collect();
    for phase in std::iter::once(&base).chain(&traced) {
        report.tally.attempted += phase.rows;
        report.tally.wrong += phase.wrong;
        checked += phase.checked;
    }
    let mix = base.stats.last().map(|s| s.method_mix).unwrap_or_default();
    report.note("plan", plan_note(args, &plan, &mix, Some(plans.len())));
    report.note(
        "inputs",
        obj(vec![
            ("dataset", Json::Str(shape.name.clone())),
            ("m", Json::Num(m as f64)),
            ("n", Json::Num(n as f64)),
            ("r", Json::Num(shape.dim as f64)),
            ("probe_bytes", Json::Num((n * shape.dim * 8) as f64)),
            ("request", Json::Str(format!("{:?}", request.kind))),
            ("threads", Json::Num(1.0)),
            ("quantize_bits", Json::Num(f64::from(spec.quantize_bits))),
            ("sync", Json::Null),
        ]),
    );
    report.note(
        "samples",
        obj(vec![
            ("setup_s_each", num_arr(setup_s.iter().copied())),
            ("batch_qps_each", num_arr(engines_qps.iter().copied())),
            ("rows", Json::Num(report.tally.attempted as f64)),
            ("checked_rows", Json::Num(checked as f64)),
        ]),
    );

    if !args.trace {
        let qps = base.rows as f64 / (base.exec_ns as f64 / 1e9);
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("rss_mb", host::peak_rss_mb(None).ok_or("no VmHWM")?, "MiB");
        // A batch workload's operation is 1,000 query rows of `execute`.
        report.metric("op_ms", 1e6 / qps, "ms");
        report.by_name("batch_qps", qps, "rows/s");
        return Ok(());
    }

    // Per-layer metrics, from the traced phase's spans and counters.
    let traced = traced.expect("traced phase ran");
    let stats = traced.stats[0].clone();
    let c = &stats.counters;
    let dot_ns = calibrate_dot(&queries, &probes, &mut report.spans);
    let per_row = |p: &Phase| p.exec_ns as f64 / p.rows as f64;
    report.layers(Layers {
        dot_ns,
        execute_us_per_query: per_row(&traced) / 1e3,
        stats: &stats,
        n,
        tracing_overhead_frac: per_row(&traced) / per_row(&base) - 1.0,
    });
    let wr = warm_report.unwrap_or_default();
    let mem = engine.memory_usage();
    let execute_s = median(&crate::trace::durations(report.spans.spans(), "core.execute")) / 1e9;
    report.by_name("core.execute_s", execute_s, "s");
    for (name, share) in method_shares(&stats.method_mix) {
        report.by_name(format!("core.method_share.{name}"), share, "ratio");
    }
    report.by_name("core.indexes_built", (wr.indexes_built + stats.indexes_built) as f64, "count");
    report.by_name("core.resident_bytes.full", mem.full_bytes as f64, "bytes");
    report.by_name("core.resident_bytes.quant", mem.quantized_bytes as f64, "bytes");
    // An estimate, not a measurement: verification is not timed inside the engine.
    report.by_name(
        "linalg.verify_share",
        c.candidates as f64 * dot_ns / traced.exec_ns as f64,
        "ratio",
    );
    report.note(
        "estimates",
        Json::Str("linalg.verify_share = candidates x linalg.dot_ns / core.execute time".into()),
    );
    if spec.quantize_bits > 0 {
        let lut_ns =
            calibrate_lut_scan(engine, &queries, &mut report.spans).ok_or("no quantized bucket")?;
        report.by_name("linalg.lut_scan_ns_per_probe", lut_ns, "ns");
    }
    Ok(())
}

/// Runs `plan` + `execute` calls for `seconds` (and at least one round),
/// round-robin over the engines, each round on the next of the measured
/// query blocks, and checks a seeded sample of every call's rows against
/// Naive.
#[allow(clippy::too_many_arguments)]
fn measure(
    spec: &BatchSpec,
    engines: &[Lemp],
    request: &QueryRequest,
    queries: &VectorStore,
    probes: &VectorStore,
    seconds: f64,
    seed: u64,
    first_request: u64,
    log: &mut SpanLog,
) -> Phase {
    let m = queries.len();
    let block = spec.block_rows.unwrap_or(m).min(m);
    let blocks = m.div_ceil(block).min(MEASURED_BLOCKS);
    let mut scratch: Vec<_> = engines.iter().map(|e| e.query_scratch()).collect();
    let mut phase = Phase { stats: vec![RunStats::default(); engines.len()], ..Phase::default() };
    let mut rng = seeded(seed ^ first_request ^ 0xC4EC);
    let start = Instant::now();
    let mut call = 0usize;
    let round = engines.len() * blocks;
    while call < round || start.elapsed().as_secs_f64() < seconds {
        let (e, b) = (call % engines.len(), call / engines.len() % blocks);
        let engine = &engines[e];
        let rows = b * block..((b + 1) * block).min(m);
        let owned;
        let qs = if rows.len() == m {
            queries
        } else {
            owned = queries.select(&rows.clone().collect::<Vec<_>>());
            &owned
        };
        let id = first_request + call as u64;
        let root = log.open("bench.call", None, id);
        let (plan, _) = log.time("core.plan", Some(root), id, || engine.plan(request));
        let (resp, exec_ns) =
            log.time("core.execute", Some(root), id, || engine.execute(&plan, qs, &mut scratch[e]));
        log.close(root);
        let resp = black_box(resp);
        phase.rows += qs.len() as u64;
        phase.exec_ns += exec_ns;
        phase.calls.push((e, b, qs.len() as u64, exec_ns));
        phase.stats[e].merge(&resp.stats);

        let check = log.open("bench.check", Some(root), id);
        let sample: Vec<usize> =
            (0..spec.check_rows).map(|_| rng.random_range(0..qs.len())).collect();
        let sub = qs.select(&sample);
        phase.checked += sample.len() as u64;
        phase.wrong += match (&resp.rows, request.kind) {
            (
                lemp_core::QueryRows::Entries(entries),
                lemp_core::QueryKind::AboveTheta { theta },
            ) => {
                let rows: Vec<u32> = sample.iter().map(|&r| r as u32).collect();
                check::above_rows(&sub, &rows, probes, theta, entries)
            }
            (lemp_core::QueryRows::Lists(lists), lemp_core::QueryKind::TopK { k }) => {
                let got: Vec<check::Row> = sample
                    .iter()
                    .map(|&r| lists[r].iter().map(|s| (s.id as u32, s.score)).collect())
                    .collect();
                let ids: Vec<u32> = (0..probes.len() as u32).collect();
                check::top_k_rows(&sub, probes, &ids, k, &got)
            }
            _ => sample.len() as u64,
        };
        log.close(check);
        call += 1;
    }
    phase
}

/// `kernels::dot` at the workload's dimensionality, ns per call.
pub fn calibrate_dot(queries: &VectorStore, probes: &VectorStore, log: &mut SpanLog) -> f64 {
    let (qn, pn) = (queries.len().min(64), probes.len().min(4096));
    let reps = 4;
    let (acc, ns) = log.time("linalg.dot", None, 0, || {
        let mut acc = 0.0;
        for _ in 0..reps {
            for i in 0..qn {
                let q = black_box(queries.vector(i));
                for j in 0..pn {
                    acc += kernels::dot(q, black_box(probes.vector(j)));
                }
            }
        }
        acc
    });
    black_box(acc);
    ns as f64 / (reps * qn * pn) as f64
}

/// `kernels::lut_scan_u8` over the largest quantized bucket's codes with a
/// real query LUT, ns per probe scored.
fn calibrate_lut_scan(engine: &Lemp, queries: &VectorStore, log: &mut SpanLog) -> Option<f64> {
    let qb = engine
        .buckets()
        .buckets()
        .iter()
        .filter_map(|b| b.indexes.quant.as_ref())
        .max_by_key(|qb| qb.len())?;
    let QuantCodes::U8(codes) = qb.codes() else { return None };
    let (n, subspaces, k) = (qb.len(), qb.subspaces(), qb.k());
    let mut lut = Vec::new();
    let mut out = vec![0.0; n];
    let mut dir = queries.vector(0).to_vec();
    kernels::normalize(&mut dir);
    qb.fill_lut(&dir, &mut lut);
    let reps = (4_000_000 / n.max(1)).max(8);
    let (_, ns) = log.time("linalg.lut_scan", None, 0, || {
        for _ in 0..reps {
            kernels::lut_scan_u8(black_box(codes), black_box(&lut), n, subspaces, k, &mut out);
            black_box(&out);
        }
    });
    Some(ns as f64 / (reps * n) as f64)
}

/// Shares of (query, bucket) pairs per method, for the methods LI and
/// QUANT runs use.
fn method_shares(mix: &MethodMix) -> [(&'static str, f64); 4] {
    let total =
        (mix.length + mix.coord + mix.incr + mix.ta + mix.tree + mix.l2ap + mix.blsh + mix.quant)
            .max(1) as f64;
    [
        ("length", mix.length as f64 / total),
        ("coord", mix.coord as f64 / total),
        ("incr", mix.incr as f64 / total),
        ("quant", mix.quant as f64 / total),
    ]
}

/// The run's plan record: the `describe()` line, the method shares, their
/// fingerprint (equal fingerprints mean the tuner made the same choices),
/// how many distinct plans the run's set-ups produced (when it builds
/// several) and how many distinct fingerprints the ledger holds.
pub fn plan_note(args: &Args, plan: &QueryPlan, mix: &MethodMix, in_run: Option<usize>) -> Json {
    let shares = method_shares(mix);
    let mut h = host::Fnv::default();
    h.write(plan.describe().as_bytes());
    for (name, share) in shares {
        h.write(format!("{name}={share:.6};").as_bytes());
    }
    let fingerprint = format!("{:016x}", h.0);
    let mut fields = vec![
        ("describe", Json::Str(plan.describe())),
        ("fingerprint", Json::Str(fingerprint.clone())),
        ("method_share", obj(shares.iter().map(|&(k, v)| (k, Json::Num(v))).collect())),
    ];
    if let Some(n) = in_run {
        fields.push(("distinct_in_run", Json::Num(n as f64)));
    }
    fields.push(("distinct_for_seed", Json::Num(record_plan(args, &fingerprint) as f64)));
    obj(fields)
}

/// Appends this run's plan fingerprint to the ledger in the out directory
/// and returns how many distinct fingerprints the ledger holds for this
/// workload, seed and trace flag.
fn record_plan(args: &Args, fingerprint: &str) -> usize {
    use std::io::Write;
    let path = crate::out_dir().join("plans.jsonl");
    let key = format!("{}\t{}\t{}\t", args.workload, args.seed, u8::from(args.trace));
    let line = format!("{key}{fingerprint}\n");
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = f.write_all(line.as_bytes());
    }
    let ledger = std::fs::read_to_string(&path).unwrap_or(line);
    ledger.lines().filter_map(|l| l.strip_prefix(&key)).collect::<BTreeSet<_>>().len()
}
