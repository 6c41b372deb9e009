//! The LEMP retrieval drivers: Above-θ (Alg. 1) and Row-Top-k (Sec. 4.5).
//!
//! **Above-θ** iterates buckets in the outer loop and queries in the inner
//! loop ("the order of the two loops … is chosen to be cache friendly":
//! the small bucket stays cache-resident while the large query set streams
//! through). Queries are sorted by decreasing length, so the inner loop
//! *stops* at the first pruned query — all shorter queries have larger local
//! thresholds — and the outer loop stops at the first bucket every query
//! prunes — all later buckets hold shorter vectors. Buckets routed to the
//! quantized scan are the exception: they share one codebook, so they run
//! in a query-major pass after the others, and each query builds its
//! lookup table once instead of once per bucket.
//!
//! **LENGTH blocks.** Within a bucket, consecutive queries routed to LENGTH
//! are served four at a time. A LENGTH query's candidates are a prefix of
//! the bucket, so the block's shortest prefix is shared by all four: the
//! `kernels::dot_4q` multi-dot scores it with one load of each probe per
//! four queries, and each query's own remainder goes through the
//! verification step's `kernels::dot4` (one query, four probes per step).
//! Every value is bit-identical to `kernels::dot`, and entries keep
//! per-query order, so a block is indistinguishable from four LENGTH pairs
//! in its output, counters and method mix. The verification operands come
//! from the batch's length-sorted copy of the original-scale queries, so
//! the inner loop reads them in order instead of gathering rows.
//!
//! **Row-Top-k** processes one query at a time: it seeds the running bound
//! `θ′` with the k longest probes, then sweeps buckets in decreasing-length
//! order running the Above-θ′ machinery per bucket, tightening `θ′` from
//! the top-k heap after every bucket, and stops at the first pruned bucket.
//! A query builds its quantized lookup table at the first QUANT bucket it
//! reaches and reuses it for the rest.
//! `‖q‖` is fixed to 1 (the query's length does not affect its top-k set).
//!
//! Both drivers have a multi-threaded mode (an extension over the paper):
//! queries are independent, so the query set is partitioned across scoped
//! threads after indexes are built; counters and results are merged.

use std::ops::Range;
use std::time::Instant;

use lemp_baselines::types::{Entry, RetrievalCounters, TopKLists};
use lemp_linalg::{kernels, TopK, VectorStore};

use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::{length, MethodScratch, QueryCtx, Sink};
use crate::bounds::{local_threshold, region_threshold};
use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::{
    ensure_for, run_method, verify_above, verify_lids, verify_topk, BuildClock, RunConfig,
};
use crate::query::QueryBatch;
use crate::tuner::{self, TuneGoal, Tuning};
use crate::variant::{resolve, LempVariant, ResolvedMethod, TunedParams};

/// Phase breakdown and work counters of one LEMP run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall-clock phases and candidate counts (the paper's measurements).
    pub counters: RetrievalCounters,
    /// Number of probe buckets.
    pub bucket_count: usize,
    /// Indexes built lazily during this run (tuning + retrieval).
    pub indexes_built: u64,
    /// Which bucket method served how many (query, bucket) pairs — shows
    /// the Sec. 4.4 tuner's decisions (e.g. the LENGTH share of a LI run).
    pub method_mix: MethodMix,
    /// Query lookup tables built for the quantized scan: at most one per
    /// query that reaches a QUANT bucket (per shard in a sharded engine),
    /// however many QUANT buckets it visits.
    pub lut_builds: u64,
}

impl RunStats {
    /// Merges another run's statistics into this one (chunked drivers
    /// accumulate per-chunk stats into one run-level summary).
    pub fn merge(&mut self, other: &RunStats) {
        self.counters.merge(&other.counters);
        self.bucket_count = self.bucket_count.max(other.bucket_count);
        self.indexes_built += other.indexes_built;
        self.method_mix.merge(&other.method_mix);
        self.lut_builds += other.lut_builds;
    }
}

/// Per-method (query, bucket)-pair counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodMix {
    /// Pairs served by LENGTH.
    pub length: u64,
    /// Pairs served by COORD.
    pub coord: u64,
    /// Pairs served by INCR.
    pub incr: u64,
    /// Pairs served by the TA adapter.
    pub ta: u64,
    /// Pairs served by the cover-tree adapter.
    pub tree: u64,
    /// Pairs served by the L2AP adapter.
    pub l2ap: u64,
    /// Pairs served by the BLSH adapter.
    pub blsh: u64,
    /// Pairs served by the quantized LUT scan.
    pub quant: u64,
}

impl MethodMix {
    pub(crate) fn record(&mut self, method: ResolvedMethod) {
        match method {
            ResolvedMethod::Length => self.length += 1,
            ResolvedMethod::Coord(_) => self.coord += 1,
            ResolvedMethod::Incr(_) => self.incr += 1,
            ResolvedMethod::Ta => self.ta += 1,
            ResolvedMethod::Tree => self.tree += 1,
            ResolvedMethod::L2ap => self.l2ap += 1,
            ResolvedMethod::Blsh => self.blsh += 1,
            ResolvedMethod::Quant => self.quant += 1,
        }
    }

    fn merge(&mut self, other: &MethodMix) {
        self.length += other.length;
        self.coord += other.coord;
        self.incr += other.incr;
        self.ta += other.ta;
        self.tree += other.tree;
        self.l2ap += other.l2ap;
        self.blsh += other.blsh;
        self.quant += other.quant;
    }

    /// Total pairs processed.
    pub fn total(&self) -> u64 {
        self.length
            + self.coord
            + self.incr
            + self.ta
            + self.tree
            + self.l2ap
            + self.blsh
            + self.quant
    }

    /// Fraction of pairs served by LENGTH (0 when nothing ran).
    pub fn length_share(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.length as f64 / t as f64
        }
    }
}

/// Result of an Above-θ run.
#[derive(Debug, Clone)]
pub struct AboveThetaOutput {
    /// All entries `[QᵀP]_{ij} ≥ θ` (order unspecified).
    pub entries: Vec<Entry>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Result of a Row-Top-k run.
#[derive(Debug, Clone)]
pub struct TopKOutput {
    /// Per query (by original index): the top-k probes, best first.
    pub lists: TopKLists,
    /// Run statistics.
    pub stats: RunStats,
}

/// `θ/‖q‖` with the degenerate-length convention of the bounds module.
pub(crate) fn theta_over_len(theta: f64, len: f64) -> f64 {
    if len <= 0.0 {
        if theta > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        theta / len
    }
}

/// Number of queries (prefix of the sorted batch) whose local threshold for
/// a bucket with longest vector `lb` is ≤ 1.
pub(crate) fn unpruned_prefix(batch: &QueryBatch, theta: f64, lb: f64) -> usize {
    if lb <= 0.0 {
        // All-zero bucket: only meaningful when θ ≤ 0 (handled by caller).
        return if theta > 0.0 { 0 } else { batch.len() };
    }
    let cut = theta / lb;
    let cut = cut - 1e-12 * cut.abs(); // boundary slack: never prune an exact hit
    batch.lengths.partition_point(|&l| l >= cut)
}

/// The index the bucket must provide so every unpruned query of this run can
/// be served; `max_th_b` is the largest unpruned local threshold (the last
/// unpruned query's).
fn ensure_method(variant: LempVariant, tuned: &TunedParams, max_th_b: f64) -> ResolvedMethod {
    // For hybrids the coordinate method is needed iff some query reaches
    // θ_b ≥ t_b; `resolve` with the largest θ_b answers exactly that.
    resolve(variant, tuned, max_th_b)
}

pub(crate) fn make_blsh_table(cfg: &RunConfig) -> Option<MinMatchTable> {
    if cfg.variant == LempVariant::Blsh {
        Some(MinMatchTable::new(cfg.blsh_bits, cfg.blsh_eps))
    } else {
        None
    }
}

pub(crate) fn max_bucket_len(buckets: &ProbeBuckets) -> usize {
    buckets.buckets().iter().map(Bucket::len).max().unwrap_or(0)
}

/// The read-only inputs every Above-θ (query, bucket) pair shares.
struct AboveCtx<'a> {
    batch: &'a QueryBatch,
    theta: f64,
    tol: &'a [f64],
    variant: LempVariant,
    blsh_table: Option<&'a MinMatchTable>,
}

/// A worker's mutable Above-θ state: scratch, candidate sink and outputs.
struct AboveOut<'a> {
    scratch: &'a mut MethodScratch,
    sink: Sink,
    /// A LENGTH block's shared-prefix scores, `block[l][i]` for probe `l`
    /// and the block's query `i`.
    block: Vec<[f64; 4]>,
    entries: &'a mut Vec<Entry>,
    counters: &'a mut RetrievalCounters,
    mix: MethodMix,
}

impl<'a> AboveOut<'a> {
    fn new(
        scratch: &'a mut MethodScratch,
        entries: &'a mut Vec<Entry>,
        counters: &'a mut RetrievalCounters,
    ) -> Self {
        Self {
            scratch,
            sink: Sink::default(),
            block: Vec::new(),
            entries,
            counters,
            mix: MethodMix::default(),
        }
    }
}

impl AboveCtx<'_> {
    /// The method and local threshold of sorted query `qi` on `bucket`.
    #[inline(always)]
    fn method_for(&self, bucket: &Bucket, tuned: &TunedParams, qi: usize) -> (ResolvedMethod, f64) {
        let qlen = self.batch.lengths[qi];
        let th_b = region_threshold(self.theta, qlen, bucket.max_len, bucket.min_len);
        (resolve(self.variant, tuned, th_b), th_b)
    }

    /// Serves sorted query `qi` against `bucket` with a non-LENGTH `method`
    /// (Alg. 1 lines 10–16): run it, verify. The bucket's index must
    /// already be built. LENGTH pairs go through [`Self::length_block`].
    #[inline(always)]
    fn pair(
        &self,
        bucket: &Bucket,
        qi: usize,
        method: ResolvedMethod,
        th_b: f64,
        out: &mut AboveOut<'_>,
    ) {
        debug_assert!(method != ResolvedMethod::Length, "LENGTH pairs run as blocks");
        out.mix.record(method);
        let qlen = self.batch.lengths[qi];
        let ctx = QueryCtx {
            dir: self.batch.dirs.vector(qi),
            len: qlen,
            theta: self.theta,
            theta_over_len: self.tol[qi],
            local_threshold: th_b,
            scaled: self.batch.scaled.vector(qi),
        };
        out.sink.clear();
        let internal =
            run_method(method, &ctx, bucket, self.blsh_table, out.scratch, &mut out.sink);
        let query = self.batch.ids[qi];
        let (vdots, results) =
            verify_above(bucket, &ctx, &out.sink, query, &mut out.scratch.exact, out.entries);
        out.counters.candidates += internal + vdots;
        out.counters.results += results;
    }

    /// Serves the consecutive sorted queries `qs` (one to four, all routed
    /// to LENGTH) against `bucket` as one block. Each query's candidates are
    /// a prefix of the bucket, so the shortest prefix is common to all of
    /// them: [`kernels::dot_4q`] scores it for the whole block, each probe
    /// loaded once per four queries (a block of fewer than four repeats its
    /// last query in the spare lanes). Each query's remaining prefix goes
    /// through the shared verification ([`verify_lids`], four probes per
    /// step). All values are bit-identical to `kernels::dot`, and entries,
    /// counters and the method mix come out exactly as one LENGTH pair per
    /// query would produce them.
    fn length_block(&self, bucket: &Bucket, qs: Range<usize>, out: &mut AboveOut<'_>) {
        debug_assert!((1..=4).contains(&qs.len()));
        let m = qs.len();
        let lane = |i: usize| qs.start + i.min(m - 1);
        let cands: [usize; 4] =
            std::array::from_fn(|i| length::qualifying(self.tol[lane(i)], bucket));
        let vecs: [&[f64]; 4] = std::array::from_fn(|i| self.batch.scaled.vector(lane(i)));
        let common = cands.iter().copied().min().unwrap_or(0);
        out.block.clear();
        out.block.resize(common, [0.0; 4]);
        let rows = &bucket.origs.as_flat()[..common * bucket.origs.dim()];
        kernels::dot_4q(vecs, rows, &mut out.block);
        for (i, &n) in cands.iter().enumerate().take(m) {
            let query = self.batch.ids[lane(i)];
            let before = out.entries.len();
            for (l, values) in out.block.iter().enumerate() {
                if values[i] >= self.theta {
                    out.entries.push(Entry { query, probe: bucket.ids[l], value: values[i] });
                }
            }
            out.sink.clear();
            out.sink.unverified.extend(common as u32..n as u32);
            let lids = &out.sink.unverified;
            verify_lids(
                bucket,
                vecs[i],
                self.theta,
                lids,
                query,
                &mut out.scratch.exact,
                out.entries,
            );
            out.mix.record(ResolvedMethod::Length);
            out.counters.candidates += n as u64;
            out.counters.results += (out.entries.len() - before) as u64;
        }
    }

    /// Serves the sorted queries `[lo, hi)` against the first `reachable`
    /// buckets. Buckets are the outer loop ("cache friendly": the small
    /// bucket stays resident while the queries stream through), except for
    /// QUANT-routed buckets: those run in one query-major pass afterwards,
    /// so each query builds its lookup table once, at its first QUANT
    /// bucket, and reuses it for the rest — their packed codes are small
    /// enough that the bucket-outer cache argument does not apply. Within
    /// a bucket, runs of consecutive LENGTH-routed queries are served four
    /// at a time by [`Self::length_block`]; a query routed elsewhere ends
    /// the run, which is flushed first so entries keep query order.
    fn range(
        &self,
        buckets: &[Bucket],
        per_bucket: &[TunedParams],
        lo: usize,
        hi: usize,
        out: &mut AboveOut<'_>,
    ) {
        let mut quant: Vec<(&Bucket, &TunedParams, usize)> = Vec::new();
        for (bucket, params) in buckets.iter().zip(per_bucket) {
            let hi_b = unpruned_prefix(self.batch, self.theta, bucket.max_len).min(hi);
            if lo >= hi_b {
                continue;
            }
            if bucket.max_len <= 0.0 {
                emit_zero_bucket(bucket, self.batch, lo, hi_b, out.entries, out.counters);
            } else if params.quant {
                quant.push((bucket, params, hi_b));
            } else {
                out.scratch.ensure(bucket.len());
                // First query of the pending LENGTH run.
                let mut run_lo = lo;
                for qi in lo..hi_b {
                    let (method, th_b) = self.method_for(bucket, params, qi);
                    if method == ResolvedMethod::Length {
                        if qi + 1 - run_lo == 4 {
                            self.length_block(bucket, run_lo..qi + 1, out);
                            run_lo = qi + 1;
                        }
                    } else {
                        if run_lo < qi {
                            self.length_block(bucket, run_lo..qi, out);
                        }
                        self.pair(bucket, qi, method, th_b, out);
                        run_lo = qi + 1;
                    }
                }
                if run_lo < hi_b {
                    self.length_block(bucket, run_lo..hi_b, out);
                }
            }
        }
        for qi in lo..hi {
            out.scratch.lut.invalidate();
            // Buckets get shorter, so a query pruned for one QUANT bucket
            // is pruned for every later one.
            for &(bucket, params, _) in quant.iter().take_while(|q| qi < q.2) {
                out.scratch.ensure(bucket.len());
                let (method, th_b) = self.method_for(bucket, params, qi);
                self.pair(bucket, qi, method, th_b, out);
            }
        }
    }
}

/// Emits the whole zero-length bucket for every query (only reachable when
/// `θ ≤ 0`: all inner products with a zero vector are 0 ≥ θ).
pub(crate) fn emit_zero_bucket(
    bucket: &Bucket,
    batch: &QueryBatch,
    q_lo: usize,
    q_hi: usize,
    entries: &mut Vec<Entry>,
    counters: &mut RetrievalCounters,
) {
    for qi in q_lo..q_hi {
        for &pid in &bucket.ids {
            entries.push(Entry { query: batch.ids[qi], probe: pid, value: 0.0 });
            counters.results += 1;
        }
    }
}

/// Runs Above-θ over preprocessed buckets.
pub(crate) fn above_theta(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    cfg: &RunConfig,
) -> AboveThetaOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let tol: Vec<f64> = batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
    let blsh_table = make_blsh_table(cfg);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
    let mut clock = BuildClock::default();
    let tuning =
        tuner::tune(buckets, &batch, &TuneGoal::Above(theta), cfg, &mut scratch, &mut clock);
    let tune_build_ns = clock.ns;
    let tune_ns = tuning.tune_ns.saturating_sub(tune_build_ns);

    let retrieval_start = Instant::now();
    let mut entries: Vec<Entry> = Vec::new();
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };

    // Build whatever each reachable bucket needs, then process.
    let nbuckets = buckets.bucket_count();
    let mut reachable = 0usize;
    for b in 0..nbuckets {
        let max_len = buckets.buckets()[b].max_len;
        let unpruned = unpruned_prefix(&batch, theta, max_len);
        if unpruned == 0 {
            break; // later buckets are shorter: pruned for every query
        }
        reachable = b + 1;
        if max_len > 0.0 {
            let max_th_b = local_threshold(theta, batch.lengths[unpruned - 1], max_len);
            let method = ensure_method(cfg.variant, &tuning.per_bucket[b], max_th_b);
            let l2ap_t = local_threshold(theta, batch.max_len, max_len);
            ensure_for(buckets, b, method, l2ap_t, cfg, &mut clock);
        }
    }
    let build_ns_retrieval = clock.ns - tune_build_ns;

    let (mix, lut_builds) = above_theta_body(
        buckets,
        &batch,
        theta,
        &tol,
        reachable,
        cfg,
        &tuning.per_bucket,
        blsh_table.as_ref(),
        &mut scratch,
        &mut entries,
        &mut counters,
    );

    let retrieval_ns =
        (retrieval_start.elapsed().as_nanos() as u64).saturating_sub(build_ns_retrieval);
    counters.preprocess_ns = buckets.prep_ns() + batch_prep_ns + clock.ns;
    counters.tune_ns = tune_ns;
    counters.retrieval_ns = retrieval_ns;
    AboveThetaOutput {
        entries,
        stats: RunStats {
            counters,
            bucket_count: nbuckets,
            indexes_built: clock.built,
            method_mix: mix,
            lut_builds,
        },
    }
}

/// The retrieval phase of Above-θ over buckets whose indexes are already
/// built (serial with the caller's scratch, or partitioned across scoped
/// threads). Shared by the lazy `&mut` driver and the warmed `&self` path.
/// Returns the method mix and the lookup tables built.
#[allow(clippy::too_many_arguments)]
fn above_theta_body(
    buckets: &ProbeBuckets,
    batch: &QueryBatch,
    theta: f64,
    tol: &[f64],
    reachable: usize,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    entries: &mut Vec<Entry>,
    counters: &mut RetrievalCounters,
) -> (MethodMix, u64) {
    let ctx = AboveCtx { batch, theta, tol, variant: cfg.variant, blsh_table };
    let reached = &buckets.buckets()[..reachable];
    if cfg.threads <= 1 {
        let mut out = AboveOut::new(scratch, entries, counters);
        let builds = out.scratch.lut.builds();
        ctx.range(reached, per_bucket, 0, batch.len(), &mut out);
        return (out.mix, out.scratch.lut.builds() - builds);
    }
    let nthreads = cfg.threads.min(batch.len().max(1));
    let chunk = batch.len().div_ceil(nthreads);
    let ctx = &ctx;
    let results: Vec<(Vec<Entry>, RetrievalCounters, MethodMix, u64)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nthreads)
                .map(|t| {
                    scope.spawn(move || {
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(batch.len());
                        let mut scratch = MethodScratch::new(max_bucket_len(buckets));
                        let mut entries = Vec::new();
                        let mut counters = RetrievalCounters::default();
                        let mut out = AboveOut::new(&mut scratch, &mut entries, &mut counters);
                        ctx.range(reached, per_bucket, lo, hi, &mut out);
                        let mix = out.mix;
                        (entries, counters, mix, scratch.lut.builds())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
    let mut mix = MethodMix::default();
    let mut lut_builds = 0;
    for (mut e, c, m, builds) in results {
        entries.append(&mut e);
        counters.candidates += c.candidates;
        counters.results += c.results;
        mix.merge(&m);
        lut_builds += builds;
    }
    (mix, lut_builds)
}

/// Above-θ over a **warmed** engine: all reachable indexes are assumed
/// built and the tuned parameters are supplied by the caller, so the
/// buckets are only read — this is the `&self`-shareable hot path.
pub(crate) fn above_theta_prepared(
    buckets: &ProbeBuckets,
    queries: &VectorStore,
    theta: f64,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
) -> AboveThetaOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let tol: Vec<f64> = batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let retrieval_start = Instant::now();
    let mut entries: Vec<Entry> = Vec::new();
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut reachable = 0usize;
    for (b, bucket) in buckets.buckets().iter().enumerate() {
        if unpruned_prefix(&batch, theta, bucket.max_len) == 0 {
            break;
        }
        reachable = b + 1;
    }
    let (mix, lut_builds) = above_theta_body(
        buckets,
        &batch,
        theta,
        &tol,
        reachable,
        cfg,
        per_bucket,
        blsh_table,
        scratch,
        &mut entries,
        &mut counters,
    );
    counters.preprocess_ns = batch_prep_ns;
    counters.retrieval_ns = retrieval_start.elapsed().as_nanos() as u64;
    AboveThetaOutput {
        entries,
        stats: RunStats {
            counters,
            bucket_count: buckets.bucket_count(),
            indexes_built: 0,
            method_mix: mix,
            lut_builds,
        },
    }
}

/// Builds every index the bucket can need once warmed: the variant's method
/// at the largest reachable local threshold (1.0) plus both sorted-list
/// layouts (COORD and INCR), which the adaptive arm menu draws from. The
/// cache budget already accounts for the two sorted-list layouts
/// ([`crate::BucketPolicy::max_bucket`]), so this stays within the paper's
/// cache model.
pub(crate) fn warm_bucket(
    buckets: &mut ProbeBuckets,
    b: usize,
    params: &TunedParams,
    cfg: &RunConfig,
    clock: &mut BuildClock,
) {
    if buckets.buckets()[b].max_len <= 0.0 {
        return;
    }
    let t = cfg.l2ap_topk_threshold;
    ensure_for(buckets, b, ensure_method(cfg.variant, params, 1.0), t, cfg, clock);
    if cfg.quantize_bits > 0 {
        // Quantized codes are encoded at warm regardless of the tuner's
        // per-bucket pick (against the engine codebook, which trains at the
        // first bucket and is reused by every later one and by edits), so
        // reloads/plan refreshes never train on the query path and
        // `/stats` residency is observable right away.
        ensure_for(buckets, b, ResolvedMethod::Quant, t, cfg, clock);
    }
    ensure_for(buckets, b, ResolvedMethod::Coord(1), t, cfg, clock);
    if buckets.dim() > 1 {
        ensure_for(buckets, b, ResolvedMethod::Incr(2), t, cfg, clock);
    }
}

/// Warms every bucket (see [`warm_bucket`]); `per_bucket` must be aligned
/// with the bucket list.
pub(crate) fn prebuild_all(
    buckets: &mut ProbeBuckets,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    clock: &mut BuildClock,
) {
    for (b, params) in per_bucket.iter().enumerate().take(buckets.bucket_count()) {
        warm_bucket(buckets, b, params, cfg, clock);
    }
}

pub(crate) fn cfg_seed(cfg: &RunConfig, bucket_idx: usize) -> u64 {
    // Distinct hyperplanes per bucket, stable across runs.
    0x1E4D_0000 ^ (bucket_idx as u64) ^ ((cfg.blsh_bits as u64) << 32)
}

/// Per-query score floor at the `‖q‖ = 1` scale of the Row-Top-k driver
/// (the driver ranks by `q̄ᵀp`; a floor on the true value `qᵀp` divides by
/// `‖q‖`), with the same boundary slack as bucket pruning so an exact hit
/// is never lost to rounding.
fn floor_scaled_for(floor: f64, qlen: f64) -> f64 {
    if floor == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let fl = theta_over_len(floor, qlen);
    if !fl.is_finite() {
        return fl;
    }
    fl - 1e-12 * fl.abs()
}

/// One Row-Top-k query over pre-built buckets (shared by the serial and
/// parallel drivers). Returns the top-k list (original probe ids).
/// `floor_scaled` raises the running `θ′` from below (Row-Top-k with a
/// score floor; `−∞` for the plain problem).
#[allow(clippy::too_many_arguments)]
fn topk_one_query(
    buckets: &[Bucket],
    dir: &[f64],
    k: usize,
    floor_scaled: f64,
    variant: LempVariant,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    top: &mut TopK,
    seed_counts: &mut Vec<usize>,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) -> Vec<lemp_linalg::ScoredItem> {
    top.clear();
    seed_counts.clear();
    seed_counts.resize(buckets.len(), 0);
    // A new query: its lookup table is built at its first QUANT bucket.
    scratch.lut.invalidate();
    // Warm-up: the k longest probes seed θ′ (Sec. 4.5).
    let mut need = k;
    'seed: for (b, bucket) in buckets.iter().enumerate() {
        for lid in 0..bucket.len() {
            if need == 0 {
                break 'seed;
            }
            let v = kernels::dot(dir, bucket.origs.vector(lid));
            counters.candidates += 1;
            top.push(bucket.ids[lid] as usize, v);
            seed_counts[b] += 1;
            need -= 1;
        }
    }
    let mut theta = top.threshold().max(floor_scaled);
    for (b, bucket) in buckets.iter().enumerate() {
        if local_threshold(theta, 1.0, bucket.max_len) > 1.0 + 1e-12 {
            break; // θ′ only grows and buckets only get shorter
        }
        scratch.ensure(bucket.len());
        let th_b = region_threshold(theta, 1.0, bucket.max_len, bucket.min_len);
        let method = resolve(variant, &per_bucket[b], th_b);
        mix.record(method);
        let ctx = QueryCtx {
            dir,
            len: 1.0,
            theta,
            theta_over_len: theta,
            local_threshold: th_b,
            scaled: dir,
        };
        sink.clear();
        let internal = run_method(method, &ctx, bucket, blsh_table, scratch, sink);
        let vdots = verify_topk(bucket, &ctx, sink, seed_counts[b], &mut scratch.exact, top);
        counters.candidates += internal + vdots;
        theta = top.threshold().max(floor_scaled);
    }
    top.drain_sorted()
}

/// Runs Row-Top-k over preprocessed buckets (the one-shot driver: tunes on
/// the batch and builds indexes lazily).
pub(crate) fn row_top_k(
    buckets: &mut ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    cfg: &RunConfig,
) -> TopKOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    // Clamp k to the live probe count: `k > n` returns every probe anyway,
    // and the clamp keeps a hostile k (say 10¹⁸) from sizing a heap.
    let k = k.min(buckets.total());
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let blsh_table = make_blsh_table(cfg);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
    let mut clock = BuildClock::default();
    let tuning = tuner::tune(buckets, &batch, &TuneGoal::TopK(k), cfg, &mut scratch, &mut clock);
    let tune_build_ns = clock.ns;
    let tune_ns = tuning.tune_ns.saturating_sub(tune_build_ns);

    let retrieval_start = Instant::now();
    let mut lists: TopKLists = vec![Vec::new(); queries.len()];
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();
    let lut_before = scratch.lut.builds();
    let mut lut_builds = 0;

    if k > 0 && !batch.is_empty() && buckets.bucket_count() > 0 {
        if cfg.threads <= 1 {
            serial_topk(
                buckets,
                &batch,
                k,
                cfg,
                &tuning,
                blsh_table.as_ref(),
                &mut scratch,
                &mut clock,
                &mut lists,
                &mut counters,
                &mut mix,
            );
            lut_builds = scratch.lut.builds() - lut_before;
        } else {
            // Parallel mode pre-builds every bucket's index (shared read
            // access), trading the lazy-construction saving for parallelism.
            for b in 0..buckets.bucket_count() {
                if buckets.buckets()[b].max_len <= 0.0 {
                    continue;
                }
                let method = ensure_method(cfg.variant, &tuning.per_bucket[b], 1.0);
                ensure_for(buckets, b, method, cfg.l2ap_topk_threshold, cfg, &mut clock);
            }
            lut_builds = parallel_topk(
                buckets,
                &batch,
                k,
                f64::NEG_INFINITY,
                cfg,
                &tuning.per_bucket,
                blsh_table.as_ref(),
                &mut lists,
                &mut counters,
                &mut mix,
            );
        }
    }

    let build_ns_retrieval = clock.ns - tune_build_ns;
    let retrieval_ns =
        (retrieval_start.elapsed().as_nanos() as u64).saturating_sub(build_ns_retrieval);
    counters.results = lists.iter().map(|l| l.len() as u64).sum();
    counters.preprocess_ns = buckets.prep_ns() + batch_prep_ns + clock.ns;
    counters.tune_ns = tune_ns;
    counters.retrieval_ns = retrieval_ns;
    TopKOutput {
        lists,
        stats: RunStats {
            counters,
            bucket_count: buckets.bucket_count(),
            indexes_built: clock.built,
            method_mix: mix,
            lut_builds,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn serial_topk(
    buckets: &mut ProbeBuckets,
    batch: &QueryBatch,
    k: usize,
    cfg: &RunConfig,
    tuning: &Tuning,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    clock: &mut BuildClock,
    lists: &mut TopKLists,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) {
    let mut sink = Sink::default();
    let mut top = TopK::new(k);
    let mut seed_counts: Vec<usize> = Vec::new();
    // Lazy index construction: before each query sweep, make sure the
    // buckets this query *may* reach are indexed. θ′ after seeding can only
    // grow, so a bucket pruned at seed time stays pruned.
    for qi in 0..batch.len() {
        let dir = batch.dirs.vector(qi);
        let theta_seed = tuner::seed_threshold(buckets, dir, k);
        for b in 0..buckets.bucket_count() {
            let max_len = buckets.buckets()[b].max_len;
            if max_len <= 0.0 {
                continue;
            }
            let th_b = local_threshold(theta_seed, 1.0, max_len);
            if th_b > 1.0 + 1e-12 {
                break;
            }
            // θ′ grows while the query sweeps buckets, so the local
            // threshold seen at run time may exceed the seed-time value;
            // prepare for the largest one (1.0) the sweep can pose.
            let method = ensure_method(cfg.variant, &tuning.per_bucket[b], 1.0);
            ensure_for(buckets, b, method, cfg.l2ap_topk_threshold, cfg, clock);
        }
        topk_range(
            buckets.buckets(),
            batch,
            qi,
            qi + 1,
            k,
            f64::NEG_INFINITY,
            cfg.variant,
            &tuning.per_bucket,
            blsh_table,
            scratch,
            &mut sink,
            &mut top,
            &mut seed_counts,
            counters,
            mix,
            |qid, list| lists[qid as usize] = list,
        );
    }
}

/// Runs the queries `[lo, hi)` of the sorted batch over pre-built buckets,
/// handing each finished list (with its original query id) to `emit`.
/// Shared by the serial driver, the parallel workers, and the warmed
/// `&self` path.
#[allow(clippy::too_many_arguments)]
fn topk_range<F: FnMut(u32, Vec<lemp_linalg::ScoredItem>)>(
    buckets: &[Bucket],
    batch: &QueryBatch,
    lo: usize,
    hi: usize,
    k: usize,
    floor: f64,
    variant: LempVariant,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
    top: &mut TopK,
    seed_counts: &mut Vec<usize>,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
    mut emit: F,
) {
    for qi in lo..hi {
        let floor_scaled = floor_scaled_for(floor, batch.lengths[qi]);
        let mut list = topk_one_query(
            buckets,
            batch.dirs.vector(qi),
            k,
            floor_scaled,
            variant,
            per_bucket,
            blsh_table,
            scratch,
            sink,
            top,
            seed_counts,
            counters,
            mix,
        );
        // The driver works with ‖q‖ = 1 (Sec. 4.5); report true inner
        // products by scaling back (the ranking is scale-invariant).
        for item in &mut list {
            item.score *= batch.lengths[qi];
        }
        if floor > f64::NEG_INFINITY {
            // The heap may still hold below-floor warm-up seeds; the API
            // guarantees every reported value is ≥ floor.
            list.retain(|item| item.score >= floor);
        }
        emit(batch.ids[qi], list);
    }
}

/// Row-Top-k (with optional floor) over a **warmed** engine: every bucket's
/// index is assumed built, so the buckets are only read — the
/// `&self`-shareable hot path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn row_top_k_prepared(
    buckets: &ProbeBuckets,
    queries: &VectorStore,
    k: usize,
    floor: f64,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
) -> TopKOutput {
    assert_eq!(queries.dim(), buckets.dim(), "query/probe dimensionality mismatch");
    // Same clamp as the lazy driver: non-panicking for any k.
    let k = k.min(buckets.total());
    let prep_start = Instant::now();
    let batch = QueryBatch::build(queries);
    let batch_prep_ns = prep_start.elapsed().as_nanos() as u64;

    let retrieval_start = Instant::now();
    let mut lists: TopKLists = vec![Vec::new(); queries.len()];
    let mut counters = RetrievalCounters { queries: queries.len() as u64, ..Default::default() };
    let mut mix = MethodMix::default();
    let mut lut_builds = 0;

    if k > 0 && !batch.is_empty() && buckets.bucket_count() > 0 {
        if cfg.threads <= 1 {
            let lut_before = scratch.lut.builds();
            let mut sink = Sink::default();
            let mut top = TopK::new(k);
            let mut seed_counts: Vec<usize> = Vec::new();
            topk_range(
                buckets.buckets(),
                &batch,
                0,
                batch.len(),
                k,
                floor,
                cfg.variant,
                per_bucket,
                blsh_table,
                scratch,
                &mut sink,
                &mut top,
                &mut seed_counts,
                &mut counters,
                &mut mix,
                |qid, list| lists[qid as usize] = list,
            );
            lut_builds = scratch.lut.builds() - lut_before;
        } else {
            lut_builds = parallel_topk(
                buckets,
                &batch,
                k,
                floor,
                cfg,
                per_bucket,
                blsh_table,
                &mut lists,
                &mut counters,
                &mut mix,
            );
        }
    }

    counters.results = lists.iter().map(|l| l.len() as u64).sum();
    counters.preprocess_ns = batch_prep_ns;
    counters.retrieval_ns = retrieval_start.elapsed().as_nanos() as u64;
    TopKOutput {
        lists,
        stats: RunStats {
            counters,
            bucket_count: buckets.bucket_count(),
            indexes_built: 0,
            method_mix: mix,
            lut_builds,
        },
    }
}

/// One worker's output: `(query id, top-k list)` pairs plus its counters
/// and lookup-table builds.
type WorkerTopK = (Vec<(u32, Vec<lemp_linalg::ScoredItem>)>, RetrievalCounters, MethodMix, u64);

/// Row-Top-k with the sorted batch partitioned across scoped threads;
/// returns the lookup tables the workers built.
#[allow(clippy::too_many_arguments)]
fn parallel_topk(
    buckets: &ProbeBuckets,
    batch: &QueryBatch,
    k: usize,
    floor: f64,
    cfg: &RunConfig,
    per_bucket: &[TunedParams],
    blsh_table: Option<&MinMatchTable>,
    lists: &mut TopKLists,
    counters: &mut RetrievalCounters,
    mix: &mut MethodMix,
) -> u64 {
    let nthreads = cfg.threads.min(batch.len().max(1));
    let chunk = batch.len().div_ceil(nthreads);
    let results: Vec<WorkerTopK> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|t| {
                scope.spawn(move || {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(batch.len());
                    let mut scratch = MethodScratch::new(max_bucket_len(buckets));
                    let mut sink = Sink::default();
                    let mut top = TopK::new(k);
                    let mut seed_counts = Vec::new();
                    let mut local_counters = RetrievalCounters::default();
                    let mut local_mix = MethodMix::default();
                    let mut out = Vec::with_capacity(hi.saturating_sub(lo));
                    topk_range(
                        buckets.buckets(),
                        batch,
                        lo,
                        hi,
                        k,
                        floor,
                        cfg.variant,
                        per_bucket,
                        blsh_table,
                        &mut scratch,
                        &mut sink,
                        &mut top,
                        &mut seed_counts,
                        &mut local_counters,
                        &mut local_mix,
                        |qid, list| out.push((qid, list)),
                    );
                    (out, local_counters, local_mix, scratch.lut.builds())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let mut lut_builds = 0;
    for (chunk_lists, c, m, builds) in results {
        for (qid, list) in chunk_lists {
            lists[qid as usize] = list;
        }
        counters.candidates += c.candidates;
        mix.merge(&m);
        lut_builds += builds;
    }
    lut_builds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketPolicy;
    use lemp_baselines::Naive;
    use lemp_data::synthetic::GeneratorConfig;

    /// The unblocked Above-θ reference: every (query, bucket) pair runs its
    /// method and verifies each candidate with one `kernels::dot`, in the
    /// same bucket-outer, query-inner order as [`AboveCtx::range`].
    fn per_pair_reference(
        ctx: &AboveCtx<'_>,
        queries: &VectorStore,
        buckets: &[Bucket],
        per_bucket: &[TunedParams],
    ) -> (Vec<Entry>, u64, u64, MethodMix) {
        let (mut entries, mut candidates, mut results) = (Vec::new(), 0, 0);
        let mut mix = MethodMix::default();
        let mut scratch = MethodScratch::new(64);
        let mut sink = Sink::default();
        for (bucket, params) in buckets.iter().zip(per_bucket) {
            scratch.ensure(bucket.len());
            for qi in 0..unpruned_prefix(ctx.batch, ctx.theta, bucket.max_len) {
                let (method, th_b) = ctx.method_for(bucket, params, qi);
                mix.record(method);
                let q = QueryCtx {
                    dir: ctx.batch.dirs.vector(qi),
                    len: ctx.batch.lengths[qi],
                    theta: ctx.theta,
                    theta_over_len: ctx.tol[qi],
                    local_threshold: th_b,
                    scaled: queries.vector(ctx.batch.ids[qi] as usize),
                };
                sink.clear();
                candidates += run_method(method, &q, bucket, None, &mut scratch, &mut sink);
                for &lid in &sink.unverified {
                    let l = lid as usize;
                    let value = kernels::dot(q.scaled, bucket.origs.vector(l));
                    candidates += 1;
                    if value >= ctx.theta {
                        let query = ctx.batch.ids[qi];
                        entries.push(Entry { query, probe: bucket.ids[l], value });
                        results += 1;
                    }
                }
                assert!(sink.verified.is_empty(), "LENGTH/COORD/INCR verify outside");
            }
        }
        (entries, candidates, results, mix)
    }

    #[test]
    fn length_block_matches_per_pair_path_and_naive() {
        let probes = GeneratorConfig::gaussian(300, 9, 0.6).generate(41);
        let policy = BucketPolicy { min_bucket: 40, ..Default::default() };
        let mut pb = ProbeBuckets::build(&probes, &policy);
        assert!(pb.bucket_count() > 2, "several buckets");
        let cfg = RunConfig::default();
        let mut clock = BuildClock::default();
        for b in 0..pb.bucket_count() {
            ensure_for(&mut pb, b, ResolvedMethod::Incr(2), 0.0, &cfg, &mut clock);
        }
        let all_queries = GeneratorConfig::gaussian(9, 9, 0.6).generate(42);
        // LI with a t_b in the middle of the range splits every bucket's
        // query run between LENGTH blocks and INCR pairs.
        let li = TunedParams { tb: 0.3, phi: 2, quant: false };
        for (variant, params) in [(LempVariant::L, TunedParams::default()), (LempVariant::LI, li)] {
            let per_bucket = vec![params; pb.bucket_count()];
            let mut total = MethodMix::default();
            for m in 1..=9 {
                let queries = all_queries.select(&(0..m).collect::<Vec<_>>());
                let batch = QueryBatch::build(&queries);
                let theta = 0.8;
                let tol: Vec<f64> =
                    batch.lengths.iter().map(|&l| theta_over_len(theta, l)).collect();
                let ctx = AboveCtx { batch: &batch, theta, tol: &tol, variant, blsh_table: None };
                let (mut entries, mut counters) = (Vec::new(), RetrievalCounters::default());
                let mut scratch = MethodScratch::new(max_bucket_len(&pb));
                let mut out = AboveOut::new(&mut scratch, &mut entries, &mut counters);
                ctx.range(pb.buckets(), &per_bucket, 0, m, &mut out);
                let mix = out.mix;
                let (want, cands, results, want_mix) =
                    per_pair_reference(&ctx, &queries, pb.buckets(), &per_bucket);
                let what = format!("{variant:?} m={m}");
                assert_eq!(entries.len(), want.len(), "{what}");
                for (got, want) in entries.iter().zip(&want) {
                    assert_eq!(
                        (got.query, got.probe, got.value.to_bits()),
                        (want.query, want.probe, want.value.to_bits()),
                        "{what}: entry order and bits"
                    );
                }
                assert_eq!((counters.candidates, counters.results), (cands, results), "{what}");
                assert_eq!(mix, want_mix, "{what}");
                total.merge(&mix);
                let (naive, _) = Naive.above_theta(&queries, &probes, theta);
                let key = |e: &Entry| (e.query, e.probe, e.value.to_bits());
                let mut got: Vec<_> = entries.iter().map(key).collect();
                let mut exact: Vec<_> = naive.iter().map(key).collect();
                got.sort_unstable();
                exact.sort_unstable();
                assert_eq!(got, exact, "{what}: exact against Naive");
            }
            assert!(total.length > 0, "{variant:?}: LENGTH blocks ran");
            assert_eq!(total.incr > 0, variant == LempVariant::LI, "{variant:?}: INCR pairs");
        }
    }

    #[test]
    fn floor_scaling_handles_degenerate_lengths() {
        // Plain Row-Top-k sentinel passes through untouched.
        assert_eq!(floor_scaled_for(f64::NEG_INFINITY, 2.0), f64::NEG_INFINITY);
        assert_eq!(floor_scaled_for(f64::NEG_INFINITY, 0.0), f64::NEG_INFINITY);
        // A positive floor for a zero-length query is unreachable.
        assert_eq!(floor_scaled_for(1.0, 0.0), f64::INFINITY);
        // A non-positive floor for a zero-length query admits everything.
        assert_eq!(floor_scaled_for(-1.0, 0.0), f64::NEG_INFINITY);
        // Finite case: floor/len, slacked strictly downward.
        let fl = floor_scaled_for(3.0, 2.0);
        assert!(fl < 1.5 && fl > 1.5 - 1e-10);
        // Negative finite floors slack downward too (never upward).
        let fl = floor_scaled_for(-3.0, 2.0);
        assert!(fl < -1.5 && fl > -1.5 - 1e-10);
    }

    #[test]
    fn unpruned_prefix_respects_sorted_lengths() {
        let store = GeneratorConfig::gaussian(50, 6, 1.0).generate(77);
        let batch = QueryBatch::build(&store);
        // Lengths are sorted decreasing; the prefix must be monotone in lb.
        let a = unpruned_prefix(&batch, 1.0, 0.5);
        let b = unpruned_prefix(&batch, 1.0, 1.0);
        assert!(b >= a, "longer buckets admit at least as many queries");
        // Every admitted query really satisfies θ_b ≤ 1 (with slack).
        for qi in 0..b {
            assert!(batch.lengths[qi] * 1.0 >= 1.0 - 1e-9);
        }
        // θ ≤ 0 with a zero-length bucket admits everything.
        assert_eq!(unpruned_prefix(&batch, -0.1, 0.0), batch.len());
        assert_eq!(unpruned_prefix(&batch, 0.1, 0.0), 0);
    }

    #[test]
    fn theta_over_len_degenerate_conventions() {
        assert_eq!(theta_over_len(1.0, 0.0), f64::INFINITY);
        assert_eq!(theta_over_len(-1.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(theta_over_len(0.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(theta_over_len(3.0, 2.0), 1.5);
    }
}
