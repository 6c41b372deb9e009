//! The unified query surface: **request → plan → execute**.
//!
//! The paper's central observation is that one bucketed pipeline answers
//! every retrieval problem it poses — Above-θ (Problem 1), Row-Top-k
//! (Problem 2) and their two-sided/floored variants — with only the
//! per-bucket *method choice* varying (Sec. 4.4). This module makes that
//! observation the architecture:
//!
//! 1. A [`QueryRequest`] names *what* to retrieve (a [`QueryKind`]) and
//!    *how* to execute it ([`ExecOptions`]: online bandit selection instead
//!    of the sample-based tuner, bounded-memory chunked sweeps).
//! 2. [`Engine::plan`] compiles the request into a [`QueryPlan`] via the
//!    [`Planner`]: one [`PlanSegment`] per shard assigning each bucket its
//!    algorithm, derived from the tuned `t_b`/`φ_b` the warm-up produced
//!    (the existing Sec. 4.4 tuner; no re-tuning happens at plan time).
//! 3. [`Engine::execute`] runs the plan over a query batch through `&self`
//!    with a caller-owned [`Scratch`], returning a [`QueryResponse`] that
//!    carries the rows *and* the uniform run statistics
//!    ([`RunStats`]/[`crate::MethodMix`]).
//!
//! [`Lemp`], [`crate::DynamicLemp`] and [`crate::ShardedLemp`] all
//! implement [`Engine`], and the trait is dyn-compatible: services hold a
//! `Box<dyn Engine>` (or `&dyn Engine`) and never match on the engine kind
//! — adding a query kind or an engine backend is a one-file change.
//!
//! # Exactness
//!
//! Every execution option is exact: the plan moves time around, never
//! results. The engine-trait conformance suite
//! (`crates/core/tests/engine_conformance.rs`) pins this down by running
//! every [`QueryKind`] × [`ExecOptions`] combination through `dyn Engine`
//! for all three engines: each result must match the naive baseline, the
//! unsharded, one-shard and three-shard engines must agree bit for bit,
//! and so must streamed chunked, materialized chunked and monolithic
//! execution.
//!
//! # Streaming
//!
//! A chunked request ([`QueryRequest::chunked`]) runs block by block.
//! [`Engine::execute_stream`] hands each block's [`QueryResponse`] to a
//! caller sink as soon as it is done, so peak memory is bounded by the
//! block; [`Engine::execute`] is the same loop plus a collector. Both are
//! provided by the trait: a backend implements only the one-block step
//! [`Engine::execute_block`], so chunking is dispatched in one place.
//!
//! # Example
//!
//! ```
//! use lemp_core::{Engine, Lemp, QueryRequest, WarmGoal};
//! use lemp_linalg::VectorStore;
//!
//! let probes = VectorStore::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
//! let queries = VectorStore::from_rows(&[vec![3.0, 1.0]]).unwrap();
//! let mut engine = Lemp::new(&probes);
//! engine.warm(&queries, WarmGoal::TopK(1));
//!
//! let engine: &dyn Engine = &engine; // dyn-compatible handle
//! let request = QueryRequest::top_k(1);
//! let plan = engine.plan(&request);
//! let mut scratch = engine.query_scratch();
//! let response = engine.execute(&plan, &queries, &mut scratch);
//! assert_eq!(response.lists().unwrap()[0][0].id, 0);
//! ```

use lemp_baselines::types::Entry;
use lemp_linalg::VectorStore;

use crate::adaptive::{self, AdaptiveConfig, AdaptiveReport, AdaptiveSelector};
use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::MethodScratch;
use crate::bucket::ProbeBuckets;
use crate::exec::RunConfig;
use crate::runner::{self, AboveThetaOutput, RunStats, TopKOutput};
use crate::variant::{resolve, ResolvedMethod, TunedParams};
use crate::{Lemp, WarmGoal, WarmReport};

/// What one query batch asks for — the four retrieval problems of the
/// engine, one enum. `theta`/`k`/`floor` carry the problem parameters; the
/// *execution* knobs live in [`ExecOptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// **Above-θ** (Problem 1): every entry of `QᵀP` with `qᵀp ≥ theta`.
    AboveTheta {
        /// The retrieval threshold.
        theta: f64,
    },
    /// **|Above-θ|**: every entry with `|qᵀp| ≥ theta` (`theta > 0`),
    /// reported with its true signed value.
    AbsAboveTheta {
        /// The two-sided retrieval threshold (must be positive).
        theta: f64,
    },
    /// **Row-Top-k** (Problem 2): per query, the `k` probes with the
    /// largest inner products. `k` is clamped to the live probe count.
    TopK {
        /// How many probes to return per query.
        k: usize,
    },
    /// **Row-Top-k with a score floor**: the up-to-`k` best probes among
    /// those with `qᵀp ≥ floor` (lists may come back short).
    TopKWithFloor {
        /// How many probes to return per query (clamped like [`QueryKind::TopK`]).
        k: usize,
        /// Entries below this true inner-product value are never reported.
        floor: f64,
    },
}

impl QueryKind {
    /// `true` for the entry-set problems (Above-θ and |Above-θ|), `false`
    /// for the per-query-list problems.
    pub fn is_above(&self) -> bool {
        matches!(self, QueryKind::AboveTheta { .. } | QueryKind::AbsAboveTheta { .. })
    }

    /// Short display name ("above-theta", "top-k", …).
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::AboveTheta { .. } => "above-theta",
            QueryKind::AbsAboveTheta { .. } => "abs-above-theta",
            QueryKind::TopK { .. } => "top-k",
            QueryKind::TopKWithFloor { .. } => "top-k-with-floor",
        }
    }

    /// The [`WarmGoal`] matching this kind — what a cold engine should be
    /// warmed for before executing it.
    pub fn warm_goal(&self) -> WarmGoal {
        match *self {
            QueryKind::AboveTheta { theta } | QueryKind::AbsAboveTheta { theta } => {
                WarmGoal::Above(theta)
            }
            QueryKind::TopK { k } | QueryKind::TopKWithFloor { k, .. } => WarmGoal::TopK(k.max(1)),
        }
    }
}

/// Execution options of one request. All options are exact — they change
/// how time and memory are spent, never the result set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecOptions {
    /// `Some(cfg)`: per-bucket methods are chosen **online** by the
    /// Sec. 4.4-outlook bandit instead of the tuned `t_b`/`φ_b`. The
    /// learning state lives in the caller's [`Scratch`] and persists
    /// across calls with the same configuration.
    pub adaptive: Option<AdaptiveConfig>,
    /// `Some(n)`: process the query batch in blocks of `n` rows (bounded
    /// peak memory for huge batches). Must be positive.
    pub chunk: Option<usize>,
}

/// One query-batch request: the problem ([`QueryKind`]) plus its
/// [`ExecOptions`]. Requests are plain comparable values, so services can
/// coalesce compatible requests (`lemp-serve` micro-batches queued
/// requests whose `QueryRequest`s are equal into one engine call).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRequest {
    /// What to retrieve.
    pub kind: QueryKind,
    /// How to execute it.
    pub options: ExecOptions,
}

impl QueryRequest {
    /// A request with default (tuned, monolithic) execution options.
    pub fn new(kind: QueryKind) -> Self {
        Self { kind, options: ExecOptions::default() }
    }

    /// Above-θ at the given threshold.
    pub fn above_theta(theta: f64) -> Self {
        Self::new(QueryKind::AboveTheta { theta })
    }

    /// |Above-θ| at the given (positive) threshold.
    pub fn abs_above_theta(theta: f64) -> Self {
        Self::new(QueryKind::AbsAboveTheta { theta })
    }

    /// Row-Top-k at the given `k`.
    pub fn top_k(k: usize) -> Self {
        Self::new(QueryKind::TopK { k })
    }

    /// Row-Top-k with a score floor.
    pub fn top_k_with_floor(k: usize, floor: f64) -> Self {
        Self::new(QueryKind::TopKWithFloor { k, floor })
    }

    /// Switches execution to online (bandit) method selection.
    pub fn adaptive(mut self, cfg: AdaptiveConfig) -> Self {
        self.options.adaptive = Some(cfg);
        self
    }

    /// Switches execution to chunked sweeps of `chunk_size` query rows.
    ///
    /// # Panics
    /// If `chunk_size == 0`.
    pub fn chunked(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        self.options.chunk = Some(chunk_size);
        self
    }
}

/// The algorithm a plan assigns to one bucket — the public mirror of the
/// engine's internal method resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketAlgo {
    /// LENGTH: scan the length-sorted bucket prefix.
    Length,
    /// COORD with the given focus-set size `φ`.
    Coord(usize),
    /// INCR with the given focus-set size `φ`.
    Incr(usize),
    /// Fagin's threshold algorithm adapter.
    Ta,
    /// Cover-tree adapter.
    Tree,
    /// L2AP adapter.
    L2ap,
    /// BayesLSH-Lite adapter (approximate).
    Blsh,
    /// Quantized LUT scan (candidates re-verified against full precision).
    Quant {
        /// Code width in bits.
        bits: u8,
        /// Centroids per subspace codebook.
        k: u32,
        /// The bucket's distortion bound `eps`, as IEEE-754 bits (keeps the
        /// enum `Eq`-comparable; recover with [`f64::from_bits`]).
        eps_bits: u64,
    },
}

impl BucketAlgo {
    /// Display name ("LENGTH", "INCR", …).
    pub fn name(&self) -> &'static str {
        match self {
            BucketAlgo::Length => "LENGTH",
            BucketAlgo::Coord(_) => "COORD",
            BucketAlgo::Incr(_) => "INCR",
            BucketAlgo::Ta => "TA",
            BucketAlgo::Tree => "Tree",
            BucketAlgo::L2ap => "L2AP",
            BucketAlgo::Blsh => "BLSH",
            BucketAlgo::Quant { .. } => "QUANT",
        }
    }

    /// Long display naming the algorithm's parameters — what the CLI's
    /// `explain=true` prints per bucket (e.g.
    /// `QUANT(bits=8, k=256, eps=1.2e-2)`).
    pub fn detail(&self) -> String {
        match self {
            BucketAlgo::Coord(phi) => format!("COORD(phi={phi})"),
            BucketAlgo::Incr(phi) => format!("INCR(phi={phi})"),
            BucketAlgo::Quant { bits, k, eps_bits } => {
                format!("QUANT(bits={bits}, k={k}, eps={:.1e})", f64::from_bits(*eps_bits))
            }
            other => other.name().to_string(),
        }
    }
}

fn algo_of(method: ResolvedMethod) -> BucketAlgo {
    match method {
        ResolvedMethod::Length => BucketAlgo::Length,
        ResolvedMethod::Coord(phi) => BucketAlgo::Coord(phi),
        ResolvedMethod::Incr(phi) => BucketAlgo::Incr(phi),
        ResolvedMethod::Ta => BucketAlgo::Ta,
        ResolvedMethod::Tree => BucketAlgo::Tree,
        ResolvedMethod::L2ap => BucketAlgo::L2ap,
        ResolvedMethod::Blsh => BucketAlgo::Blsh,
        // Reached only when the bucket has no trained codebooks (the zip in
        // `Planner::segment` fills in the trained parameters otherwise).
        ResolvedMethod::Quant => BucketAlgo::Quant { bits: 0, k: 0, eps_bits: 0 },
    }
}

/// Per-bucket algorithm assignment of one shard (a single-engine plan has
/// exactly one segment). `params` are the tuned `t_b`/`φ_b` the execution
/// passes to the drivers; `algos` records, per bucket, the indexed
/// algorithm that serves the bucket at its strongest reachable local
/// threshold — hybrids (LC/LI) still fall back to LENGTH at run time for
/// individual queries whose `θ_b < t_b`, exactly as Sec. 4.4 prescribes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSegment {
    params: Vec<TunedParams>,
    algos: Vec<BucketAlgo>,
    /// The bucketization epoch this segment was compiled against —
    /// execution refuses to run the segment over any other epoch, so even
    /// count-preserving changes (an insert absorbed by an existing bucket,
    /// a re-tune) invalidate the plan instead of silently running with
    /// outdated assignments.
    epoch: u64,
}

impl PlanSegment {
    /// Number of buckets this segment covers.
    pub fn bucket_count(&self) -> usize {
        self.params.len()
    }

    pub(crate) fn check_fresh(&self, buckets: &ProbeBuckets, caller: &str) {
        assert_eq!(
            self.epoch,
            buckets.epoch(),
            "{caller}: stale plan — the engine's bucketization changed since it was compiled"
        );
        debug_assert_eq!(self.params.len(), buckets.bucket_count());
    }

    /// Whether this segment was compiled against the current epoch of
    /// `buckets`. Edits only touch the owning shard's buckets, so in a
    /// sharded plan exactly the touched shard's segment goes stale.
    pub(crate) fn is_fresh(&self, buckets: &ProbeBuckets) -> bool {
        self.epoch == buckets.epoch()
    }

    /// The tuned per-bucket parameters (aligned with the bucket list).
    pub fn params(&self) -> &[TunedParams] {
        &self.params
    }

    /// The per-bucket algorithm assignment (aligned with the bucket list).
    pub fn algos(&self) -> &[BucketAlgo] {
        &self.algos
    }
}

/// Compiles [`QueryRequest`]s into [`QueryPlan`]s from a warmed engine's
/// tuned state. The planner performs **no tuning of its own** — it reads
/// the per-bucket `t_b`/`φ_b` the Sec. 4.4 tuner produced during
/// [`Lemp::warm`] and resolves each bucket's algorithm from them, so a
/// plan is cheap to build and valid until the bucketization changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Builds one shard's segment from its buckets and tuned parameters.
    pub(crate) fn segment(
        buckets: &ProbeBuckets,
        config: &RunConfig,
        tuned: &[TunedParams],
    ) -> PlanSegment {
        debug_assert_eq!(tuned.len(), buckets.bucket_count());
        let algos = tuned
            .iter()
            .zip(buckets.buckets())
            .map(|(params, bucket)| {
                // The strongest local threshold any query can pose is 1.0
                // (θ_b is capped by the cosine bound), which is exactly the
                // threshold the warm-up built indexes for — so this names
                // the index that serves the bucket.
                match resolve(config.variant, params, 1.0) {
                    ResolvedMethod::Quant => {
                        let q = bucket.indexes.quant.as_ref();
                        BucketAlgo::Quant {
                            bits: q.map_or(config.quantize_bits, |q| q.bits()),
                            k: q.map_or(0, |q| q.k() as u32),
                            eps_bits: q.map_or(0, |q| q.eps().to_bits()),
                        }
                    }
                    method => algo_of(method),
                }
            })
            .collect();
        PlanSegment { params: tuned.to_vec(), algos, epoch: buckets.epoch() }
    }
}

/// A compiled query plan: the request plus one [`PlanSegment`] per shard
/// (single-engine plans hold one segment). Build it with [`Engine::plan`];
/// execute it any number of times with [`Engine::execute`] — the plan is
/// immutable and shareable across threads.
///
/// A plan is tied to the bucketization it was compiled from: executing it
/// after the engine's bucket layout changed (dynamic edits, rebuilds)
/// panics rather than silently running with stale assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    request: QueryRequest,
    segments: Vec<PlanSegment>,
}

impl QueryPlan {
    pub(crate) fn new(request: QueryRequest, segments: Vec<PlanSegment>) -> Self {
        Self { request, segments }
    }

    /// The request this plan was compiled from.
    pub fn request(&self) -> &QueryRequest {
        &self.request
    }

    /// The per-shard segments (one for single-engine plans).
    pub fn segments(&self) -> &[PlanSegment] {
        &self.segments
    }

    /// Human-readable one-line summary: kind, options, and the algorithm
    /// histogram across all segments (e.g. `top-k [tuned]: LENGTH×3 INCR×9`).
    pub fn describe(&self) -> String {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for segment in &self.segments {
            for algo in &segment.algos {
                match counts.iter_mut().find(|(name, _)| *name == algo.name()) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((algo.name(), 1)),
                }
            }
        }
        let mode = if self.request.options.adaptive.is_some() { "adaptive" } else { "tuned" };
        let chunk = match self.request.options.chunk {
            Some(n) => format!(", chunk={n}"),
            None => String::new(),
        };
        let mix: Vec<String> = counts.iter().map(|(name, n)| format!("{name}×{n}")).collect();
        format!("{} [{mode}{chunk}]: {}", self.request.kind.name(), mix.join(" "))
    }

    /// Validates this plan against a single-engine bucketization and hands
    /// back its segment.
    pub(crate) fn single_segment(&self, buckets: &ProbeBuckets, caller: &str) -> &PlanSegment {
        assert_eq!(self.segments.len(), 1, "{caller}: plan was compiled for a sharded engine");
        let segment = &self.segments[0];
        segment.check_fresh(buckets, caller);
        segment
    }
}

/// The rows of a [`QueryResponse`]: an entry set for the Above-θ kinds, or
/// per-query top-k lists for the Row-Top-k kinds.
#[derive(Debug, Clone)]
pub enum QueryRows {
    /// Rows of an [`QueryKind::AboveTheta`] / [`QueryKind::AbsAboveTheta`]
    /// run (order unspecified).
    Entries(Vec<Entry>),
    /// Rows of a [`QueryKind::TopK`] / [`QueryKind::TopKWithFloor`] run,
    /// indexed by query row, best first.
    Lists(lemp_baselines::types::TopKLists),
}

/// What [`Engine::execute`] returns: the rows plus the uniform run
/// statistics ([`RunStats`], which carries the per-method
/// [`crate::MethodMix`]) — the same accounting for every kind, option and
/// engine.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The result rows.
    pub rows: QueryRows,
    /// Phase breakdown, work counters and method mix of the run.
    pub stats: RunStats,
}

impl QueryResponse {
    /// The entry set, if this response answers an Above-θ kind.
    pub fn entries(&self) -> Option<&[Entry]> {
        match &self.rows {
            QueryRows::Entries(entries) => Some(entries),
            QueryRows::Lists(_) => None,
        }
    }

    /// The per-query lists, if this response answers a Row-Top-k kind.
    pub fn lists(&self) -> Option<&lemp_baselines::types::TopKLists> {
        match &self.rows {
            QueryRows::Lists(lists) => Some(lists),
            QueryRows::Entries(_) => None,
        }
    }

    /// Converts into the classic Above-θ output shape.
    ///
    /// # Panics
    /// If the response answers a Row-Top-k kind.
    pub fn into_above(self) -> AboveThetaOutput {
        match self.rows {
            QueryRows::Entries(entries) => AboveThetaOutput { entries, stats: self.stats },
            QueryRows::Lists(_) => panic!("response holds top-k lists, not entries"),
        }
    }

    /// Converts into the classic Row-Top-k output shape.
    ///
    /// # Panics
    /// If the response answers an Above-θ kind.
    pub fn into_top_k(self) -> TopKOutput {
        match self.rows {
            QueryRows::Lists(lists) => TopKOutput { lists, stats: self.stats },
            QueryRows::Entries(_) => panic!("response holds entries, not top-k lists"),
        }
    }

    pub(crate) fn from_above(out: AboveThetaOutput) -> Self {
        Self { rows: QueryRows::Entries(out.entries), stats: out.stats }
    }

    pub(crate) fn from_top_k(out: TopKOutput) -> Self {
        Self { rows: QueryRows::Lists(out.lists), stats: out.stats }
    }
}

/// Caller-owned scratch of the unified query path — one per querying
/// thread, obtained from [`Engine::query_scratch`]. Wraps the per-method
/// work arrays (per shard for a sharded engine) and, when a request runs
/// with [`ExecOptions::adaptive`], the bandit learning state, which
/// persists across calls with the same [`AdaptiveConfig`].
#[derive(Debug)]
pub struct Scratch {
    inner: ScratchInner,
    adaptive: Option<AdaptiveSlot>,
}

#[derive(Debug)]
enum ScratchInner {
    Single(Box<MethodScratch>),
    Sharded(Vec<MethodScratch>),
}

#[derive(Debug)]
struct AdaptiveSlot {
    cfg: AdaptiveConfig,
    selectors: Vec<AdaptiveSelector>,
}

impl Scratch {
    pub(crate) fn single(scratch: MethodScratch) -> Self {
        Self { inner: ScratchInner::Single(Box::new(scratch)), adaptive: None }
    }

    pub(crate) fn sharded(per_shard: Vec<MethodScratch>) -> Self {
        Self { inner: ScratchInner::Sharded(per_shard), adaptive: None }
    }

    /// What the adaptive bandits have learned so far: one
    /// [`AdaptiveReport`] per shard (one for a single engine), empty before
    /// the first run with [`ExecOptions::adaptive`]. The learning state
    /// persists across calls with the same [`AdaptiveConfig`], so a later
    /// report extends an earlier one.
    pub fn adaptive_reports(&self) -> Vec<AdaptiveReport> {
        self.adaptive.as_ref().map_or_else(Vec::new, |slot| {
            slot.selectors.iter().map(AdaptiveSelector::report).collect()
        })
    }

    /// (Re)materializes the adaptive selectors for the given configuration
    /// and bucketization shape; keeps existing learning state when both
    /// still match.
    fn ensure_selectors(&mut self, cfg: AdaptiveConfig, shapes: &[(usize, usize)]) {
        let fits = self.adaptive.as_ref().is_some_and(|slot| {
            slot.cfg == cfg
                && slot.selectors.len() == shapes.len()
                && slot
                    .selectors
                    .iter()
                    .zip(shapes)
                    .all(|(sel, &(buckets, _))| sel.bucket_count() == buckets)
        });
        if !fits {
            let selectors = shapes
                .iter()
                .map(|&(buckets, dim)| AdaptiveSelector::new(cfg, buckets, dim))
                .collect();
            self.adaptive = Some(AdaptiveSlot { cfg, selectors });
        }
    }

    /// Single-engine view: the method scratch plus (when requested) the
    /// lazily materialized selector.
    pub(crate) fn single_parts(
        &mut self,
        caller: &str,
        adaptive: Option<(AdaptiveConfig, usize, usize)>,
    ) -> (&mut MethodScratch, Option<&mut AdaptiveSelector>) {
        if let Some((cfg, buckets, dim)) = adaptive {
            self.ensure_selectors(cfg, &[(buckets, dim)]);
        }
        let scratch = match &mut self.inner {
            ScratchInner::Single(scratch) => scratch,
            ScratchInner::Sharded(_) => {
                panic!("{caller}: scratch was made for a sharded engine")
            }
        };
        let selector = match (&mut self.adaptive, adaptive) {
            (Some(slot), Some(_)) => Some(&mut slot.selectors[0]),
            _ => None,
        };
        (scratch, selector)
    }

    /// Sharded view: one method scratch per shard plus (when requested)
    /// one selector per shard.
    pub(crate) fn sharded_parts(
        &mut self,
        caller: &str,
        adaptive: Option<(AdaptiveConfig, &[(usize, usize)])>,
    ) -> (&mut [MethodScratch], Option<&mut [AdaptiveSelector]>) {
        if let Some((cfg, shapes)) = adaptive {
            self.ensure_selectors(cfg, shapes);
        }
        let scratches = match &mut self.inner {
            ScratchInner::Sharded(per_shard) => per_shard.as_mut_slice(),
            ScratchInner::Single(_) => {
                panic!("{caller}: scratch was made for a single (unsharded) engine")
            }
        };
        let selectors = match (&mut self.adaptive, adaptive) {
            (Some(slot), Some(_)) => Some(slot.selectors.as_mut_slice()),
            _ => None,
        };
        (scratches, selectors)
    }
}

/// One warmed engine behind the unified query surface. Implemented by
/// [`Lemp`], [`crate::DynamicLemp`] and [`crate::ShardedLemp`]; the trait
/// is dyn-compatible, so `Box<dyn Engine>` / `&dyn Engine` handles carry
/// any backend through the same `plan` → `execute` pipeline.
///
/// `plan` and `execute` require a warmed engine and panic with a
/// descriptive message otherwise; `execute` additionally panics when the
/// plan or scratch was made for a different engine or an outdated
/// bucketization.
pub trait Engine: Send + Sync {
    /// Compiles `request` into an executable plan from this engine's tuned
    /// warm state (see [`Planner`]).
    fn plan(&self, request: &QueryRequest) -> QueryPlan;

    /// Executes a compiled plan over `queries` through `&self`, with a
    /// caller-owned scratch — safe to call from many threads concurrently
    /// (one scratch each). A chunked plan is [`Engine::execute_stream`]
    /// with its blocks collected into one response.
    fn execute(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
    ) -> QueryResponse {
        if plan.request().options.chunk.is_some() {
            return collect_stream(self, plan, queries, scratch);
        }
        self.execute_block(plan, queries, scratch)
    }

    /// Executes `plan` over `queries` as one block, ignoring
    /// [`ExecOptions::chunk`] — the per-backend step behind
    /// [`Engine::execute`] and [`Engine::execute_stream`], which own the
    /// chunking. Callers use those two.
    fn execute_block(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
    ) -> QueryResponse;

    /// A [`Scratch`] sized for this engine (one per querying thread).
    fn query_scratch(&self) -> Scratch;

    /// Live probe count.
    fn probes(&self) -> usize;

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Whether the engine is warm (`plan`/`execute` are usable).
    fn is_warm(&self) -> bool;

    /// Number of shards (1 for single-engine backends).
    fn shard_count(&self) -> usize {
        1
    }

    /// Warms the engine for the given goal (tunes per-bucket parameters on
    /// `sample` and force-builds every bucket's indexes) — the mutable
    /// setup step before the immutable `plan`/`execute` phase.
    fn warm_up(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport;

    /// Recompiles a plan after edits may have invalidated it. The default
    /// recompiles from scratch; sharded engines override it to reuse every
    /// segment whose shard is untouched and recompile only the stale ones
    /// (edits staleness-stamp only the owning shard's segment).
    fn refresh_plan(&self, plan: &QueryPlan) -> QueryPlan {
        self.plan(plan.request())
    }

    /// Convenience: `plan` + `execute` in one call (dyn-dispatchable).
    fn run(
        &self,
        request: &QueryRequest,
        queries: &VectorStore,
        scratch: &mut Scratch,
    ) -> QueryResponse {
        let plan = self.plan(request);
        self.execute(&plan, queries, scratch)
    }

    /// Executes `plan` block by block and hands each block's response to
    /// `sink` together with the global row of the block's first query.
    /// Entry query ids are already global; list `i` of a block answers
    /// query `offset + i`. Blocks are contiguous and arrive in ascending
    /// query order, so peak memory is bounded by one block. A plan without
    /// [`ExecOptions::chunk`] is one block at offset 0.
    ///
    /// # Panics
    /// If the plan's chunk size is 0, plus the conditions of
    /// [`Engine::execute`].
    fn execute_stream(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
        sink: &mut dyn FnMut(usize, QueryResponse),
    ) {
        let Some(chunk) = plan.request().options.chunk else {
            return sink(0, self.execute_block(plan, queries, scratch));
        };
        for_each_chunk(queries, chunk, |block, offset| {
            let mut response = self.execute_block(plan, block, scratch);
            if let QueryRows::Entries(entries) = &mut response.rows {
                for e in entries {
                    e.query += offset as u32;
                }
            }
            sink(offset, response);
        });
    }

    /// [`Engine::execute`] plus one [`crate::telemetry::TelemetrySink::on_query`] call: the
    /// sink receives the plan's request, the live probe count and the
    /// response's [`RunStats`] after the run, on the executing thread.
    /// This is how services observe engine telemetry without the engine
    /// depending on any serving crate (see [`crate::telemetry`]).
    fn execute_observed(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
        sink: &dyn crate::telemetry::TelemetrySink,
    ) -> QueryResponse {
        let response = self.execute(plan, queries, scratch);
        sink.on_query(plan.request(), self.probes(), &response.stats);
        response
    }
}

/// The prepared (warmed, read-only) parts of one single-engine execution:
/// everything the drivers need, with the per-bucket parameters taken from
/// the plan's [`PlanSegment`].
pub(crate) struct SinglePrepared<'a> {
    pub(crate) buckets: &'a ProbeBuckets,
    pub(crate) config: &'a RunConfig,
    pub(crate) per_bucket: &'a [TunedParams],
    pub(crate) blsh: Option<&'a MinMatchTable>,
}

impl SinglePrepared<'_> {
    fn above_once(
        &self,
        queries: &VectorStore,
        theta: f64,
        scratch: &mut MethodScratch,
        selector: &mut Option<&mut AdaptiveSelector>,
    ) -> AboveThetaOutput {
        match selector {
            Some(sel) => {
                adaptive::above_theta_adaptive_prepared(self.buckets, queries, theta, sel, scratch)
            }
            None => runner::above_theta_prepared(
                self.buckets,
                queries,
                theta,
                self.config,
                self.per_bucket,
                self.blsh,
                scratch,
            ),
        }
    }

    fn topk_once(
        &self,
        queries: &VectorStore,
        k: usize,
        floor: f64,
        scratch: &mut MethodScratch,
        selector: &mut Option<&mut AdaptiveSelector>,
    ) -> TopKOutput {
        match selector {
            Some(sel) => {
                adaptive::row_top_k_adaptive_prepared(self.buckets, queries, k, floor, sel, scratch)
            }
            None => runner::row_top_k_prepared(
                self.buckets,
                queries,
                k,
                floor,
                self.config,
                self.per_bucket,
                self.blsh,
                scratch,
            ),
        }
    }
}

/// Slices `queries` into blocks of `chunk` rows and hands each block (with
/// its row offset) to `body` — the loop behind [`Engine::execute_stream`].
pub(crate) fn for_each_chunk(
    queries: &VectorStore,
    chunk: usize,
    mut body: impl FnMut(&VectorStore, usize),
) {
    assert!(chunk > 0, "chunk_size must be positive");
    let dim = queries.dim();
    let mut offset = 0usize;
    while offset < queries.len() {
        let end = (offset + chunk).min(queries.len());
        let block =
            VectorStore::from_flat(queries.as_flat()[offset * dim..end * dim].to_vec(), dim)
                .expect("slice of a valid store is valid");
        body(&block, offset);
        offset = end;
    }
}

/// The materializing form of [`Engine::execute_stream`]: concatenates the
/// blocks' rows (in query order) and merges their statistics.
fn collect_stream<E: Engine + ?Sized>(
    engine: &E,
    plan: &QueryPlan,
    queries: &VectorStore,
    scratch: &mut Scratch,
) -> QueryResponse {
    let mut rows = if plan.request().kind.is_above() {
        QueryRows::Entries(Vec::new())
    } else {
        QueryRows::Lists(Vec::with_capacity(queries.len()))
    };
    let mut stats = RunStats::default();
    engine.execute_stream(plan, queries, scratch, &mut |_, block| {
        stats.merge(&block.stats);
        match (&mut rows, block.rows) {
            (QueryRows::Entries(all), QueryRows::Entries(entries)) => all.extend(entries),
            (QueryRows::Lists(all), QueryRows::Lists(lists)) => all.extend(lists),
            _ => unreachable!("every block answers the plan's kind"),
        }
    });
    QueryResponse { rows, stats }
}

/// Shared [`Engine`] plumbing for the two single-engine backends
/// ([`Lemp`] and [`crate::DynamicLemp`]): plan from the warm state's
/// tuned parameters, execute through [`execute_single`].
pub(crate) fn plan_single(engine_parts: &SinglePrepared<'_>, request: &QueryRequest) -> QueryPlan {
    QueryPlan::new(
        *request,
        vec![Planner::segment(engine_parts.buckets, engine_parts.config, engine_parts.per_bucket)],
    )
}

/// [`Engine::execute_block`] body shared by [`Lemp`] and
/// [`crate::DynamicLemp`]: one function, every kind × adaptive combination.
pub(crate) fn execute_single(
    buckets: &ProbeBuckets,
    config: &RunConfig,
    blsh: Option<&MinMatchTable>,
    plan: &QueryPlan,
    queries: &VectorStore,
    scratch: &mut Scratch,
) -> QueryResponse {
    let segment = plan.single_segment(buckets, "Engine::execute");
    let adaptive =
        plan.request().options.adaptive.map(|cfg| (cfg, buckets.bucket_count(), buckets.dim()));
    let (scratch, mut selector) = scratch.single_parts("Engine::execute", adaptive);
    let parts = SinglePrepared { buckets, config, per_bucket: segment.params(), blsh };
    match plan.request().kind {
        QueryKind::AboveTheta { theta } => {
            QueryResponse::from_above(parts.above_once(queries, theta, scratch, &mut selector))
        }
        QueryKind::AbsAboveTheta { theta } => {
            QueryResponse::from_above(crate::abs_above_theta_via(queries, theta, |q| {
                parts.above_once(q, theta, scratch, &mut selector)
            }))
        }
        QueryKind::TopK { k } => QueryResponse::from_top_k(parts.topk_once(
            queries,
            k,
            f64::NEG_INFINITY,
            scratch,
            &mut selector,
        )),
        QueryKind::TopKWithFloor { k, floor } => {
            QueryResponse::from_top_k(parts.topk_once(queries, k, floor, scratch, &mut selector))
        }
    }
}

impl Engine for Lemp {
    fn plan(&self, request: &QueryRequest) -> QueryPlan {
        let warm = self.warm_state("Engine::plan");
        plan_single(
            &SinglePrepared {
                buckets: self.buckets(),
                config: self.config(),
                per_bucket: &warm.per_bucket,
                blsh: warm.blsh_table.as_ref(),
            },
            request,
        )
    }

    fn execute_block(
        &self,
        plan: &QueryPlan,
        queries: &VectorStore,
        scratch: &mut Scratch,
    ) -> QueryResponse {
        let warm = self.warm_state("Engine::execute");
        execute_single(
            self.buckets(),
            self.config(),
            warm.blsh_table.as_ref(),
            plan,
            queries,
            scratch,
        )
    }

    fn query_scratch(&self) -> Scratch {
        Scratch::single(self.make_scratch())
    }

    fn probes(&self) -> usize {
        self.buckets().total()
    }

    fn dim(&self) -> usize {
        self.buckets().dim()
    }

    fn is_warm(&self) -> bool {
        Lemp::is_warm(self)
    }

    fn warm_up(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        Lemp::warm(self, sample, goal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_data::synthetic::GeneratorConfig;

    fn warmed(n: usize, seed: u64) -> (VectorStore, Lemp) {
        let p = GeneratorConfig::gaussian(n, 8, 1.0).generate(seed);
        let q = GeneratorConfig::gaussian(10, 8, 1.0).generate(seed + 1);
        let mut engine = Lemp::builder().sample_size(8).build(&p);
        engine.warm(&q, WarmGoal::TopK(3));
        (q, engine)
    }

    #[test]
    fn request_constructors_and_options() {
        let r = QueryRequest::top_k(5).adaptive(AdaptiveConfig::default()).chunked(16);
        assert_eq!(r.kind, QueryKind::TopK { k: 5 });
        assert!(r.options.adaptive.is_some());
        assert_eq!(r.options.chunk, Some(16));
        assert_eq!(QueryRequest::above_theta(1.0).kind.name(), "above-theta");
        assert!(QueryRequest::abs_above_theta(1.0).kind.is_above());
        assert!(!QueryRequest::top_k_with_floor(3, 0.5).kind.is_above());
        assert!(matches!(QueryRequest::top_k(0).kind.warm_goal(), WarmGoal::TopK(1)));
        assert!(
            matches!(QueryRequest::above_theta(2.0).kind.warm_goal(), WarmGoal::Above(t) if t == 2.0)
        );
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_is_rejected_at_construction() {
        let _ = QueryRequest::top_k(3).chunked(0);
    }

    #[test]
    fn quant_algo_renders_its_parameters() {
        let algo = BucketAlgo::Quant { bits: 8, k: 256, eps_bits: 0.012f64.to_bits() };
        assert_eq!(algo.name(), "QUANT");
        assert_eq!(algo.detail(), "QUANT(bits=8, k=256, eps=1.2e-2)");
    }

    #[test]
    fn plan_reflects_the_bucketization() {
        let (_, engine) = warmed(200, 42);
        let plan = engine.plan(&QueryRequest::top_k(3));
        assert_eq!(plan.segments().len(), 1);
        assert_eq!(plan.segments()[0].bucket_count(), engine.buckets().bucket_count());
        assert_eq!(plan.segments()[0].params().len(), plan.segments()[0].algos().len());
        let summary = plan.describe();
        assert!(summary.starts_with("top-k [tuned]"), "{summary}");
    }

    #[test]
    fn plan_is_reusable_and_deterministic() {
        let (q, engine) = warmed(200, 43);
        let plan = engine.plan(&QueryRequest::above_theta(1.0));
        assert_eq!(plan, engine.plan(&QueryRequest::above_theta(1.0)));
        let mut scratch = engine.query_scratch();
        let a = engine.execute(&plan, &q, &mut scratch);
        let b = engine.execute(&plan, &q, &mut scratch);
        assert_eq!(a.entries().unwrap().len(), b.entries().unwrap().len());
    }

    #[test]
    #[should_panic(expected = "requires a warmed engine")]
    fn planning_a_cold_engine_panics() {
        let p = GeneratorConfig::gaussian(50, 8, 1.0).generate(7);
        let engine = Lemp::new(&p);
        let _ = engine.plan(&QueryRequest::top_k(1));
    }

    #[test]
    #[should_panic(expected = "stale plan")]
    fn plans_are_invalidated_by_count_preserving_edits() {
        use crate::{BucketPolicy, DynamicLemp, RunConfig};
        let p = GeneratorConfig::gaussian(120, 8, 1.0).generate(48);
        let q = GeneratorConfig::gaussian(10, 8, 1.0).generate(49);
        let config = RunConfig { sample_size: 8, ..Default::default() };
        let mut engine = DynamicLemp::new(&p, BucketPolicy::default(), config);
        engine.warm(&q, WarmGoal::TopK(3));
        let plan = Engine::plan(&engine, &QueryRequest::top_k(3));
        // An insert absorbed by an existing bucket keeps the bucket count
        // unchanged — the epoch still invalidates the plan. A copy of an
        // existing probe always lands inside that probe's bucket.
        let before = engine.bucket_count();
        engine.insert(p.vector(0)).unwrap();
        assert_eq!(engine.bucket_count(), before, "fixture must preserve the bucket count");
        let mut scratch = Engine::query_scratch(&engine);
        let _ = engine.execute(&plan, &q, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "stale plan")]
    fn stale_plan_is_rejected() {
        let (q, engine) = warmed(200, 44);
        let (_, other) = warmed(20, 45); // different bucketization
        let plan = engine.plan(&QueryRequest::top_k(2));
        let mut scratch = other.query_scratch();
        let _ = other.execute(&plan, &q, &mut scratch);
    }

    #[test]
    fn response_accessors_match_the_kind() {
        let (q, engine) = warmed(150, 46);
        let mut scratch = engine.query_scratch();
        let above = Engine::run(&engine, &QueryRequest::above_theta(1.0), &q, &mut scratch);
        assert!(above.entries().is_some() && above.lists().is_none());
        let top = Engine::run(&engine, &QueryRequest::top_k(2), &q, &mut scratch);
        assert!(top.lists().is_some() && top.entries().is_none());
        assert_eq!(top.into_top_k().lists.len(), q.len());
    }

    #[test]
    fn adaptive_state_persists_across_calls_and_rebuilds_on_config_change() {
        let (q, engine) = warmed(200, 47);
        let mut scratch = engine.query_scratch();
        assert!(scratch.adaptive_reports().is_empty(), "no report before an adaptive run");
        let cfg = AdaptiveConfig::default();
        let request = QueryRequest::top_k(3).adaptive(cfg);
        let plan = engine.plan(&request);
        let first = engine.execute(&plan, &q, &mut scratch);
        let after_first = scratch.adaptive_reports();
        assert_eq!(after_first.len(), 1, "one report per shard");
        assert!(after_first[0].total_pulls() > 0);
        assert_eq!(after_first[0].total_pulls(), first.stats.method_mix.total());
        let second = engine.execute(&plan, &q, &mut scratch);
        let after_second = scratch.adaptive_reports();
        assert_eq!(
            after_second[0].total_pulls(),
            first.stats.method_mix.total() + second.stats.method_mix.total(),
            "learning must persist: the report counts both calls"
        );
        // The second report extends the first arm by arm.
        for (b1, b2) in after_first[0].buckets.iter().zip(&after_second[0].buckets) {
            for (bin1, bin2) in b1.iter().zip(b2) {
                for (a1, a2) in bin1.arms.iter().zip(&bin2.arms) {
                    assert!(a2.pulls >= a1.pulls && a2.total_ns >= a1.total_ns);
                }
            }
        }
        // A different configuration rebuilds the learning state.
        let other = QueryRequest::top_k(3)
            .adaptive(AdaptiveConfig { theta_bins: 2, ..AdaptiveConfig::default() });
        let third = Engine::run(&engine, &other, &q, &mut scratch);
        let after_rebuild = scratch.adaptive_reports();
        assert_eq!(after_rebuild[0].total_pulls(), third.stats.method_mix.total());
        assert!(
            after_rebuild[0].total_pulls() < after_second[0].total_pulls(),
            "config change must reset learning"
        );
    }
}
