//! Shared execution plumbing: run configuration, lazy index construction,
//! method dispatch, and the verification step (Alg. 1 lines 14–16).

use std::time::Instant;

use lemp_baselines::types::Entry;
use lemp_linalg::{kernels, TopK};

use crate::algos::blsh_bucket::MinMatchTable;
use crate::algos::{blsh_bucket, coord, incr, l2ap_bucket, length, ta_bucket, tree_bucket};
use crate::algos::{MethodScratch, QueryCtx, Sink};
use crate::bucket::{Bucket, ProbeBuckets};
use crate::variant::{LempVariant, ResolvedMethod};

/// Options of one LEMP engine (builder-settable; defaults follow the
/// paper's experimental setup, Sec. 6.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which bucket method(s) to run.
    pub variant: LempVariant,
    /// Queries sampled by the tuner (Sec. 4.4).
    pub sample_size: usize,
    /// BLSH signature width in bits (paper: one signature of 32 bits).
    pub blsh_bits: usize,
    /// BLSH false-negative budget ε (paper: 0.03).
    pub blsh_eps: f64,
    /// Cover-tree base (paper: 1.3).
    pub tree_base: f64,
    /// Worker threads for the retrieval phase (1 = the paper's setting).
    pub threads: usize,
    /// L2AP index threshold used for Row-Top-k runs, where no a-priori
    /// lower bound on the local threshold exists (Above-θ runs derive it
    /// from `θ_b(q_max)` instead).
    pub l2ap_topk_threshold: f64,
    /// Code width for the quantized bucket representation (`0` disables
    /// quantization; valid widths are `1..=16`). When enabled, `warm`
    /// trains one PQ codebook for the engine (per shard in a sharded
    /// engine), encodes every bucket against it, and the tuner decides per
    /// bucket whether the LUT scan or the variant's exact scan wins.
    pub quantize_bits: u8,
    /// Skips the tuner's LUT-vs-exact timing race and routes every encoded
    /// bucket through the quantized scan. The decision in `tune_quant` is
    /// measured wall-clock (each bucket's scan against its incumbent, with
    /// the query's LUT build charged once per sampled query), so which
    /// buckets flip to QUANT varies with machine load; forcing it makes
    /// runs that must exercise the LUT kernels (benchmarks, smoke tests)
    /// reproducible. No effect unless `quantize_bits > 0`; exactness is
    /// unaffected either way (candidates are always re-verified against
    /// full precision).
    pub quantize_force: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            variant: LempVariant::LI,
            sample_size: 50,
            blsh_bits: 32,
            blsh_eps: 0.03,
            tree_base: 1.3,
            threads: 1,
            l2ap_topk_threshold: 0.05,
            quantize_bits: 0,
            quantize_force: false,
        }
    }
}

/// Accumulates lazy index-construction work (reported as preprocessing
/// time, as in the paper's Table 2 accounting).
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildClock {
    /// Nanoseconds spent building indexes.
    pub ns: u64,
    /// Number of indexes built.
    pub built: u64,
}

/// Returns whether `method` needs an index that `bucket` does not have yet.
pub(crate) fn needs_build(bucket: &Bucket, method: ResolvedMethod) -> bool {
    match method {
        ResolvedMethod::Length => false,
        ResolvedMethod::Coord(_) => bucket.indexes.coord.is_none(),
        ResolvedMethod::Incr(_) => bucket.indexes.incr.is_none(),
        ResolvedMethod::Ta => bucket.indexes.ta.is_none(),
        ResolvedMethod::Tree => bucket.indexes.tree.is_none(),
        ResolvedMethod::L2ap => bucket.indexes.l2ap.is_none(),
        ResolvedMethod::Blsh => bucket.indexes.blsh.is_none(),
        ResolvedMethod::Quant => bucket.indexes.quant.is_none(),
    }
}

/// Lazily builds the index `method` needs on bucket `b` (Sec. 4.2: "LEMP
/// constructs indexes lazily on first use"). `l2ap_t` is the L2AP index
/// threshold for this bucket; BLSH hyperplanes are derandomized per bucket
/// ([`crate::runner::cfg_seed`]). QUANT encodes the bucket against the
/// engine codebook, training that first if this is the first QUANT bucket
/// (each counts as one build).
pub(crate) fn ensure_for(
    buckets: &mut ProbeBuckets,
    b: usize,
    method: ResolvedMethod,
    l2ap_t: f64,
    cfg: &RunConfig,
    clock: &mut BuildClock,
) {
    if !needs_build(&buckets.buckets()[b], method) {
        return;
    }
    let start = Instant::now();
    let built = if method == ResolvedMethod::Quant {
        buckets.ensure_quant(b, cfg.quantize_bits)
    } else {
        let bucket = &mut buckets.buckets_mut()[b];
        u64::from(match method {
            ResolvedMethod::Length | ResolvedMethod::Quant => false,
            ResolvedMethod::Coord(_) => bucket.ensure_coord(),
            ResolvedMethod::Incr(_) => bucket.ensure_incr(),
            ResolvedMethod::Ta => bucket.ensure_ta(),
            ResolvedMethod::Tree => bucket.ensure_tree(cfg.tree_base),
            ResolvedMethod::L2ap => bucket.ensure_l2ap(l2ap_t),
            ResolvedMethod::Blsh => {
                bucket.ensure_blsh(cfg.blsh_bits, crate::runner::cfg_seed(cfg, b))
            }
        })
    };
    if built > 0 {
        clock.ns += start.elapsed().as_nanos() as u64;
        clock.built += built;
    }
}

/// Dispatches one bucket-method invocation; returns the number of inner
/// products the method computed internally (TA and Tree verify inline).
///
/// # Panics
/// If the index the method requires has not been built (callers go through
/// [`ensure_for`] first).
pub(crate) fn run_method(
    method: ResolvedMethod,
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    blsh_table: Option<&MinMatchTable>,
    scratch: &mut MethodScratch,
    sink: &mut Sink,
) -> u64 {
    match method {
        ResolvedMethod::Length => {
            length::run(ctx, bucket, sink);
            0
        }
        ResolvedMethod::Coord(phi) => {
            let index = bucket.indexes.coord.as_ref().expect("COORD index built");
            coord::run(ctx, bucket, index, phi, scratch, sink);
            0
        }
        ResolvedMethod::Incr(phi) => {
            let index = bucket.indexes.incr.as_ref().expect("INCR index built");
            incr::run(ctx, bucket, index, phi, scratch, sink);
            0
        }
        ResolvedMethod::Ta => {
            let index = bucket.indexes.ta.as_ref().expect("TA index built");
            ta_bucket::run(ctx, index, scratch, sink)
        }
        ResolvedMethod::Tree => {
            let tree = bucket.indexes.tree.as_ref().expect("tree built");
            tree_bucket::run(ctx, tree, scratch, sink)
        }
        ResolvedMethod::L2ap => {
            let index = bucket.indexes.l2ap.as_ref().expect("L2AP index built");
            l2ap_bucket::run(ctx, bucket, index, scratch, sink);
            0
        }
        ResolvedMethod::Blsh => {
            let index = bucket.indexes.blsh.as_ref().expect("BLSH index built");
            let table = blsh_table.expect("BLSH table precomputed");
            blsh_bucket::run(ctx, bucket, index, table, sink);
            0
        }
        ResolvedMethod::Quant => {
            let q = bucket.indexes.quant.as_ref().expect("QUANT codes encoded");
            let lut = scratch.lut.get(q.codebook(), ctx.dir);
            crate::quant::run(ctx, bucket, q, lut, &mut scratch.qscores, sink);
            0
        }
    }
}

/// Scores `query` against the bucket's original-scale probes `lids` into
/// `exact` ([`kernels::dot4`]: four probes per step, each value
/// bit-identical to one `kernels::dot`).
fn score(query: &[f64], bucket: &Bucket, lids: &[u32], exact: &mut Vec<f64>) {
    exact.clear();
    exact.resize(lids.len(), 0.0);
    kernels::dot4(query, bucket.origs.as_flat(), lids, exact);
}

/// Computes the exact inner products of `query` (original scale) with the
/// bucket's probes `lids` and appends, in `lids` order, an entry for every
/// one `≥ θ`. Returns the entries appended.
pub(crate) fn verify_lids(
    bucket: &Bucket,
    query: &[f64],
    theta: f64,
    lids: &[u32],
    query_id: u32,
    exact: &mut Vec<f64>,
    entries: &mut Vec<Entry>,
) -> u64 {
    score(query, bucket, lids, exact);
    let before = entries.len();
    for (&lid, &value) in lids.iter().zip(exact.iter()) {
        if value >= theta {
            entries.push(Entry { query: query_id, probe: bucket.ids[lid as usize], value });
        }
    }
    (entries.len() - before) as u64
}

/// Verification for Above-θ (Alg. 1 line 16): computes exact inner products
/// for unverified candidates, filters everything against θ, and appends
/// result entries. Returns `(inner products computed, results emitted)`.
pub(crate) fn verify_above(
    bucket: &Bucket,
    ctx: &QueryCtx<'_>,
    sink: &Sink,
    query_id: u32,
    exact: &mut Vec<f64>,
    entries: &mut Vec<Entry>,
) -> (u64, u64) {
    // Original-scale operands: bit-identical to a naive scan.
    let mut results =
        verify_lids(bucket, ctx.scaled, ctx.theta, &sink.unverified, query_id, exact, entries);
    for &(lid, value) in &sink.verified {
        if value >= ctx.theta {
            entries.push(Entry { query: query_id, probe: bucket.ids[lid as usize], value });
            results += 1;
        }
    }
    (sink.unverified.len() as u64, results)
}

/// Verification for Row-Top-k: exact inner products (with `‖q‖ = 1`
/// semantics, Sec. 4.5) offered to the running top-k heap. Candidates with
/// `lid < skip_below` were already pushed by the warm-up seeding and are
/// skipped to avoid duplicates (dropped from `sink.unverified` before
/// scoring). Returns inner products computed.
pub(crate) fn verify_topk(
    bucket: &Bucket,
    ctx: &QueryCtx<'_>,
    sink: &mut Sink,
    skip_below: usize,
    exact: &mut Vec<f64>,
    top: &mut TopK,
) -> u64 {
    if skip_below > 0 {
        sink.unverified.retain(|&lid| lid as usize >= skip_below);
    }
    score(ctx.dir, bucket, &sink.unverified, exact);
    for (&lid, &value) in sink.unverified.iter().zip(exact.iter()) {
        top.push(bucket.ids[lid as usize] as usize, value);
    }
    let dots = sink.unverified.len() as u64;
    for &(lid, value) in &sink.verified {
        if (lid as usize) < skip_below {
            continue;
        }
        top.push(bucket.ids[lid as usize] as usize, value);
    }
    dots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketPolicy, ProbeBuckets};
    use lemp_data::synthetic::GeneratorConfig;
    use lemp_linalg::VectorStore;

    fn one_bucket(n: usize, seed: u64) -> ProbeBuckets {
        let store = GeneratorConfig::gaussian(n, 6, 0.3).generate(seed);
        let policy = BucketPolicy { min_bucket: n, length_ratio: 0.1, ..Default::default() };
        ProbeBuckets::build(&store, &policy)
    }

    #[test]
    fn ensure_for_builds_each_kind_once() {
        let mut pb = one_bucket(80, 1);
        let cfg = RunConfig::default();
        let mut clock = BuildClock::default();
        for method in [
            ResolvedMethod::Length,
            ResolvedMethod::Coord(2),
            ResolvedMethod::Incr(3),
            ResolvedMethod::Ta,
            ResolvedMethod::Tree,
            ResolvedMethod::L2ap,
            ResolvedMethod::Blsh,
        ] {
            ensure_for(&mut pb, 0, method, 0.5, &cfg, &mut clock);
            ensure_for(&mut pb, 0, method, 0.5, &cfg, &mut clock); // idempotent
        }
        assert_eq!(clock.built, 6); // everything except Length
        assert!(clock.ns > 0);
        assert!(!needs_build(&pb.buckets()[0], ResolvedMethod::Tree));
    }

    #[test]
    fn ensure_for_trains_quant_codebooks_once() {
        let store = GeneratorConfig::gaussian(90, 6, 0.3).generate(2);
        // A cache cap of exactly 30 vectors: three buckets of 30.
        let policy =
            BucketPolicy { min_bucket: 30, cache_bytes: 30 * (32 * 6 + 12), ..Default::default() };
        let mut pb = ProbeBuckets::build(&store, &policy);
        assert_eq!(pb.bucket_count(), 3);
        let cfg = RunConfig { quantize_bits: 8, ..Default::default() };
        let mut clock = BuildClock::default();
        ensure_for(&mut pb, 0, ResolvedMethod::Quant, 0.5, &cfg, &mut clock);
        ensure_for(&mut pb, 0, ResolvedMethod::Quant, 0.5, &cfg, &mut clock); // idempotent
        assert_eq!(clock.built, 2, "codebook + the first bucket's codes");
        ensure_for(&mut pb, 2, ResolvedMethod::Quant, 0.5, &cfg, &mut clock);
        assert_eq!(clock.built, 3, "later buckets only encode");
        let codebook = pb.codebook().expect("engine codebook trained");
        for b in [0, 2] {
            let q = pb.buckets()[b].indexes.quant.as_ref().unwrap();
            assert!(std::sync::Arc::ptr_eq(q.codebook(), codebook));
            assert!(!needs_build(&pb.buckets()[b], ResolvedMethod::Quant));
        }
        assert!(needs_build(&pb.buckets()[1], ResolvedMethod::Quant));
    }

    #[test]
    fn verify_above_filters_spurious_candidates() {
        let store = VectorStore::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let policy = BucketPolicy { min_bucket: 2, ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        let bucket = &pb.buckets()[0];
        let dir = [1.0, 0.0];
        let ctx = QueryCtx {
            dir: &dir,
            len: 2.0,
            theta: 1.5,
            theta_over_len: 0.75,
            local_threshold: 0.75,
            scaled: &[2.0, 0.0],
        };
        let sink = Sink { unverified: vec![0, 1], verified: vec![] };
        let mut entries = Vec::new();
        let (dots, results) = verify_above(bucket, &ctx, &sink, 9, &mut Vec::new(), &mut entries);
        assert_eq!(dots, 2);
        assert_eq!(results, 1); // only the aligned probe reaches 2.0 ≥ 1.5
        assert_eq!(entries[0].query, 9);
        assert!((entries[0].value - 2.0).abs() < 1e-12);
    }

    #[test]
    fn verify_topk_skips_seeded_prefix() {
        let mut pb = one_bucket(10, 3);
        let bucket = &mut pb.buckets_mut()[0];
        let dir: Vec<f64> = bucket.dirs.vector(0).to_vec();
        let ctx = QueryCtx {
            dir: &dir,
            len: 1.0,
            theta: f64::NEG_INFINITY,
            theta_over_len: f64::NEG_INFINITY,
            local_threshold: f64::NEG_INFINITY,
            scaled: &dir,
        };
        let mut sink = Sink { unverified: (0..10).collect(), verified: vec![] };
        let mut top = TopK::new(10);
        let dots = verify_topk(bucket, &ctx, &mut sink, 3, &mut Vec::new(), &mut top);
        assert_eq!(dots, 7, "first three lids must be skipped");
        assert_eq!(top.len(), 7);
    }
}
