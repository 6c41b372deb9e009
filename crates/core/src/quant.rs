//! Quantized probe buckets: one product-quantization (PQ) codebook per
//! engine with small-LUT scoring (the ROADMAP's "High-Rate Nested-Lattice
//! Quantized Matrix Multiplication with Small Lookup Tables" direction).
//!
//! Unit directions are cut into `m` subspaces of [`SUB_DIM`] coordinates.
//! A [`PqCodebook`] holds, per subspace, `k ≤ 2^bits` centroids trained
//! with deterministic Lloyd iterations; an engine (or shard) trains **one**
//! codebook over an evenly strided sample of at most
//! [`SAMPLE_PER_CENTROID`]`·2^bits` of its length-sorted directions, and
//! every bucket stores only its probes' packed code indices
//! ([`QuantizedBucket`]). A query's lookup table
//! (`lut[s·k + c] = q̄_s · centroid_{s,c}`) therefore depends on the query
//! alone: the drivers build it at the first QUANT bucket the query reaches
//! ([`QueryLut`]) and reuse it for every later one, after which a probe's
//! approximate cosine is `m` table lookups — the gather-accumulate kernels
//! in `lemp-linalg` ([`lemp_linalg::kernels::lut_scan_u8`]) run this scan
//! in scalar or AVX2 form with bit-identical results.
//!
//! # Exactness contract
//!
//! Each bucket keeps every probe's **reconstruction error**
//! `err_i = ‖d̄_i − recon_i‖` under the shared codebook, and its worst one,
//! the bucket's **distortion bound** `eps_b = max_i err_i`. With a unit
//! query direction `q̄`, Cauchy–Schwarz gives `|q̄·d̄_i − q̄·recon_i| ≤
//! err_i`, so `approx_i + err_i` upper-bounds the true cosine. The bucket
//! scan (`run`) folds this per-probe bound into the θ/k-floor test: a
//! probe is a candidate iff `len_i·(approx_i + err_i)` clears the
//! threshold, and every candidate is re-verified against the
//! full-precision vectors by the shared verification step — Above-θ and
//! Row-Top-k answers stay **bit-identical** to the exact engine however
//! coarse the codebook is (a coarse codebook only raises the errors and
//! with them the candidate count). `eps_b` bounds the scan's early break
//! and is what plans report. Both are always computed from the bucket's
//! own directions — at encoding and again at load — never trusted from an
//! image. The
//! *approximate* mode (scoring by `len_i·approx_i` without verification,
//! used by the `crates/approx` recall harness) trades that guarantee for
//! speed.

use std::sync::Arc;

use lemp_linalg::{kernels, VectorStore};

use crate::algos::{QueryCtx, Sink};
use crate::bucket::Bucket;

/// Coordinates per quantization subspace. Four doubles collapse into one
/// code byte at 8 bits — the 4–8× residency reduction the ROADMAP targets.
pub const SUB_DIM: usize = 4;

/// Largest accepted code width; wider codes would not fit `u16` storage.
pub const MAX_QUANT_BITS: u8 = 16;

/// Training-sample cap per centroid: a codebook of `2^bits` centroids
/// trains on at most `SAMPLE_PER_CENTROID · 2^bits` directions, so set-up
/// time stays flat as the probe set grows.
pub const SAMPLE_PER_CENTROID: usize = 8;

/// Lloyd iterations per subspace codebook (deterministic, seeded init).
const KMEANS_ITERS: usize = 6;

/// Seed of every engine codebook's k-means initialization.
pub(crate) const CODEBOOK_SEED: u64 = 0x1E4D_C0DE;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Most training rows a codebook of the given width (`1..=16`) uses.
pub(crate) fn sample_cap(bits: u8) -> usize {
    debug_assert!(bits <= MAX_QUANT_BITS);
    SAMPLE_PER_CENTROID << bits
}

/// `min(n, cap)` evenly strided positions over `0..n` (all of them when
/// `n ≤ cap`) — the training sample over length-sorted directions.
pub(crate) fn strided(n: usize, cap: usize) -> Vec<usize> {
    let take = n.min(cap);
    (0..take).map(|i| ((i as u128 * n as u128) / take as u128) as usize).collect()
}

/// Packed per-probe code indices, subspace-major (`codes[s·n + i]` is probe
/// `i`'s centroid index in subspace `s`). Width follows the code bits: one
/// byte per entry up to 8 bits, two bytes for 9–16.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantCodes {
    /// Codebooks of up to 256 centroids.
    U8(Vec<u8>),
    /// Wider codebooks (9–16 bits).
    U16(Vec<u16>),
}

impl QuantCodes {
    pub(crate) fn len(&self) -> usize {
        match self {
            QuantCodes::U8(v) => v.len(),
            QuantCodes::U16(v) => v.len(),
        }
    }

    pub(crate) fn get(&self, idx: usize) -> usize {
        match self {
            QuantCodes::U8(v) => v[idx] as usize,
            QuantCodes::U16(v) => v[idx] as usize,
        }
    }

    /// Bytes of packed code storage.
    pub fn bytes(&self) -> usize {
        match self {
            QuantCodes::U8(v) => v.len(),
            QuantCodes::U16(v) => v.len() * 2,
        }
    }
}

/// One engine's PQ codebook: `m` subspaces of `k` centroids each, stored
/// column-wise (structure of arrays) so the per-query LUT fill
/// ([`kernels::lut_fill4`]) and the nearest-centroid search run over
/// contiguous rows.
#[derive(Debug, Clone, PartialEq)]
pub struct PqCodebook {
    bits: u8,
    sub_dim: usize,
    m: usize,
    k: usize,
    dim: usize,
    /// `centroids[(s·SUB_DIM + d)·k + c]` is coordinate `d` of centroid `c`
    /// of subspace `s`. Rows past a subspace's width (the last subspace
    /// when `dim` is not a multiple of [`SUB_DIM`], or every subspace when
    /// `dim < SUB_DIM`) are zero.
    centroids: Vec<f64>,
}

impl PqCodebook {
    /// Trains the codebook over `sample` (one unit direction per row) at
    /// the given code width: `k = min(2^bits, sample.len())` centroids per
    /// subspace. Deterministic: the same inputs and seed always produce
    /// the same codebook. Returns `None` for an empty sample, zero
    /// dimensionality, or a code width outside `1..=`[`MAX_QUANT_BITS`].
    pub fn train(sample: &VectorStore, bits: u8, seed: u64) -> Option<Self> {
        let (n, dim) = (sample.len(), sample.dim());
        if n == 0 || dim == 0 || bits == 0 || bits > MAX_QUANT_BITS {
            return None;
        }
        let sub_dim = SUB_DIM.min(dim);
        let m = dim.div_ceil(sub_dim);
        let k = n.min(1usize << bits);
        let mut centroids = vec![0.0; m * SUB_DIM * k];
        let mut points = vec![[0.0f64; SUB_DIM]; n];
        let mut dists = vec![0.0f64; k];
        let mut err_sq = vec![0.0f64; n];
        let mut sums = vec![[0.0f64; SUB_DIM]; k];
        let mut counts = vec![0usize; k];
        let mut rng = seed | 1;
        for s in 0..m {
            for (i, p) in points.iter_mut().enumerate() {
                *p = padded(sample.vector(i), s * sub_dim, sub_dim);
            }
            let cb = &mut centroids[s * SUB_DIM * k..(s + 1) * SUB_DIM * k];
            // Seeded rotation over evenly spaced rows: deterministic and
            // spread across the length-sorted sample.
            let offset = (splitmix(&mut rng) as usize) % n;
            for c in 0..k {
                set_column(cb, k, c, &points[(offset + c * n / k) % n]);
            }
            for _ in 0..KMEANS_ITERS {
                sums.iter_mut().for_each(|x| *x = [0.0; SUB_DIM]);
                counts.iter_mut().for_each(|x| *x = 0);
                for (i, p) in points.iter().enumerate() {
                    let (best, best_d) = nearest(p, cb, &mut dists);
                    err_sq[i] = best_d;
                    counts[best] += 1;
                    for (dst, &src) in sums[best].iter_mut().zip(p) {
                        *dst += src;
                    }
                }
                for c in 0..k {
                    if counts[c] > 0 {
                        let inv = 1.0 / counts[c] as f64;
                        set_column(cb, k, c, &sums[c].map(|x| x * inv));
                    } else {
                        // Reseed an empty cluster to the worst-fit point —
                        // deterministic (ties break on the lowest index).
                        let far = err_sq
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map_or(0, |(i, _)| i);
                        set_column(cb, k, c, &points[far]);
                    }
                }
            }
        }
        Some(Self { bits, sub_dim, m, k, dim, centroids })
    }

    /// Reassembles a codebook from persisted parts, validating the shape,
    /// the code width, finiteness and the zero padding.
    pub fn from_parts(
        bits: u8,
        sub_dim: usize,
        k: usize,
        dim: usize,
        centroids: Vec<f64>,
    ) -> Result<Self, String> {
        if bits == 0 || bits > MAX_QUANT_BITS {
            return Err(format!("quantized codebook: bits {bits} outside 1..=16"));
        }
        if dim == 0 || sub_dim != SUB_DIM.min(dim) {
            return Err(format!("quantized codebook: sub_dim {sub_dim} mismatches dim {dim}"));
        }
        if k == 0 || k > (1usize << bits) {
            return Err(format!("quantized codebook: k {k} invalid for bits {bits}"));
        }
        let m = dim.div_ceil(sub_dim);
        let want =
            m.checked_mul(SUB_DIM * k).ok_or("quantized codebook: centroid count overflows")?;
        if centroids.len() != want {
            return Err(format!(
                "quantized codebook: {} centroid values, expected {want}",
                centroids.len()
            ));
        }
        if centroids.iter().any(|v| !v.is_finite()) {
            return Err("quantized codebook: non-finite centroid value".to_string());
        }
        for s in 0..m {
            let w = (dim - s * sub_dim).min(sub_dim);
            let pad = &centroids[(s * SUB_DIM + w) * k..(s + 1) * SUB_DIM * k];
            if pad.iter().any(|&v| v != 0.0) {
                return Err(format!("quantized codebook: subspace {s} padding is not zero"));
            }
        }
        Ok(Self { bits, sub_dim, m, k, dim, centroids })
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Centroids per subspace.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of subspaces.
    pub fn subspaces(&self) -> usize {
        self.m
    }

    /// Coordinates per subspace (the last subspace may cover fewer).
    pub fn sub_dim(&self) -> usize {
        self.sub_dim
    }

    /// Dimensionality of the directions this codebook encodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The raw column-wise centroids (see the field docs) — persistence
    /// and inspection.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// Centroid `c` of subspace `s`, zero-padded to [`SUB_DIM`]
    /// coordinates.
    pub fn centroid(&self, s: usize, c: usize) -> [f64; SUB_DIM] {
        let cb = &self.centroids[s * SUB_DIM * self.k..];
        std::array::from_fn(|d| cb[d * self.k + c])
    }

    /// Resident bytes of the centroids.
    pub fn resident_bytes(&self) -> usize {
        self.centroids.len() * 8
    }

    /// Builds the query-specific lookup table:
    /// `lut[s·k + c] = (q₀·c₀ + q₁·c₁) + (q₂·c₂ + q₃·c₃)` over subspace
    /// `s` of the query and centroid `c` (coordinates past the subspace
    /// width are zero on both sides) — the pairwise reduction of a 4-wide
    /// [`kernels::dot`], in one fixed order ([`kernels::lut_fill4`]).
    pub fn fill_lut(&self, dir: &[f64], lut: &mut Vec<f64>) {
        let k = self.k;
        lut.clear();
        lut.resize(self.m * k, 0.0);
        for (s, row) in lut.chunks_exact_mut(k).enumerate() {
            let q = padded(dir, s * self.sub_dim, self.sub_dim);
            kernels::lut_fill4(&q, &self.centroids[s * SUB_DIM * k..(s + 1) * SUB_DIM * k], row);
        }
    }

    /// Encodes `dirs` (unit directions of this codebook's dimensionality)
    /// against the codebook and computes the rows' distortion bound.
    ///
    /// # Panics
    /// If `dirs` has a different dimensionality.
    pub fn encode(self: &Arc<Self>, dirs: &VectorStore) -> QuantizedBucket {
        assert_eq!(dirs.dim(), self.dim, "encode: dimensionality mismatch");
        let n = dirs.len();
        let k = self.k;
        let mut wide = vec![0u16; self.m * n];
        let mut dists = vec![0.0f64; k];
        for s in 0..self.m {
            let cb = &self.centroids[s * SUB_DIM * k..(s + 1) * SUB_DIM * k];
            for (i, code) in wide[s * n..(s + 1) * n].iter_mut().enumerate() {
                let p = padded(dirs.vector(i), s * self.sub_dim, self.sub_dim);
                *code = nearest(&p, cb, &mut dists).0 as u16;
            }
        }
        let codes = if self.bits <= 8 {
            QuantCodes::U8(wide.iter().map(|&c| c as u8).collect())
        } else {
            QuantCodes::U16(wide)
        };
        let (errs, eps) = distortion(self, &codes, dirs);
        QuantizedBucket { codebook: Arc::clone(self), n, codes, eps, errs }
    }
}

/// Coordinates `lo..lo + sub_dim` of `v` (clipped to its length), padded
/// with zeros to [`SUB_DIM`].
fn padded(v: &[f64], lo: usize, sub_dim: usize) -> [f64; SUB_DIM] {
    let w = (v.len() - lo).min(sub_dim);
    let mut out = [0.0; SUB_DIM];
    out[..w].copy_from_slice(&v[lo..lo + w]);
    out
}

/// The reference LUT entry: `(q₀·c₀ + q₁·c₁) + (q₂·c₂ + q₃·c₃)`.
fn four_dot(q: &[f64; SUB_DIM], c: &[f64; SUB_DIM]) -> f64 {
    (q[0] * c[0] + q[1] * c[1]) + (q[2] * c[2] + q[3] * c[3])
}

/// Writes `point` as column `c` of one subspace's column-wise block.
fn set_column(cb: &mut [f64], k: usize, c: usize, point: &[f64; SUB_DIM]) {
    for (d, &x) in point.iter().enumerate() {
        cb[d * k + c] = x;
    }
}

/// The nearest centroid of one subspace block (`SUB_DIM` rows of `k`) to
/// `p` and its squared distance; ties break on the lowest index. The
/// distances fill `dists` in one pass over contiguous rows (vectorizable),
/// then a scalar pass picks the minimum.
fn nearest(p: &[f64; SUB_DIM], cb: &[f64], dists: &mut [f64]) -> (usize, f64) {
    let k = dists.len();
    let (c0, rest) = cb.split_at(k);
    let (c1, rest) = rest.split_at(k);
    let (c2, c3) = rest.split_at(k);
    for ((((out, &a), &b), &c), &d) in dists.iter_mut().zip(c0).zip(c1).zip(c2).zip(&c3[..k]) {
        let (x0, x1, x2, x3) = (p[0] - a, p[1] - b, p[2] - c, p[3] - d);
        *out = (x0 * x0 + x1 * x1) + (x2 * x2 + x3 * x3);
    }
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (c, &dist) in dists.iter().enumerate() {
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    (best, best_d)
}

/// Every row's reconstruction error `‖d̄_i − recon_i‖` over the rows of
/// `dirs` under `codes`, and their maximum `eps` — the one formula behind
/// both encoding and loading, so a persisted bucket's bounds round-trip
/// bit-identically. `eps` is the root of the largest squared error, and
/// `sqrt` is monotone, so every row's error is `≤ eps` bit for bit.
fn distortion(codebook: &PqCodebook, codes: &QuantCodes, dirs: &VectorStore) -> (Vec<f64>, f64) {
    let n = dirs.len();
    let mut worst = 0.0f64;
    let mut errs = Vec::with_capacity(n);
    for i in 0..n {
        let dir = dirs.vector(i);
        let mut e = 0.0;
        for s in 0..codebook.m {
            let lo = s * codebook.sub_dim;
            let w = (codebook.dim - lo).min(codebook.sub_dim);
            let c = codebook.centroid(s, codes.get(s * n + i));
            e += kernels::dist_sq(&dir[lo..lo + w], &c[..w]);
        }
        worst = worst.max(e);
        errs.push(e.sqrt());
    }
    (errs, worst.sqrt())
}

/// The quantized representation of one bucket: its probes' packed codes
/// under the engine's shared [`PqCodebook`] plus their reconstruction
/// errors and the bucket's distortion bound `eps` (see the module docs for
/// the exactness contract).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedBucket {
    codebook: Arc<PqCodebook>,
    n: usize,
    codes: QuantCodes,
    eps: f64,
    /// `errs[i] = ‖d̄_i − recon_i‖ ≤ eps`.
    errs: Vec<f64>,
}

impl QuantizedBucket {
    /// Trains a codebook over an evenly strided sample of at most
    /// [`SAMPLE_PER_CENTROID`]`·2^bits` rows of `dirs` and encodes every
    /// row — a standalone quantized bucket (the approximate scorers and
    /// kernel benchmarks use this; engines share one codebook across their
    /// buckets instead). Returns `None` where [`PqCodebook::train`] does.
    pub fn train(dirs: &VectorStore, bits: u8, seed: u64) -> Option<Self> {
        if bits == 0 || bits > MAX_QUANT_BITS {
            return None;
        }
        let sample = dirs.select(&strided(dirs.len(), sample_cap(bits)));
        let codebook = Arc::new(PqCodebook::train(&sample, bits, seed)?);
        Some(codebook.encode(dirs))
    }

    /// Reassembles a bucket's quantized representation from persisted
    /// codes, validating their count, width and range against `codebook`
    /// and the bucket's full-precision directions. The reconstruction errors
    /// and the distortion bound are **recomputed** from `dirs` — never
    /// trusted from the image — so a tampered code can't silently break the
    /// exactness contract.
    pub fn from_codes(
        codebook: Arc<PqCodebook>,
        codes: QuantCodes,
        dirs: &VectorStore,
    ) -> Result<Self, String> {
        let n = dirs.len();
        if dirs.dim() != codebook.dim {
            return Err(format!(
                "quantized codes: dim {} mismatches the codebook's {}",
                dirs.dim(),
                codebook.dim
            ));
        }
        let want = codebook.m.checked_mul(n).ok_or("quantized codes: code count overflows")?;
        if codes.len() != want {
            return Err(format!("quantized codes: {} codes, expected {want}", codes.len()));
        }
        if matches!(codes, QuantCodes::U16(_)) != (codebook.bits > 8) {
            return Err("quantized codes: code width mismatches bits".to_string());
        }
        if let Some(bad) = (0..codes.len()).map(|i| codes.get(i)).find(|&c| c >= codebook.k) {
            return Err(format!("quantized codes: code {bad} ≥ k {}", codebook.k));
        }
        let (errs, eps) = distortion(&codebook, &codes, dirs);
        Ok(Self { codebook, n, codes, eps, errs })
    }

    /// The shared codebook the codes index into.
    pub fn codebook(&self) -> &Arc<PqCodebook> {
        &self.codebook
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.codebook.bits
    }

    /// Centroids per subspace codebook.
    pub fn k(&self) -> usize {
        self.codebook.k
    }

    /// Number of subspaces.
    pub fn subspaces(&self) -> usize {
        self.codebook.m
    }

    /// Coordinates per subspace (the last subspace may cover fewer).
    pub fn sub_dim(&self) -> usize {
        self.codebook.sub_dim
    }

    /// Encoded probe count.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if no probes are encoded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distortion bound `max_i ‖d̄_i − recon_i‖` of this bucket.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Every probe's reconstruction error `‖d̄_i − recon_i‖` (each `≤`
    /// [`eps`](Self::eps)), by local id.
    pub fn errors(&self) -> &[f64] {
        &self.errs
    }

    /// The packed codes — persistence and inspection.
    pub fn codes(&self) -> &QuantCodes {
        &self.codes
    }

    /// Resident bytes of the packed codes and the per-probe errors (the
    /// shared codebook is counted once per engine, see
    /// [`PqCodebook::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.codes.bytes() + self.errs.len() * std::mem::size_of::<f64>()
    }

    /// Builds the query's lookup table from the shared codebook (see
    /// [`PqCodebook::fill_lut`]).
    pub fn fill_lut(&self, dir: &[f64], lut: &mut Vec<f64>) {
        self.codebook.fill_lut(dir, lut);
    }

    /// Approximate cosines of every probe against the query the LUT was
    /// built for — the tight gather-accumulate scan (scalar or AVX2,
    /// bit-identical).
    pub fn scores(&self, lut: &[f64], out: &mut Vec<f64>) {
        let (n, m, k) = (self.n, self.codebook.m, self.codebook.k);
        out.clear();
        out.resize(n, 0.0);
        match &self.codes {
            QuantCodes::U8(codes) => kernels::lut_scan_u8(codes, lut, n, m, k, out),
            QuantCodes::U16(codes) => kernels::lut_scan_u16(codes, lut, n, m, k, out),
        }
    }
}

/// The current query's lookup table, built at the first QUANT bucket the
/// query reaches and reused for every later one (all of an engine's
/// buckets share one codebook). The drivers [`invalidate`](Self::invalidate)
/// it whenever they move to another query (or another engine's codebook);
/// that call is the only thing that makes [`get`](Self::get) rebuild, so
/// it is part of the contract, not an optimization. Debug builds check
/// the reused table's first entry against the requested query and
/// codebook.
#[derive(Debug, Clone, Default)]
pub struct QueryLut {
    table: Vec<f64>,
    /// Whether `table` holds the current query's table.
    built: bool,
    builds: u64,
}

impl QueryLut {
    /// Marks the table stale: the next [`get`](Self::get) rebuilds it.
    pub fn invalidate(&mut self) {
        self.built = false;
    }

    /// The table of `dir` under `codebook`: built now if the table was
    /// invalidated since the last build, otherwise the current one, which
    /// must be for the same query and codebook.
    pub fn get(&mut self, codebook: &PqCodebook, dir: &[f64]) -> &[f64] {
        if !self.built {
            codebook.fill_lut(dir, &mut self.table);
            self.built = true;
            self.builds += 1;
        }
        debug_assert_eq!(
            self.table[0].to_bits(),
            four_dot(&padded(dir, 0, codebook.sub_dim), &codebook.centroid(0, 0)).to_bits(),
            "stale query LUT: a driver skipped invalidate()"
        );
        &self.table
    }

    /// Tables built so far (monotone; drivers report per-run deltas as
    /// [`crate::RunStats::lut_builds`]).
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// The QUANT bucket scan over the query's prebuilt `lut`: score every
/// probe by table lookups, and emit as *unverified* candidates exactly the
/// probes whose error-lifted score can still clear the per-probe
/// threshold (`len_i·(approx_i + err_i) ≥ θ/‖q‖`, with LENGTH's downward
/// boundary slack). The shared verification step re-checks every
/// candidate against the full-precision vectors, so answers stay exact.
pub(crate) fn run(
    ctx: &QueryCtx<'_>,
    bucket: &Bucket,
    quant: &QuantizedBucket,
    lut: &[f64],
    scores: &mut Vec<f64>,
    sink: &mut Sink,
) {
    quant.scores(lut, scores);
    let cut = ctx.theta_over_len - 1e-12 * ctx.theta_over_len.abs();
    // `approx + err ≥ cos` and `approx ≤ ‖recon‖ ≤ 1 + err ≤ 1 + eps`, so
    // once `len·(1 + 2eps) < cut` no shorter probe can qualify either.
    let lift = 1.0 + 2.0 * quant.eps();
    let errs = quant.errors();
    for (lid, &len) in bucket.lengths.iter().enumerate() {
        if len * lift < cut {
            break;
        }
        if len * (scores[lid] + errs[lid]) >= cut {
            sink.unverified.push(lid as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_data::synthetic::GeneratorConfig;

    fn dirs(n: usize, dim: usize, seed: u64) -> VectorStore {
        let store = GeneratorConfig::gaussian(n, dim, 0.8).generate(seed);
        let (_, dirs) = store.decompose();
        dirs
    }

    /// Reconstruction error of row `i` of `d` under `q`, recomputed from
    /// the padded centroids.
    fn recon_error(q: &QuantizedBucket, d: &VectorStore, i: usize) -> f64 {
        let cb = q.codebook();
        let mut e = 0.0;
        for s in 0..q.subspaces() {
            let lo = s * q.sub_dim();
            let w = (d.dim() - lo).min(q.sub_dim());
            let c = cb.centroid(s, q.codes().get(s * q.len() + i));
            e += kernels::dist_sq(&d.vector(i)[lo..lo + w], &c[..w]);
        }
        e.sqrt()
    }

    #[test]
    fn training_is_deterministic() {
        let d = dirs(120, 10, 3);
        let a = QuantizedBucket::train(&d, 6, 7).unwrap();
        let b = QuantizedBucket::train(&d, 6, 7).unwrap();
        assert_eq!(a, b);
        // A different seed may rotate the init but still encodes every row.
        let c = QuantizedBucket::train(&d, 6, 8).unwrap();
        assert_eq!(c.len(), 120);
    }

    #[test]
    fn eps_bounds_every_reconstruction_error() {
        let d = dirs(150, 12, 5);
        let q = QuantizedBucket::train(&d, 8, 1).unwrap();
        for i in 0..d.len() {
            let e = recon_error(&q, &d, i);
            assert!(e <= q.eps() + 1e-12, "probe {i}: {e} > {}", q.eps());
        }
    }

    #[test]
    fn one_codebook_encodes_many_buckets_with_their_own_bounds() {
        // Train on one sample, encode two disjoint row sets: each bucket's
        // eps bounds its own rows, and a coarse codebook gives eps > 0.
        let d = dirs(300, 9, 13);
        let sample = d.select(&strided(d.len(), 64));
        let cb = Arc::new(PqCodebook::train(&sample, 2, 5).unwrap());
        assert_eq!(cb.k(), 4);
        let head = d.select(&(0..150).collect::<Vec<_>>());
        let tail = d.select(&(150..300).collect::<Vec<_>>());
        for part in [&head, &tail] {
            let q = cb.encode(part);
            assert!(Arc::ptr_eq(q.codebook(), &cb), "buckets share the engine codebook");
            assert!(q.eps() > 0.05, "a 2-bit codebook must leave real distortion");
            for i in 0..part.len() {
                assert!(recon_error(&q, part, i) <= q.eps() + 1e-12, "row {i}");
            }
        }
    }

    #[test]
    fn strided_sample_is_even_and_capped() {
        assert_eq!(strided(5, 10), vec![0, 1, 2, 3, 4]);
        assert_eq!(strided(10, 4), vec![0, 2, 5, 7]);
        assert!(strided(0, 4).is_empty());
        assert_eq!(sample_cap(8), 8 * 256);
        assert_eq!(sample_cap(16), 8 << 16);
    }

    #[test]
    fn lut_entries_match_the_reference_four_dot_bitwise() {
        // dim 50 → 13 subspaces, the last of width 2 (zero-padded).
        for (dim, bits) in [(50, 8), (50, 3), (7, 4), (3, 2)] {
            let d = dirs(400, dim, 17 + dim as u64);
            let q = QuantizedBucket::train(&d, bits, 2).unwrap();
            let cb = q.codebook();
            let query = d.vector(5).to_vec();
            let mut lut = Vec::new();
            cb.fill_lut(&query, &mut lut);
            assert_eq!(lut.len(), cb.subspaces() * cb.k());
            for s in 0..cb.subspaces() {
                let qs = padded(&query, s * cb.sub_dim(), cb.sub_dim());
                for c in 0..cb.k() {
                    let reference = four_dot(&qs, &cb.centroid(s, c));
                    assert_eq!(
                        lut[s * cb.k() + c].to_bits(),
                        reference.to_bits(),
                        "dim {dim}, subspace {s}, centroid {c}"
                    );
                }
            }
            // The padded tail really is zero on the centroid side.
            let last = cb.subspaces() - 1;
            let w = dim - last * cb.sub_dim();
            for c in 0..cb.k() {
                assert!(cb.centroid(last, c)[w.min(SUB_DIM)..].iter().all(|&x| x == 0.0));
            }
        }
    }

    #[test]
    fn lut_scores_match_reconstructed_dots() {
        let d = dirs(90, 9, 11);
        let q = QuantizedBucket::train(&d, 5, 2).unwrap();
        let query = d.vector(0).to_vec();
        let mut lut = Vec::new();
        let mut scores = Vec::new();
        q.fill_lut(&query, &mut lut);
        q.scores(&lut, &mut scores);
        for (i, &score) in scores.iter().enumerate() {
            // Reconstruct probe i and dot it with the query directly.
            let mut expect = 0.0;
            for s in 0..q.subspaces() {
                let lo = s * q.sub_dim();
                let w = (d.dim() - lo).min(q.sub_dim());
                let c = q.codebook().centroid(s, q.codes().get(s * q.len() + i));
                expect += kernels::dot(&query[lo..lo + w], &c[..w]);
            }
            assert!((score - expect).abs() < 1e-9, "probe {i}");
        }
        // And approximation error per probe is within eps (unit query).
        for (i, &score) in scores.iter().enumerate() {
            let truth = kernels::dot(&query, d.vector(i));
            assert!((truth - score).abs() <= q.eps() + 1e-9, "probe {i}");
        }
    }

    #[test]
    fn per_probe_errors_stay_within_eps_and_bound_each_probe() {
        for (dim, bits) in [(9, 2), (50, 8), (10, 3)] {
            let d = dirs(200, dim, 29 + dim as u64);
            let q = QuantizedBucket::train(&d, bits, 3).unwrap();
            assert_eq!(q.errors().len(), d.len());
            let query = d.vector(7).to_vec();
            let mut lut = Vec::new();
            let mut scores = Vec::new();
            q.fill_lut(&query, &mut lut);
            q.scores(&lut, &mut scores);
            for (i, &err) in q.errors().iter().enumerate() {
                assert!(err <= q.eps(), "probe {i}: {err} > eps {}", q.eps());
                assert_eq!(err.to_bits(), recon_error(&q, &d, i).to_bits(), "probe {i}");
                let truth = kernels::dot(&query, d.vector(i));
                assert!(
                    (truth - scores[i]).abs() <= err + 1e-9,
                    "probe {i}: |truth − approx| > err"
                );
            }
            // The largest error is the bucket bound itself.
            let worst = q.errors().iter().copied().fold(0.0f64, f64::max);
            assert_eq!(worst.to_bits(), q.eps().to_bits());
        }
    }

    #[test]
    fn query_lut_builds_once_per_invalidation() {
        let d = dirs(64, 6, 23);
        let a = QuantizedBucket::train(&d, 4, 1).unwrap();
        let b = QuantizedBucket::train(&d, 4, 2).unwrap();
        let mut lut = QueryLut::default();
        let (q0, q1) = (d.vector(0), d.vector(1));
        let first = lut.get(a.codebook(), q0).to_vec();
        assert_eq!(lut.get(a.codebook(), q0), &first[..]);
        assert_eq!(lut.builds(), 1, "same query, same codebook: reused");
        lut.invalidate();
        let next = lut.get(a.codebook(), q1).to_vec();
        assert_eq!(lut.builds(), 2, "another query rebuilds after invalidation");
        assert_eq!(next.len(), first.len());
        lut.invalidate();
        lut.get(b.codebook(), q1);
        assert_eq!(lut.builds(), 3, "another codebook rebuilds after invalidation");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale query LUT")]
    fn query_lut_without_invalidation_is_caught_in_debug_builds() {
        let d = dirs(64, 6, 23);
        let a = QuantizedBucket::train(&d, 4, 1).unwrap();
        let mut lut = QueryLut::default();
        lut.get(a.codebook(), d.vector(0));
        lut.get(a.codebook(), d.vector(1));
    }

    #[test]
    fn more_bits_reduce_distortion() {
        let d = dirs(256, 16, 21);
        let lo = QuantizedBucket::train(&d, 2, 1).unwrap();
        let hi = QuantizedBucket::train(&d, 8, 1).unwrap();
        assert!(hi.eps() <= lo.eps(), "8-bit eps {} vs 2-bit {}", hi.eps(), lo.eps());
    }

    #[test]
    fn wide_codes_use_u16_storage() {
        let d = dirs(700, 8, 31);
        let q = QuantizedBucket::train(&d, 9, 1).unwrap();
        assert!(matches!(q.codes(), QuantCodes::U16(_)));
        assert!(q.k() <= 512);
        let q8 = QuantizedBucket::train(&d, 8, 1).unwrap();
        assert!(matches!(q8.codes(), QuantCodes::U8(_)));
        assert!(q8.k() <= 256);
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        let empty = VectorStore::empty(4).unwrap();
        assert!(QuantizedBucket::train(&empty, 8, 1).is_none());
        let d = dirs(10, 4, 1);
        assert!(QuantizedBucket::train(&d, 0, 1).is_none());
        assert!(QuantizedBucket::train(&d, 17, 1).is_none());
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let d = dirs(80, 10, 41);
        let q = QuantizedBucket::train(&d, 4, 3).unwrap();
        let cb = q.codebook();
        let rebuilt = PqCodebook::from_parts(
            cb.bits(),
            cb.sub_dim(),
            cb.k(),
            cb.dim(),
            cb.centroids().to_vec(),
        )
        .unwrap();
        let re = QuantizedBucket::from_codes(Arc::new(rebuilt), q.codes().clone(), &d).unwrap();
        assert_eq!(q, re);
        assert_eq!(q.eps().to_bits(), re.eps().to_bits(), "eps recomputes bit-identically");
        // Hostile codes: out of range.
        let mut bad = match q.codes().clone() {
            QuantCodes::U8(v) => v,
            QuantCodes::U16(_) => unreachable!(),
        };
        bad[0] = u8::MAX;
        let err = QuantizedBucket::from_codes(cb.clone(), QuantCodes::U8(bad), &d).unwrap_err();
        assert!(err.contains("≥ k"), "{err}");
        // Hostile codebooks: truncated, non-finite, dirty padding, k too big.
        let parts = |centroids: Vec<f64>, k: usize| {
            PqCodebook::from_parts(cb.bits(), cb.sub_dim(), k, cb.dim(), centroids)
        };
        let full = cb.centroids().to_vec();
        let err = parts(full[..full.len() - 1].to_vec(), cb.k()).unwrap_err();
        assert!(err.contains("centroid values"), "{err}");
        let mut nan = full.clone();
        nan[0] = f64::NAN;
        assert!(parts(nan, cb.k()).unwrap_err().contains("non-finite"));
        let mut dirty = full.clone();
        *dirty.last_mut().unwrap() = 0.5; // dim 10: the last subspace has width 2
        assert!(parts(dirty, cb.k()).unwrap_err().contains("padding"));
        assert!(parts(full, 17).unwrap_err().contains("invalid"), "k above 2^bits");
    }

    #[test]
    fn resident_bytes_shrink_the_representation() {
        let d = dirs(2000, 16, 51);
        let q = QuantizedBucket::train(&d, 8, 1).unwrap();
        let full = 2000 * 16 * 8; // f64 directions alone
        let quant = q.resident_bytes() + q.codebook().resident_bytes();
        assert!(quant * 4 < full, "quantized {quant} vs full {full}");
    }
}
