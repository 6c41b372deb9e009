//! Explicit SIMD kernels (x86-64 AVX2) with **bit-identical** results.
//!
//! The scalar kernels in [`crate::kernels`] use four independent
//! accumulators so that lane `i` sums exactly the elements `4k + i` in
//! increasing `k`, and the final reduction is `(s0 + s1) + (s2 + s3) + tail`.
//! The AVX2 kernels here perform *the same operations in the same order*:
//! one 4-lane vector accumulator where lane `i` plays the role of `s_i`,
//! multiplies and adds kept separate (no FMA — fusing would skip the
//! intermediate rounding and change results), and the identical horizontal
//! reduction at the end. Per-lane AVX2 arithmetic is ordinary IEEE-754
//! double arithmetic, so the SIMD results are equal **bit for bit** to the
//! scalar ones — verified exhaustively and property-tested in this module.
//!
//! The multi-dot kernels behind [`crate::kernels::dot4`] and
//! [`crate::kernels::dot_4q`] keep four such accumulators per step, one per
//! operand pair (eight in `dot_4q`, which takes two probes per step), and
//! reduce each group of four together: a horizontal add of two
//! accumulators gives each pair's `s0 + s1` and `s2 + s3`, and a 128-bit
//! lane shuffle lines those up so one vector add forms
//! `(s0 + s1) + (s2 + s3)` for all four pairs. The tails run as one vector
//! whose lane `i` is pair `i`'s tail, started at `+0.0` like the scalar
//! one. Every lane therefore performs exactly the operations of one scalar
//! `dot`, in the same order, and equals it bit for bit. Both kernels loop
//! inside the AVX2 function, so the call, the dispatch and the operand
//! set-up are paid once per batch rather than once per four products.
//!
//! Bit-identity matters in this workspace: exact LEMP variants are tested
//! to return byte-identical results to the Naive baseline, and the dynamic
//! maintenance engine looks vectors up by the bit pattern of their stored
//! lengths. Because the dispatched kernels never change any produced value,
//! enabling SIMD is purely a throughput decision.
//!
//! This is the only module in the workspace containing `unsafe` code; every
//! block is a call to `#[target_feature(enable = "avx2")]` functions guarded
//! by a cached runtime CPUID check ([`active`]).

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction sets the dispatcher can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable unrolled slice code (works everywhere).
    Scalar,
    /// 256-bit AVX2 double-precision kernels (x86-64 only).
    Avx2,
}

const ISA_UNKNOWN: u8 = 0;
const ISA_SCALAR: u8 = 1;
const ISA_AVX2: u8 = 2;

static ACTIVE: AtomicU8 = AtomicU8::new(ISA_UNKNOWN);

/// Returns the instruction set the kernels currently dispatch to.
///
/// Detection runs once (CPUID via `is_x86_feature_detected!`) and is cached
/// in a relaxed atomic; subsequent calls are a load and a compare. The
/// environment variable `LEMP_FORCE_ISA` (`scalar` or `avx2`) overrides
/// autodetection — this is how CI exercises the scalar fallbacks on
/// AVX2-capable runners, where compiling for a baseline target CPU alone
/// would change nothing (dispatch happens at run time, not compile time).
#[inline]
pub fn active() -> Isa {
    match ACTIVE.load(Ordering::Relaxed) {
        ISA_SCALAR => Isa::Scalar,
        ISA_AVX2 => Isa::Avx2,
        _ => detect(),
    }
}

#[cold]
fn detect() -> Isa {
    let isa = match std::env::var("LEMP_FORCE_ISA").as_deref() {
        Ok("scalar") => Isa::Scalar,
        Ok("avx2") => {
            assert!(avx2_supported(), "LEMP_FORCE_ISA=avx2 but the CPU lacks avx2");
            Isa::Avx2
        }
        _ => {
            if avx2_supported() {
                Isa::Avx2
            } else {
                Isa::Scalar
            }
        }
    };
    ACTIVE.store(isa_code(isa), Ordering::Relaxed);
    isa
}

fn isa_code(isa: Isa) -> u8 {
    match isa {
        Isa::Scalar => ISA_SCALAR,
        Isa::Avx2 => ISA_AVX2,
    }
}

/// Whether this CPU can run the AVX2 kernels.
#[inline]
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Forces the dispatcher to `isa` and returns the previously active set.
///
/// Intended for benchmarks (measuring the scalar/SIMD gap on the same
/// machine) and for tests that must exercise both paths. Requesting
/// [`Isa::Avx2`] on a CPU without AVX2 is a caller bug and panics.
pub fn override_isa(isa: Isa) -> Isa {
    if isa == Isa::Avx2 {
        assert!(avx2_supported(), "cannot force AVX2 kernels: CPU lacks avx2");
    }
    let prev = active();
    ACTIVE.store(isa_code(isa), Ordering::Relaxed);
    prev
}

/// Vectors shorter than this stay on the scalar path: the call into the
/// `target_feature` function (which cannot be inlined into generic callers)
/// costs more than it saves below roughly two SIMD chunks.
const MIN_SIMD_LEN: usize = 8;

/// Dispatched inner product; see [`crate::kernels::dot`] for the contract.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: `active()` only returns `Avx2` after `is_x86_feature_detected!`
        // confirmed the CPU supports it (or after `override_isa` asserted so).
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Dispatched gathered multi-dot; see [`crate::kernels::dot4`] for the
/// contract. The caller has checked every row index and `out`'s length.
#[inline]
pub(crate) fn dot4(q: &[f64], rows: &[f64], lids: &[u32], out: &mut [f64]) {
    debug_assert!(out.len() >= lids.len());
    #[cfg(target_arch = "x86_64")]
    if q.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`; every `lids[j]` names a full row of `rows`.
        return unsafe { avx2::dot4(q, rows, lids, out) };
    }
    dot4_scalar(q, rows, lids, out)
}

/// Dispatched four-query multi-dot over consecutive rows; see
/// [`crate::kernels::dot_4q`]. The caller has checked the shapes.
#[inline]
pub(crate) fn dot_4q(qs: [&[f64]; 4], rows: &[f64], out: &mut [[f64; 4]]) {
    debug_assert!(qs.iter().all(|q| q.len() == qs[0].len()));
    debug_assert_eq!(rows.len(), out.len() * qs[0].len());
    #[cfg(target_arch = "x86_64")]
    if qs[0].len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`; `rows` holds `out.len()` rows of `qs[0].len()`.
        return unsafe { avx2::dot_4q(&qs, rows, out) };
    }
    dot_4q_scalar(qs, rows, out)
}

/// Dispatched squared distance; see [`crate::kernels::dist_sq`].
#[inline]
pub(crate) fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`.
        return unsafe { avx2::dist_sq(a, b) };
    }
    dist_sq_scalar(a, b)
}

/// Dispatched `a += s·b`; see [`crate::kernels::axpy`].
#[inline]
pub(crate) fn axpy(s: f64, b: &[f64], a: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if a.len() >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`.
        unsafe { avx2::axpy(s, b, a) };
        return;
    }
    axpy_scalar(s, b, a);
}

/// Dispatched LUT gather-accumulate scan over `u8` codes; see
/// [`crate::kernels::lut_scan_u8`] for the contract.
#[inline]
pub(crate) fn lut_scan_u8(
    codes: &[u8],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    debug_assert!(k >= 1 && codes.len() == m * n && lut.len() == m * k && out.len() >= n);
    #[cfg(target_arch = "x86_64")]
    if n >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `dot`; slice shapes are checked by the public
        // wrapper, and every table index is clamped to `k - 1` before the
        // gather, so no lane can read outside `lut`.
        return unsafe { avx2::lut_scan_u8(codes, lut, n, m, k, out) };
    }
    lut_scan_u8_scalar(codes, lut, n, m, k, out)
}

/// Dispatched LUT gather-accumulate scan over `u16` codes; see
/// [`crate::kernels::lut_scan_u16`] for the contract.
#[inline]
pub(crate) fn lut_scan_u16(
    codes: &[u16],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    debug_assert!(k >= 1 && codes.len() == m * n && lut.len() == m * k && out.len() >= n);
    #[cfg(target_arch = "x86_64")]
    if n >= MIN_SIMD_LEN && active() == Isa::Avx2 {
        // SAFETY: as in `lut_scan_u8`.
        return unsafe { avx2::lut_scan_u16(codes, lut, n, m, k, out) };
    }
    lut_scan_u16_scalar(codes, lut, n, m, k, out)
}

/// Portable reference LUT scan over `u8` codes: probe `i`'s score is the
/// sum over subspaces `s` of `lut[s·k + codes[s·n + i]]`, accumulated in
/// increasing `s` with a single chain per probe (the AVX2 kernel keeps one
/// probe per lane, so its per-probe rounding sequence is identical).
/// Indices are clamped to `k − 1` — hostile codes degrade scores, never
/// memory safety.
#[inline]
pub(crate) fn lut_scan_u8_scalar(
    codes: &[u8],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    for i in 0..n {
        let mut acc = 0.0;
        for s in 0..m {
            acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
        }
        out[i] = acc;
    }
}

/// Portable reference LUT scan over `u16` codes (same scheme as the `u8`
/// variant).
#[inline]
pub(crate) fn lut_scan_u16_scalar(
    codes: &[u16],
    lut: &[f64],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f64],
) {
    for i in 0..n {
        let mut acc = 0.0;
        for s in 0..m {
            acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
        }
        out[i] = acc;
    }
}

/// Portable reference inner product (four independent accumulators).
#[inline]
pub(crate) fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..n {
        tail += a[j] * b[j];
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Row `l` of a row-major matrix with rows of `dim` values.
#[inline]
fn row(rows: &[f64], dim: usize, l: usize) -> &[f64] {
    &rows[l * dim..(l + 1) * dim]
}

/// Portable reference gathered multi-dot: one [`dot_scalar`] per row.
#[inline]
pub(crate) fn dot4_scalar(q: &[f64], rows: &[f64], lids: &[u32], out: &mut [f64]) {
    for (o, &l) in out.iter_mut().zip(lids) {
        *o = dot_scalar(q, row(rows, q.len(), l as usize));
    }
}

/// Portable reference four-query multi-dot: one [`dot_scalar`] per query
/// and row. `p·q` and `q·p` round identically (IEEE multiplication
/// commutes), so the operand order does not matter.
#[inline]
pub(crate) fn dot_4q_scalar(qs: [&[f64]; 4], rows: &[f64], out: &mut [[f64; 4]]) {
    let dim = qs[0].len();
    for (l, o) in out.iter_mut().enumerate() {
        let p = row(rows, dim, l);
        *o = qs.map(|q| dot_scalar(q, p));
    }
}

/// Portable reference squared distance (same accumulator scheme as `dot`).
#[inline]
pub(crate) fn dist_sq_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..chunks {
        let j = i * 4;
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
    }
    let mut tail = 0.0;
    for j in chunks * 4..n {
        let d = a[j] - b[j];
        tail += d * d;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// Portable reference `a += s·b` (elementwise; order-independent).
#[inline]
pub(crate) fn axpy_scalar(s: f64, b: &[f64], a: &mut [f64]) {
    let n = a.len().min(b.len());
    for j in 0..n {
        a[j] += s * b[j];
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m128i, __m256d, _mm256_add_pd, _mm256_hadd_pd, _mm256_i32gather_pd, _mm256_loadu_pd,
        _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd, _mm_cvtepu16_epi32, _mm_cvtepu8_epi32, _mm_cvtsi32_si128,
        _mm_cvtsi64_si128, _mm_min_epi32, _mm_set1_epi32,
    };

    /// Reduces the 4-lane accumulator exactly like the scalar kernels:
    /// `(s0 + s1) + (s2 + s3)`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn reduce(acc: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    /// AVX2 inner product, bit-identical to [`super::dot_scalar`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            // Unaligned loads: callers pass arbitrary sub-slices. Separate
            // mul + add (no FMA) keeps the per-lane rounding sequence equal
            // to the scalar kernel's.
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
        }
        let mut tail = 0.0;
        for j in chunks * 4..n {
            tail += a[j] * b[j];
        }
        reduce(acc) + tail
    }

    /// Reduces four accumulators (pair `i` in `acc[i]`, lane `j` playing
    /// the scalar kernel's `s_j`) plus the per-pair `tail` vector to the
    /// four results: two horizontal adds give every pair's `s0 + s1` and
    /// `s2 + s3`, and the 128-bit shuffles gather them so one add forms
    /// `(s0 + s1) + (s2 + s3)` for all four pairs.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn reduce4(acc: [__m256d; 4], tail: __m256d) -> __m256d {
        // hadd(x, y) = [x0+x1, y0+y1, x2+x3, y2+y3].
        let h01 = _mm256_hadd_pd(acc[0], acc[1]);
        let h23 = _mm256_hadd_pd(acc[2], acc[3]);
        let lo = _mm256_permute2f128_pd::<0x20>(h01, h23);
        let hi = _mm256_permute2f128_pd::<0x31>(h01, h23);
        _mm256_add_pd(_mm256_add_pd(lo, hi), tail)
    }

    /// Lane `i` is `dot(a, b[i])` over `n` elements, bit-identical to
    /// [`super::dot_scalar`]: each chunk of `a` is loaded once for four
    /// independent add chains, and the tails run as one vector (lane `i`
    /// is pair `i`'s `tail`, starting from `+0.0` like the scalar one).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that `a` and every
    /// `b[i]` point at `n` readable values.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dot_one_four(a: *const f64, b: [*const f64; 4], n: usize) -> __m256d {
        let chunks = n / 4;
        let mut acc = [_mm256_setzero_pd(); 4];
        for c in 0..chunks {
            let j = c * 4;
            let av = _mm256_loadu_pd(a.add(j));
            for (acc, b) in acc.iter_mut().zip(b) {
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(av, _mm256_loadu_pd(b.add(j))));
            }
        }
        let mut tail = _mm256_setzero_pd();
        for j in chunks * 4..n {
            let bv = _mm256_set_pd(*b[3].add(j), *b[2].add(j), *b[1].add(j), *b[0].add(j));
            tail = _mm256_add_pd(tail, _mm256_mul_pd(_mm256_set1_pd(*a.add(j)), bv));
        }
        reduce4(acc, tail)
    }

    /// AVX2 gathered multi-dot, bit-identical to [`super::dot4_scalar`]:
    /// four rows per step through [`dot_one_four`]; a last group of one to
    /// three rows repeats its first row in the spare lanes, which are not
    /// stored.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, that every `lids[j]` names
    /// a full row of `rows` (rows of `q.len()` values) and that
    /// `out.len() >= lids.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot4(q: &[f64], rows: &[f64], lids: &[u32], out: &mut [f64]) {
        let dim = q.len();
        let row = |l: u32| rows.as_ptr().add(l as usize * dim);
        let mut groups = lids.chunks_exact(4);
        let mut o = out.as_mut_ptr();
        for g in &mut groups {
            let v = dot_one_four(q.as_ptr(), [row(g[0]), row(g[1]), row(g[2]), row(g[3])], dim);
            _mm256_storeu_pd(o, v);
            o = o.add(4);
        }
        let rest = groups.remainder();
        if let Some(&first) = rest.first() {
            let lane = |i: usize| row(rest.get(i).copied().unwrap_or(first));
            let v = dot_one_four(q.as_ptr(), [lane(0), lane(1), lane(2), lane(3)], dim);
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), v);
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), o, rest.len());
        }
    }

    /// AVX2 four-query multi-dot over consecutive rows, bit-identical to
    /// [`super::dot_4q_scalar`]. Two rows per step: eight accumulators
    /// (query `i` × row `r`) share each loaded query chunk, so a step loads
    /// six chunks for eight products instead of five for four. An odd last
    /// row goes through [`dot_one_four`] with the row as the shared
    /// operand.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, that every `qs[i]` has
    /// `qs[0].len()` values and that `rows` holds `out.len()` rows of that
    /// many values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_4q(qs: &[&[f64]; 4], rows: &[f64], out: &mut [[f64; 4]]) {
        let dim = qs[0].len();
        let q = qs.map(<[f64]>::as_ptr);
        let chunks = dim / 4;
        let n = out.len();
        let mut l = 0;
        while l + 2 <= n {
            let p0 = rows.as_ptr().add(l * dim);
            let p1 = p0.add(dim);
            let mut acc0 = [_mm256_setzero_pd(); 4];
            let mut acc1 = [_mm256_setzero_pd(); 4];
            for c in 0..chunks {
                let j = c * 4;
                let v0 = _mm256_loadu_pd(p0.add(j));
                let v1 = _mm256_loadu_pd(p1.add(j));
                for i in 0..4 {
                    let qv = _mm256_loadu_pd(q[i].add(j));
                    acc0[i] = _mm256_add_pd(acc0[i], _mm256_mul_pd(v0, qv));
                    acc1[i] = _mm256_add_pd(acc1[i], _mm256_mul_pd(v1, qv));
                }
            }
            let mut tail0 = _mm256_setzero_pd();
            let mut tail1 = _mm256_setzero_pd();
            for j in chunks * 4..dim {
                let qv = _mm256_set_pd(*q[3].add(j), *q[2].add(j), *q[1].add(j), *q[0].add(j));
                tail0 = _mm256_add_pd(tail0, _mm256_mul_pd(_mm256_set1_pd(*p0.add(j)), qv));
                tail1 = _mm256_add_pd(tail1, _mm256_mul_pd(_mm256_set1_pd(*p1.add(j)), qv));
            }
            _mm256_storeu_pd(out[l].as_mut_ptr(), reduce4(acc0, tail0));
            _mm256_storeu_pd(out[l + 1].as_mut_ptr(), reduce4(acc1, tail1));
            l += 2;
        }
        if l < n {
            let v = dot_one_four(rows.as_ptr().add(l * dim), q, dim);
            _mm256_storeu_pd(out[l].as_mut_ptr(), v);
        }
    }

    /// AVX2 squared distance, bit-identical to [`super::dist_sq_scalar`].
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for i in 0..chunks {
            let j = i * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            let d = _mm256_sub_pd(av, bv);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        let mut tail = 0.0;
        for j in chunks * 4..n {
            let d = a[j] - b[j];
            tail += d * d;
        }
        reduce(acc) + tail
    }

    /// Loads four consecutive `u8` codes as clamped 32-bit gather indices
    /// (one 32-bit load + byte unpack, instead of four scalar loads).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that `ptr` points at
    /// four readable bytes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn idx4_u8(ptr: *const u8, clamp: __m128i) -> __m128i {
        let packed = _mm_cvtsi32_si128(ptr.cast::<i32>().read_unaligned());
        _mm_min_epi32(_mm_cvtepu8_epi32(packed), clamp)
    }

    /// Loads four consecutive `u16` codes as clamped 32-bit gather indices.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and that `ptr` points at
    /// four readable `u16`s.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn idx4_u16(ptr: *const u16, clamp: __m128i) -> __m128i {
        let packed = _mm_cvtsi64_si128(ptr.cast::<i64>().read_unaligned());
        _mm_min_epi32(_mm_cvtepu16_epi32(packed), clamp)
    }

    /// AVX2 LUT scan over `u8` codes, bit-identical to
    /// [`super::lut_scan_u8_scalar`]: sixteen probes per iteration, one
    /// probe per lane across four *independent* accumulator vectors, each
    /// lane accumulating `lut[s·k + code]` in increasing subspace order —
    /// the same single-chain rounding sequence per probe as the scalar
    /// kernel (independent chains never mix, so parallelism changes no
    /// value). Four chains in flight hide the multi-cycle gather latency
    /// that a single chain would serialize on. Indices are clamped to
    /// `k − 1` before the gather so the read stays inside `lut` for any
    /// code value.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2, `codes.len() == m·n`,
    /// `lut.len() == m·k`, `out.len() >= n` and `k >= 1`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_scan_u8(
        codes: &[u8],
        lut: &[f64],
        n: usize,
        m: usize,
        k: usize,
        out: &mut [f64],
    ) {
        let clamp = _mm_set1_epi32(k as i32 - 1);
        let mut i = 0;
        while i + 16 <= n {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for s in 0..m {
                let base = codes.as_ptr().add(s * n + i);
                let table = lut.as_ptr().add(s * k);
                a0 = _mm256_add_pd(a0, _mm256_i32gather_pd::<8>(table, idx4_u8(base, clamp)));
                a1 =
                    _mm256_add_pd(a1, _mm256_i32gather_pd::<8>(table, idx4_u8(base.add(4), clamp)));
                a2 =
                    _mm256_add_pd(a2, _mm256_i32gather_pd::<8>(table, idx4_u8(base.add(8), clamp)));
                a3 = _mm256_add_pd(
                    a3,
                    _mm256_i32gather_pd::<8>(table, idx4_u8(base.add(12), clamp)),
                );
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), a0);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), a1);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 8), a2);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 12), a3);
            i += 16;
        }
        while i + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for s in 0..m {
                let idx = idx4_u8(codes.as_ptr().add(s * n + i), clamp);
                acc = _mm256_add_pd(acc, _mm256_i32gather_pd::<8>(lut.as_ptr().add(s * k), idx));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            i += 4;
        }
        for i in i..n {
            let mut acc = 0.0;
            for s in 0..m {
                acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
            }
            out[i] = acc;
        }
    }

    /// AVX2 LUT scan over `u16` codes, bit-identical to
    /// [`super::lut_scan_u16_scalar`] (same scheme as the `u8` variant:
    /// sixteen probes per iteration over four independent chains).
    ///
    /// # Safety
    /// As in [`lut_scan_u8`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lut_scan_u16(
        codes: &[u16],
        lut: &[f64],
        n: usize,
        m: usize,
        k: usize,
        out: &mut [f64],
    ) {
        let clamp = _mm_set1_epi32(k as i32 - 1);
        let mut i = 0;
        while i + 16 <= n {
            let mut a0 = _mm256_setzero_pd();
            let mut a1 = _mm256_setzero_pd();
            let mut a2 = _mm256_setzero_pd();
            let mut a3 = _mm256_setzero_pd();
            for s in 0..m {
                let base = codes.as_ptr().add(s * n + i);
                let table = lut.as_ptr().add(s * k);
                a0 = _mm256_add_pd(a0, _mm256_i32gather_pd::<8>(table, idx4_u16(base, clamp)));
                a1 = _mm256_add_pd(
                    a1,
                    _mm256_i32gather_pd::<8>(table, idx4_u16(base.add(4), clamp)),
                );
                a2 = _mm256_add_pd(
                    a2,
                    _mm256_i32gather_pd::<8>(table, idx4_u16(base.add(8), clamp)),
                );
                a3 = _mm256_add_pd(
                    a3,
                    _mm256_i32gather_pd::<8>(table, idx4_u16(base.add(12), clamp)),
                );
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), a0);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), a1);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 8), a2);
            _mm256_storeu_pd(out.as_mut_ptr().add(i + 12), a3);
            i += 16;
        }
        while i + 4 <= n {
            let mut acc = _mm256_setzero_pd();
            for s in 0..m {
                let idx = idx4_u16(codes.as_ptr().add(s * n + i), clamp);
                acc = _mm256_add_pd(acc, _mm256_i32gather_pd::<8>(lut.as_ptr().add(s * k), idx));
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), acc);
            i += 4;
        }
        for i in i..n {
            let mut acc = 0.0;
            for s in 0..m {
                acc += lut[s * k + (codes[s * n + i] as usize).min(k - 1)];
            }
            out[i] = acc;
        }
    }

    /// AVX2 `a += s·b`, bit-identical to [`super::axpy_scalar`]
    /// (elementwise, so only the mul/add split matters).
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(s: f64, b: &[f64], a: &mut [f64]) {
        let n = a.len().min(b.len());
        let chunks = n / 4;
        let sv = _mm256_set1_pd(s);
        for i in 0..chunks {
            let j = i * 4;
            let av = _mm256_loadu_pd(a.as_ptr().add(j));
            let bv = _mm256_loadu_pd(b.as_ptr().add(j));
            let sum = _mm256_add_pd(av, _mm256_mul_pd(sv, bv));
            _mm256_storeu_pd(a.as_mut_ptr().add(j), sum);
        }
        for j in chunks * 4..n {
            a[j] += s * b[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that observe or override the global ISA state
    /// (every kernel result is ISA-independent, but the state itself isn't).
    static ISA_LOCK: Mutex<()> = Mutex::new(());

    fn isa_guard() -> std::sync::MutexGuard<'static, ()> {
        ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Deterministic pseudo-random doubles in roughly [-2, 2] with varied
    /// exponents (splitmix64 bits mapped to a dense range).
    fn pseudo(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (0..n)
            .map(|_| {
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                (x as f64 / u64::MAX as f64) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn force_isa_env_var_overrides_detection() {
        let _g = isa_guard();
        // Start from whatever state other tests left behind, and reset to
        // "unknown" so detect() runs again, now under the env var.
        let prev = active();
        std::env::set_var("LEMP_FORCE_ISA", "scalar");
        ACTIVE.store(ISA_UNKNOWN, Ordering::Relaxed);
        assert_eq!(active(), Isa::Scalar, "env override must beat autodetection");
        // Unknown values fall back to autodetection.
        std::env::set_var("LEMP_FORCE_ISA", "quantum");
        ACTIVE.store(ISA_UNKNOWN, Ordering::Relaxed);
        let auto = active();
        assert_eq!(auto == Isa::Avx2, avx2_supported());
        std::env::remove_var("LEMP_FORCE_ISA");
        override_isa(prev);
    }

    #[test]
    fn detection_is_cached_and_stable() {
        let _g = isa_guard();
        let first = active();
        let second = active();
        assert_eq!(first, second);
        if std::env::var("LEMP_FORCE_ISA").as_deref() == Ok("scalar") {
            assert_eq!(first, Isa::Scalar);
        } else if cfg!(target_arch = "x86_64") && avx2_supported() {
            assert_eq!(first, Isa::Avx2);
        } else {
            assert_eq!(first, Isa::Scalar);
        }
    }

    #[test]
    fn override_restores() {
        let _g = isa_guard();
        let prev = override_isa(Isa::Scalar);
        assert_eq!(active(), Isa::Scalar);
        override_isa(prev);
        assert_eq!(active(), prev);
    }

    #[test]
    fn avx2_dot_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return; // nothing to compare on this machine
        }
        for n in 0..130 {
            let a = pseudo(2 * n as u64 + 1, n);
            let b = pseudo(2 * n as u64 + 2, n);
            let scalar = dot_scalar(&a, &b);
            // SAFETY: guarded by `avx2_supported` above.
            let simd = unsafe { avx2::dot(&a, &b) };
            assert_eq!(scalar.to_bits(), simd.to_bits(), "n={n}: {scalar} vs {simd}");
        }
    }

    #[test]
    fn avx2_dist_sq_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        for n in 0..130 {
            let a = pseudo(1000 + n as u64, n);
            let b = pseudo(2000 + n as u64, n);
            let scalar = dist_sq_scalar(&a, &b);
            // SAFETY: guarded by `avx2_supported` above.
            let simd = unsafe { avx2::dist_sq(&a, &b) };
            assert_eq!(scalar.to_bits(), simd.to_bits(), "n={n}");
        }
    }

    #[test]
    fn avx2_axpy_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        for n in 0..130 {
            let b = pseudo(3000 + n as u64, n);
            let mut a_scalar = pseudo(4000 + n as u64, n);
            let mut a_simd = a_scalar.clone();
            axpy_scalar(0.37, &b, &mut a_scalar);
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::axpy(0.37, &b, &mut a_simd) };
            for j in 0..n {
                assert_eq!(a_scalar[j].to_bits(), a_simd[j].to_bits(), "n={n} j={j}");
            }
        }
    }

    /// Deterministic pseudo-random code indices in `[0, k)`.
    fn pseudo_codes(seed: u64, n: usize, k: usize) -> Vec<u8> {
        pseudo(seed, n).iter().map(|x| (((x + 2.0) / 4.0) * k as f64) as u8 % k as u8).collect()
    }

    #[test]
    fn avx2_lut_scan_u8_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        let (m, k) = (5, 7);
        let lut = pseudo(99, m * k);
        for n in 0..130 {
            let codes = pseudo_codes(5000 + n as u64, m * n, k);
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            lut_scan_u8_scalar(&codes, &lut, n, m, k, &mut want);
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::lut_scan_u8(&codes, &lut, n, m, k, &mut got) };
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn avx2_lut_scan_u16_is_bit_identical_for_every_tail_length() {
        if !avx2_supported() {
            return;
        }
        let (m, k) = (3, 300); // k > 256 exercises the wide-code range
        let lut = pseudo(77, m * k);
        for n in 0..130 {
            let codes: Vec<u16> = pseudo(6000 + n as u64, m * n)
                .iter()
                .map(|x| (((x + 2.0) / 4.0) * k as f64) as u16 % k as u16)
                .collect();
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            lut_scan_u16_scalar(&codes, &lut, n, m, k, &mut want);
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::lut_scan_u16(&codes, &lut, n, m, k, &mut got) };
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn lut_scan_clamps_hostile_codes_on_both_paths() {
        let (n, m, k) = (9, 2, 3);
        let codes = vec![255u8; m * n]; // far beyond k − 1
        let lut = pseudo(11, m * k);
        let mut want = vec![0.0; n];
        lut_scan_u8_scalar(&codes, &lut, n, m, k, &mut want);
        let expect = lut[k - 1] + lut[k + k - 1];
        for v in &want {
            assert_eq!(v.to_bits(), expect.to_bits());
        }
        if avx2_supported() {
            let mut got = vec![0.0; n];
            // SAFETY: guarded by `avx2_supported` above.
            unsafe { avx2::lut_scan_u8(&codes, &lut, n, m, k, &mut got) };
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "i={i}");
            }
        }
    }

    #[test]
    fn dispatched_lut_scan_matches_scalar_regardless_of_isa() {
        let _g = isa_guard();
        let (n, m, k) = (53, 4, 9);
        let codes = pseudo_codes(21, m * n, k);
        let lut = pseudo(22, m * k);
        let mut want = vec![0.0; n];
        lut_scan_u8_scalar(&codes, &lut, n, m, k, &mut want);
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            let mut got = vec![0.0; n];
            lut_scan_u8(&codes, &lut, n, m, k, &mut got);
            for i in 0..n {
                assert_eq!(want[i].to_bits(), got[i].to_bits(), "{isa:?} i={i}");
            }
            override_isa(prev);
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_regardless_of_isa() {
        let _g = isa_guard();
        let a = pseudo(7, 53);
        let b = pseudo(8, 53);
        let want_dot = dot_scalar(&a, &b);
        let want_dist = dist_sq_scalar(&a, &b);
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            assert_eq!(dot(&a, &b).to_bits(), want_dot.to_bits(), "{isa:?}");
            assert_eq!(dist_sq(&a, &b).to_bits(), want_dist.to_bits(), "{isa:?}");
            override_isa(prev);
        }
    }

    /// Vectors mixing signed zeros, subnormals and magnitudes from 1e-300
    /// to 1e150 (products never overflow), so any deviation from `dot`'s
    /// rounding and reduction order shows in the bits.
    fn hostile(seed: u64, n: usize) -> Vec<f64> {
        let specials = [0.0, -0.0, 5e-324, -2.5e-310, f64::MIN_POSITIVE, 1e-300, -1e150, 1e149];
        pseudo(seed, n)
            .iter()
            .enumerate()
            .map(|(i, &x)| match (i as u64 ^ seed) % 7 {
                0 => {
                    specials[(i + seed as usize) % specials.len()]
                        * if x < 0.0 { -1.0 } else { 1.0 }
                }
                1 => x * 1e-160,
                2 => x * 1e150,
                3 => x * 1e-308,
                _ => x,
            })
            .collect()
    }

    /// Checks `kernels::dot4` and `kernels::dot_4q` value by value against
    /// `kernels::dot` under the active ISA. `qs` are the queries; `probes`
    /// the rows, scored in every group size from one to five (full groups,
    /// padded partial groups, one and two rows per `dot_4q` step).
    fn assert_multi_dot_matches_dot(qs: [&[f64]; 4], probes: &[Vec<f64>], what: &str) {
        use crate::kernels;
        let rows: Vec<f64> = probes.concat();
        for take in 0..=probes.len() {
            let rows = &rows[..take * qs[0].len()];
            let mut block = vec![[f64::NAN; 4]; take];
            kernels::dot_4q(qs, rows, &mut block);
            for (l, values) in block.iter().enumerate() {
                for (i, value) in values.iter().enumerate() {
                    let want = kernels::dot(qs[i], &probes[l]);
                    assert_eq!(want.to_bits(), kernels::dot(&probes[l], qs[i]).to_bits());
                    assert_eq!(value.to_bits(), want.to_bits(), "{what} dot_4q row {l} q {i}");
                }
            }
            // Gather the rows backwards (and row 0 twice) to exercise
            // scattered indexes and repeats.
            let lids: Vec<u32> = (0..take as u32).rev().chain((take > 0).then_some(0)).collect();
            for q in qs {
                let mut out = vec![f64::NAN; lids.len()];
                kernels::dot4(q, &probes.concat(), &lids, &mut out);
                for (&l, value) in lids.iter().zip(&out) {
                    let want = kernels::dot(q, &probes[l as usize]);
                    assert_eq!(value.to_bits(), want.to_bits(), "{what} dot4 row {l}");
                }
            }
        }
    }

    #[test]
    fn multi_dot_is_bit_identical_to_dot_on_every_isa_and_length() {
        let _g = isa_guard();
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            // 0..=67 crosses MIN_SIMD_LEN and every `n mod 4` tail length.
            for n in 0..=67usize {
                for round in 0..3u64 {
                    let seed = 100 * n as u64 + 10 * round;
                    let gen = |s: u64| if round == 0 { pseudo(s, n) } else { hostile(s, n) };
                    let q: Vec<Vec<f64>> = (0..4).map(|k| gen(seed + k)).collect();
                    let probes: Vec<Vec<f64>> = (4..9).map(|k| gen(seed + k)).collect();
                    let qs = [&q[0][..], &q[1][..], &q[2][..], &q[3][..]];
                    assert_multi_dot_matches_dot(qs, &probes, &format!("{isa:?} n={n} r={round}"));
                }
            }
            override_isa(prev);
        }
    }

    #[test]
    fn multi_dot_keeps_signed_zero_and_padding_lanes() {
        let _g = isa_guard();
        for isa in [Isa::Scalar, Isa::Avx2] {
            if isa == Isa::Avx2 && !avx2_supported() {
                continue;
            }
            let prev = override_isa(isa);
            for n in [0usize, 3, 8, 9, 50] {
                // All products −0.0: every value sums to +0.0 through the
                // `+0.0` tail, exactly as `dot` does.
                let neg = vec![-0.0; n];
                let pos = vec![1.0; n];
                let v = pseudo(n as u64, n);
                // Repeated queries (a padded block) must not disturb a lane.
                let probes = [neg.clone(), pos.clone(), v.clone()];
                assert_multi_dot_matches_dot([&pos, &pos, &neg, &v], &probes, &format!("{isa:?}"));
                assert_multi_dot_matches_dot([&neg, &v, &v, &v], &probes, &format!("{isa:?}"));
            }
            override_isa(prev);
        }
    }

    #[test]
    fn avx2_multi_dot_matches_its_scalar_reference() {
        if !avx2_supported() {
            return;
        }
        for n in 0..130 {
            let q: Vec<Vec<f64>> = (0..4).map(|k| hostile(7000 + 10 * n as u64 + k, n)).collect();
            let qs = [&q[0][..], &q[1][..], &q[2][..], &q[3][..]];
            let rows = hostile(8000 + n as u64, 7 * n);
            let (mut want, mut got) = (vec![[0.0; 4]; 7], vec![[0.0; 4]; 7]);
            dot_4q_scalar(qs, &rows, &mut want);
            // SAFETY: guarded by `avx2_supported` above; shapes match.
            unsafe { avx2::dot_4q(&qs, &rows, &mut got) };
            let bits = |v: &[[f64; 4]]| v.concat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&want), bits(&got), "n={n}");
            let lids = [6, 0, 3, 3, 5, 1, 2];
            let (mut want, mut got) = (vec![0.0; 7], vec![0.0; 7]);
            dot4_scalar(qs[0], &rows, &lids, &mut want);
            // SAFETY: as above; every lid names one of the seven rows.
            unsafe { avx2::dot4(qs[0], &rows, &lids, &mut got) };
            for j in 0..7 {
                assert_eq!(want[j].to_bits(), got[j].to_bits(), "n={n} j={j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "row index out of range")]
    fn dot4_rejects_rows_out_of_range() {
        crate::kernels::dot4(&[1.0; 3], &[0.0; 6], &[2], &mut [0.0]);
    }

    #[test]
    fn short_vectors_stay_on_the_scalar_path() {
        // Below MIN_SIMD_LEN the dispatcher must not call into AVX2; this
        // is observable only indirectly, so just pin the correctness.
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(dist_sq(&a, &b), 27.0);
    }

    #[test]
    fn special_values_flow_through_identically() {
        if !avx2_supported() {
            return;
        }
        let a = [f64::INFINITY, -0.0, 1e-308, f64::MAX, 1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [0.5, 7.0, 1e-10, 2.0, -1.0, 0.0, f64::MIN_POSITIVE, -4.0, 9.0];
        // SAFETY: guarded by `avx2_supported` above.
        let simd = unsafe { avx2::dot(&a, &b) };
        assert_eq!(dot_scalar(&a, &b).to_bits(), simd.to_bits());
    }
}
