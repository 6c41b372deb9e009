//! Hot numeric kernels: inner products, norms, normalization.
//!
//! These are the innermost loops of every algorithm in the workspace (the
//! paper estimates ~100 ns per inner product on its hardware; everything else
//! is pruning work to avoid calling these). The portable implementations are
//! straight-line slice code with manually unrolled independent accumulators
//! so that rustc auto-vectorizes them; the reducing kernels (`dot`,
//! `dist_sq`) and `axpy` additionally dispatch at runtime to the explicit
//! AVX2 versions in [`crate::simd`], which produce **bit-identical** results
//! (same per-lane operation order, no FMA) — enabling SIMD never changes a
//! single produced value anywhere in the workspace.
//!
//! **Multi-dot kernels.** [`dot4`] scores one query against a list of
//! scattered rows, four rows per step (LEMP's verification of a candidate
//! list), and [`dot_4q`] scores four queries against a run of consecutive
//! rows, one row load serving all four (LEMP's LENGTH block, where a run of
//! queries shares a bucket prefix). One `dot` call is a single
//! floating-point add chain, so the core mostly waits on add latency; four
//! or eight independent chains per step keep it busy, the shared operand
//! is loaded once for all of them, and the loop runs inside the kernel, so
//! call and dispatch costs are paid once per batch. The contract: every
//! value either kernel produces is **bit-identical** to the corresponding
//! [`dot`] — same per-lane multiply-then-add order, same
//! `(s0 + s1) + (s2 + s3)` reduction, same tail — on the scalar and the
//! AVX2 path alike, so batching candidates changes no produced value.

use crate::simd;

/// Inner product `a · b` of two equally long slices.
///
/// Uses four independent accumulators so the floating-point reduction does
/// not serialize on a single dependency chain (enables SIMD + pipelining);
/// dispatches to the bit-identical AVX2 kernel when available.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths; in release
/// builds the shorter length is used (callers in this workspace always pass
/// equal lengths).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    simd::dot(a, b)
}

/// Inner products of `q` with gathered rows of a row-major matrix:
/// `out[j] = dot(q, row lids[j])`, where `rows` holds rows of `q.len()`
/// values. Each `out[j]` is bit-identical to that [`dot`]. The rows are
/// scored four per step against one load of each chunk of `q` (a last group
/// of one to three is padded with a repeated row); dispatches to a
/// bit-identical AVX2 kernel when available.
///
/// # Panics
/// If `out` is shorter than `lids` or a `lids[j]` names no full row.
#[inline]
pub fn dot4(q: &[f64], rows: &[f64], lids: &[u32], out: &mut [f64]) {
    assert!(out.len() >= lids.len(), "dot4: out must hold one value per row index");
    let max = lids.iter().copied().max().map_or(0, |l| l as usize + 1);
    assert!(max * q.len() <= rows.len(), "dot4: row index out of range");
    simd::dot4(q, rows, lids, out);
}

/// Inner products of four queries with consecutive rows of a row-major
/// matrix: `out[l][i] = dot(qs[i], row l)`, where `rows` holds `out.len()`
/// rows of the queries' length. Each value is bit-identical to that
/// [`dot`]. Every row chunk is loaded once per four queries, two rows per
/// step; dispatches to a bit-identical AVX2 kernel when available. Callers
/// with fewer than four queries repeat one and ignore its lanes.
///
/// # Panics
/// If the queries differ in length or `rows.len() != out.len() · qs[0].len()`.
#[inline]
pub fn dot_4q(qs: [&[f64]; 4], rows: &[f64], out: &mut [[f64; 4]]) {
    let dim = qs[0].len();
    assert!(qs.iter().all(|q| q.len() == dim), "dot_4q: queries differ in length");
    assert_eq!(rows.len(), out.len() * dim, "dot_4q: rows must hold out.len() rows");
    simd::dot_4q(qs, rows, out);
}

/// Squared Euclidean norm `‖v‖²`.
#[inline]
pub fn norm_sq(v: &[f64]) -> f64 {
    dot(v, v)
}

/// Euclidean norm `‖v‖`.
#[inline]
pub fn norm(v: &[f64]) -> f64 {
    norm_sq(v).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²`.
#[inline]
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    simd::dist_sq(a, b)
}

/// Euclidean distance `‖a − b‖`.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    dist_sq(a, b).sqrt()
}

/// Scales `v` in place by `s`.
#[inline]
pub fn scale(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

/// Normalizes `v` in place to unit length and returns its original length.
///
/// A zero vector is left untouched and `0.0` is returned; callers treat
/// zero-length vectors as never matching (their inner product with anything
/// is 0, which is below any positive threshold).
#[inline]
pub fn normalize(v: &mut [f64]) -> f64 {
    let len = norm(v);
    if len > 0.0 {
        scale(v, 1.0 / len);
    }
    len
}

/// `out = a + s·b` (vector add with scale), used by the SGD trainer.
#[inline]
pub fn axpy(s: f64, b: &[f64], a: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    simd::axpy(s, b, a);
}

/// LUT gather-accumulate scan over `u8` code indices — the scoring kernel
/// of the quantized bucket representation.
///
/// `codes` holds `m` subspace rows of `n` probe codes each, subspace-major
/// (`codes[s·n + i]` is probe `i`'s code in subspace `s`); `lut` holds `m`
/// rows of `k` table entries (`lut[s·k + c]` is the query's inner product
/// with centroid `c` of subspace `s`). Probe `i`'s approximate score,
/// written to `out[i]`, is the sum of its `m` table entries, accumulated in
/// increasing subspace order. Dispatches to a bit-identical AVX2 gather
/// kernel (four probes per iteration, one per lane) when available.
///
/// Code values `≥ k` are clamped to `k − 1` on every path — hostile codes
/// degrade scores, never memory safety.
///
/// # Panics
/// If `k == 0`, `codes.len() != m·n`, `lut.len() != m·k` or `out.len() < n`.
#[inline]
pub fn lut_scan_u8(codes: &[u8], lut: &[f64], n: usize, m: usize, k: usize, out: &mut [f64]) {
    assert!(k >= 1, "lut_scan: k must be positive");
    assert_eq!(codes.len(), m * n, "lut_scan: codes must hold m·n entries");
    assert_eq!(lut.len(), m * k, "lut_scan: lut must hold m·k entries");
    assert!(out.len() >= n, "lut_scan: out must hold n scores");
    simd::lut_scan_u8(codes, lut, n, m, k, out);
}

/// LUT gather-accumulate scan over `u16` code indices (codebooks wider than
/// 256 centroids); same contract as [`lut_scan_u8`].
///
/// # Panics
/// As in [`lut_scan_u8`].
#[inline]
pub fn lut_scan_u16(codes: &[u16], lut: &[f64], n: usize, m: usize, k: usize, out: &mut [f64]) {
    assert!(k >= 1, "lut_scan: k must be positive");
    assert_eq!(codes.len(), m * n, "lut_scan: codes must hold m·n entries");
    assert_eq!(lut.len(), m * k, "lut_scan: lut must hold m·k entries");
    assert!(out.len() >= n, "lut_scan: out must hold n scores");
    simd::lut_scan_u16(codes, lut, n, m, k, out);
}

/// Fills one subspace's row of a quantized lookup table from centroids
/// stored column-wise (structure of arrays): `cols` holds four rows of
/// `out.len()` doubles, row `d` carrying coordinate `d` of every centroid,
/// and entry `c` becomes `(q₀·c₀ + q₁·c₁) + (q₂·c₂ + q₃·c₃)` — the
/// pairwise reduction order of a 4-wide [`dot`], fixed so every build
/// produces the same bits. Subspaces narrower than four coordinates pass
/// zeros in `q` and zero rows in `cols`. The loop walks the four rows and
/// `out` in lockstep, so the compiler vectorizes it (multiplies and adds
/// stay separate: Rust never fuses them into FMAs).
///
/// # Panics
/// If `cols.len() != 4 · out.len()`.
#[inline]
pub fn lut_fill4(q: &[f64; 4], cols: &[f64], out: &mut [f64]) {
    let k = out.len();
    assert_eq!(cols.len(), 4 * k, "lut_fill4: cols must hold 4 rows of out.len()");
    let (c0, rest) = cols.split_at(k);
    let (c1, rest) = rest.split_at(k);
    let (c2, c3) = rest.split_at(k);
    let (q0, q1, q2, q3) = (q[0], q[1], q[2], q[3]);
    for ((((o, &a), &b), &c), &d) in out.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3) {
        *o = (q0 * a + q1 * b) + (q2 * c + q3 * d);
    }
}

/// Cosine of the angle between `a` and `b`; 0 if either vector is zero.
#[inline]
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn dot_matches_reference_for_all_tail_lengths() {
        // Exercise every `n mod 4` branch of the unrolled loop.
        for n in 0..13 {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 - i as f64).collect();
            let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            approx(dot(&a, &b), expect);
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        approx(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_of_pythagorean_triple() {
        approx(norm(&[3.0, 4.0]), 5.0);
        approx(norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn dist_and_dist_sq_agree() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        approx(dist_sq(&a, &b), 25.0);
        approx(dist(&a, &b), 5.0);
    }

    #[test]
    fn normalize_returns_length_and_unit_result() {
        let mut v = vec![3.0, 0.0, 4.0];
        let len = normalize(&mut v);
        approx(len, 5.0);
        approx(norm(&v), 1.0);
        approx(v[0], 0.6);
        approx(v[2], 0.8);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0, 0.0];
        approx(normalize(&mut v), 0.0);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut a);
        assert_eq!(a, vec![7.0, -1.0]);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        approx(cosine(&[1.0, 0.0], &[5.0, 0.0]), 1.0);
        approx(cosine(&[1.0, 0.0], &[0.0, 2.0]), 0.0);
        approx(cosine(&[1.0, 0.0], &[-3.0, 0.0]), -1.0);
        approx(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn lut_scan_sums_one_table_entry_per_subspace() {
        // 2 subspaces, 4 centroids, 3 probes; scores follow by hand.
        let lut = [10.0, 20.0, 30.0, 40.0, 1.0, 2.0, 3.0, 4.0];
        let codes = [0u8, 3, 1, /* subspace 1 */ 2, 0, 3];
        let mut out = [0.0; 3];
        lut_scan_u8(&codes, &lut, 3, 2, 4, &mut out);
        assert_eq!(out, [13.0, 41.0, 24.0]);
        let codes16: Vec<u16> = codes.iter().map(|&c| c as u16).collect();
        let mut out16 = [0.0; 3];
        lut_scan_u16(&codes16, &lut, 3, 2, 4, &mut out16);
        assert_eq!(out16, [13.0, 41.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "codes must hold")]
    fn lut_scan_rejects_misshapen_codes() {
        let mut out = [0.0; 2];
        lut_scan_u8(&[0u8; 3], &[0.0; 4], 2, 2, 2, &mut out);
    }

    #[test]
    fn lut_fill4_matches_a_four_wide_dot_per_centroid() {
        let q = [0.3, -1.25, 2.5, 0.125];
        // Three centroids, column-wise: row d holds coordinate d of each.
        let cols = [1.0, 2.0, -3.0, 0.5, 0.0, 4.0, -2.0, 1.5, 0.25, 3.0, -1.0, 0.75];
        let mut out = [0.0; 3];
        lut_fill4(&q, &cols, &mut out);
        for c in 0..3 {
            let p = [cols[c], cols[3 + c], cols[6 + c], cols[9 + c]];
            let reference = (q[0] * p[0] + q[1] * p[1]) + (q[2] * p[2] + q[3] * p[3]);
            assert_eq!(out[c].to_bits(), reference.to_bits(), "centroid {c}");
            assert_eq!(out[c], dot(&q, &p), "centroid {c}");
        }
    }

    #[test]
    #[should_panic(expected = "cols must hold")]
    fn lut_fill4_rejects_misshapen_columns() {
        lut_fill4(&[0.0; 4], &[0.0; 7], &mut [0.0; 2]);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale(&mut v, -3.0);
        assert_eq!(v, vec![-3.0, 6.0]);
    }
}
