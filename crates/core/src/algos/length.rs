//! LENGTH: length-based pruning (Sec. 4.1 of the paper).
//!
//! "LENGTH scans the bucket `P_b` in order. When processing vector `p`, we
//! check whether `‖p‖ ≥ θ/‖q‖`; we precompute `θ/‖q‖` to make this check
//! efficient. If `p` qualifies, we add it to the candidate set `C_b`.
//! Otherwise, we stop processing bucket `P_b`."
//!
//! Because bucket vectors are sorted by decreasing length, the qualifying
//! vectors form a prefix — the scan is sequential and allocation-free, which
//! is exactly why the paper recommends LENGTH "when buckets are small or the
//! local threshold is low".

use crate::bucket::Bucket;

use super::{QueryCtx, Sink};

/// Runs LENGTH: pushes the length-qualified prefix of the bucket as
/// unverified candidates.
pub fn run(ctx: &QueryCtx<'_>, bucket: &Bucket, sink: &mut Sink) {
    let n = qualifying(ctx.theta_over_len, bucket);
    sink.unverified.extend(0..n as u32);
}

/// Length of the qualifying prefix for a query with precomputed `θ/‖q‖`:
/// the bucket's candidates are exactly its local ids `0..n`. Above-θ's
/// LENGTH block reads this directly instead of listing the ids.
pub(crate) fn qualifying(theta_over_len: f64, bucket: &Bucket) -> usize {
    // Tiny downward slack: `θ/‖q‖` and `‖p‖` are derived (division, sqrt)
    // quantities, so a pair sitting exactly on the threshold could
    // otherwise be lost to rounding.
    let cut = theta_over_len - 1e-12 * theta_over_len.abs();
    bucket.lengths.iter().take_while(|&&len| len >= cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::{BucketPolicy, ProbeBuckets};
    use lemp_linalg::VectorStore;

    fn buckets_of(lengths: &[f64]) -> ProbeBuckets {
        let rows: Vec<Vec<f64>> = lengths.iter().map(|&l| vec![l, 0.0]).collect();
        let store = VectorStore::from_rows(&rows).unwrap();
        let policy = BucketPolicy { min_bucket: lengths.len().max(1), ..Default::default() };
        let pb = ProbeBuckets::build(&store, &policy);
        assert_eq!(pb.bucket_count(), 1);
        pb
    }

    fn ctx_for<'a>(theta: f64, q_len: f64, dir: &'a [f64]) -> QueryCtx<'a> {
        QueryCtx {
            dir,
            len: q_len,
            theta,
            theta_over_len: theta / q_len,
            local_threshold: 0.5,
            scaled: dir,
        }
    }

    #[test]
    fn qualifying_prefix_matches_paper_example() {
        // Sec. 4.1 example: bucket lengths (2.0, 1.9, 1.9, 1.8, 1.8, 1.8),
        // q = (1,1,1,1)ᵀ → ‖q‖ = 2, θ = 3.8 → θ/‖q‖ = 1.9 → C_b = {1, 2, 3}
        // (one-based) = lids {0, 1, 2}.
        let pb = buckets_of(&[2.0, 1.9, 1.9, 1.8, 1.8, 1.8]);
        let dir = [1.0, 0.0];
        let ctx = ctx_for(3.8, 2.0, &dir);
        let mut sink = Sink::default();
        run(&ctx, &pb.buckets()[0], &mut sink);
        assert_eq!(sink.unverified, vec![0, 1, 2]);
        assert!(sink.verified.is_empty());
    }

    #[test]
    fn no_candidates_when_cut_exceeds_max() {
        let pb = buckets_of(&[1.0, 0.9]);
        let dir = [1.0, 0.0];
        let ctx = ctx_for(10.0, 1.0, &dir);
        let mut sink = Sink::default();
        run(&ctx, &pb.buckets()[0], &mut sink);
        assert!(sink.unverified.is_empty());
    }

    #[test]
    fn everything_qualifies_at_nonpositive_cut() {
        let pb = buckets_of(&[1.0, 0.5, 0.1]);
        let dir = [1.0, 0.0];
        let ctx = ctx_for(-1.0, 1.0, &dir); // θ < 0 → cut < 0 → all pass
        let mut sink = Sink::default();
        run(&ctx, &pb.buckets()[0], &mut sink);
        assert_eq!(sink.unverified, vec![0, 1, 2]);
    }
}
