//! Query-side preprocessing.
//!
//! Footnote 1 of the paper: "We also sort and normalize query vectors in a
//! manner similar to the bucketization of P." Sorting queries by decreasing
//! length lets the Above-θ inner loop *break* (instead of skip) at the first
//! pruned query — every shorter query has a larger local threshold.

use lemp_linalg::VectorStore;

/// Sorted, normalized queries.
#[derive(Debug)]
pub struct QueryBatch {
    /// Original query indexes, by decreasing length.
    pub ids: Vec<u32>,
    /// Lengths `‖q‖`, same order (non-increasing).
    pub lengths: Vec<f64>,
    /// Unit directions `q̄`, same order.
    pub dirs: VectorStore,
    /// The queries in their original scale `‖q‖·q̄`, same order: the
    /// operands of Above-θ verification, read in the sorted order the
    /// drivers walk (a copy taken while sorting, so a bucket pass streams
    /// through it instead of gathering rows of the caller's store).
    pub scaled: VectorStore,
    /// Largest query length (drives L2AP's index threshold, Sec. 5).
    pub max_len: f64,
}

impl QueryBatch {
    /// Builds the batch from the raw query store.
    pub fn build(queries: &VectorStore) -> Self {
        let n = queries.len();
        let lengths_raw = queries.lengths();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by(|&a, &b| {
            lengths_raw[b as usize]
                .partial_cmp(&lengths_raw[a as usize])
                .expect("finite lengths")
                .then(a.cmp(&b))
        });
        let selected: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let scaled = queries.select(&selected);
        let (lengths, dirs) = scaled.decompose();
        let max_len = lengths.first().copied().unwrap_or(0.0);
        Self { ids, lengths, dirs, scaled, max_len }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no queries are present.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Evenly spaced sample positions (into the sorted order) covering the
    /// length spectrum; used by the tuner (Sec. 4.4).
    pub fn sample_positions(&self, sample: usize) -> Vec<usize> {
        let n = self.len();
        if n == 0 || sample == 0 {
            return Vec::new();
        }
        let sample = sample.min(n);
        (0..sample).map(|i| i * n / sample).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sorts_by_decreasing_length() {
        let store =
            VectorStore::from_rows(&[vec![1.0, 0.0], vec![3.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let b = QueryBatch::build(&store);
        assert_eq!(b.ids, vec![1, 2, 0]);
        assert_eq!(b.lengths, vec![3.0, 2.0, 1.0]);
        assert_eq!(b.max_len, 3.0);
        // original-scale rows follow the sorted order bit for bit
        for (i, &id) in b.ids.iter().enumerate() {
            assert_eq!(b.scaled.vector(i), store.vector(id as usize));
        }
        // directions normalized
        for d in b.dirs.iter() {
            assert!((lemp_linalg::kernels::norm(d) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_batch() {
        let store = VectorStore::empty(3).unwrap();
        let b = QueryBatch::build(&store);
        assert!(b.is_empty());
        assert_eq!(b.max_len, 0.0);
        assert!(b.sample_positions(10).is_empty());
    }

    #[test]
    fn sample_positions_cover_the_range() {
        let store =
            VectorStore::from_rows(&(0..100).map(|i| vec![i as f64 + 1.0]).collect::<Vec<_>>())
                .unwrap();
        let b = QueryBatch::build(&store);
        let pos = b.sample_positions(10);
        assert_eq!(pos.len(), 10);
        assert_eq!(pos[0], 0);
        assert!(*pos.last().unwrap() >= 90);
        // oversampling clamps
        assert_eq!(b.sample_positions(1000).len(), 100);
    }
}
