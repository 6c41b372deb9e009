//! Whole-product helpers on top of the one-shot batch driver.
//!
//! [`Lemp::global_top_n`] finds the `n` largest entries of the entire
//! product, processing queries in bounded-memory blocks, and
//! [`column_top_k`] implements the paper's remark (Sec. 2) that "the top-k
//! values in each column of `QᵀP` can be found by reversing the roles of
//! `Q` and `P`". Both run on a cold engine, which tunes on the batch and
//! builds only the indexes it reaches.
//!
//! Chunked (bounded-memory) execution of the retrieval problems
//! themselves is an execution option of the unified query surface:
//! [`crate::QueryRequest::chunked`] plus [`crate::Engine::execute_stream`],
//! which hands each block's results to a sink before the next block runs.

use lemp_baselines::types::Entry;
use lemp_linalg::VectorStore;

use crate::runner::{self, TopKOutput};
use crate::{Lemp, LempBuilder};

/// **Column-Top-k**: for every *probe* column `p ∈ P`, the `k` queries
/// attaining the largest inner products — the paper's role reversal
/// (Sec. 2). Builds a transient engine over `queries` (they become the
/// bucketized side) and runs Row-Top-k with `probes` as the query set; the
/// returned lists are indexed by probe column, and the ids inside them are
/// query-row indices.
///
/// # Panics
/// If the dimensionalities differ.
pub fn column_top_k(
    queries: &VectorStore,
    probes: &VectorStore,
    k: usize,
    builder: LempBuilder,
) -> TopKOutput {
    let mut engine = builder.build(queries);
    engine.row_top_k(probes, k)
}

impl Lemp {
    /// **Global-Top-n**: the `n` largest entries of the *entire* product
    /// matrix, sorted by descending value (ties broken arbitrarily at the
    /// boundary).
    ///
    /// This is exactly how the paper defines its Above-θ recall levels
    /// (Sec. 6.1: "we selected θ such that we retrieve the top-10³ … -10⁷
    /// entries in the whole product matrix") — the returned n-th value *is*
    /// that θ, computed exactly rather than by sampling.
    ///
    /// The driver reuses LEMP's own machinery as a tightening cascade:
    /// queries are processed in decreasing length order in blocks of
    /// `chunk` (bounding memory), each block runs Above-θ′ at the current
    /// global n-th value, and the loop stops early once even the longest
    /// remaining query cannot produce an entry above θ′ — the same
    /// length-based argument that prunes buckets (Eq. 2) applied to the
    /// query side.
    ///
    /// # Panics
    /// If `chunk == 0` or the dimensionalities differ.
    pub fn global_top_n(&mut self, queries: &VectorStore, n: usize, chunk: usize) -> Vec<Entry> {
        assert!(chunk > 0, "chunk must be positive");
        assert_eq!(queries.dim(), self.buckets.dim(), "query/probe dimensionality mismatch");
        if n == 0 || queries.is_empty() || self.buckets.total() == 0 {
            return Vec::new();
        }
        let probes_total = self.buckets.total();
        let max_probe_len = self.buckets.buckets().first().map(|b| b.max_len).unwrap_or(0.0);

        // Sort query rows by decreasing length so the threshold tightens as
        // fast as possible and the tail can be cut off wholesale.
        let lengths = queries.lengths();
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by(|&a, &b| lengths[b].total_cmp(&lengths[a]).then(a.cmp(&b)));

        // Seed θ′ from the single longest query: its row top-n is cheap and
        // usually close to the global scale.
        let mut heap = lemp_linalg::TopK::new(n);
        let seed_store = VectorStore::from_flat(queries.vector(order[0]).to_vec(), queries.dim())
            .expect("row of a valid store");
        let seed = runner::row_top_k(&mut self.buckets, &seed_store, n, &self.config);
        for item in &seed.lists[0] {
            heap.push(order[0] * probes_total + item.id, item.score);
        }

        let dim = queries.dim();
        let mut at = 1usize; // order[0] fully handled by the seed
        while at < order.len() {
            let theta = heap.threshold(); // −∞ until the heap holds n entries
                                          // Query-side cut: a query of length ℓ can reach at most
                                          // ℓ·max_probe_len; once that trails θ′ every remaining
                                          // (shorter) query is out.
            if theta > lengths[order[at]] * max_probe_len {
                break;
            }
            let hi = (at + chunk).min(order.len());
            let mut flat = Vec::with_capacity((hi - at) * dim);
            for &qi in &order[at..hi] {
                flat.extend_from_slice(queries.vector(qi));
            }
            let block = VectorStore::from_flat(flat, dim).expect("rows of a valid store");
            let out = runner::above_theta(&mut self.buckets, &block, theta, &self.config);
            for e in &out.entries {
                heap.push(order[at + e.query as usize] * probes_total + e.probe as usize, e.value);
            }
            at = hi;
        }

        heap.drain_sorted()
            .into_iter()
            .map(|item| Entry {
                query: (item.id / probes_total) as u32,
                probe: (item.id % probes_total) as u32,
                value: item.score,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecOptions, LempVariant, QueryRequest, QueryRows, WarmGoal};
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_baselines::Naive;
    use lemp_data::synthetic::GeneratorConfig;

    fn data(m: usize, n: usize, seed: u64) -> (VectorStore, VectorStore) {
        let q = GeneratorConfig::gaussian(m, 10, 1.0).generate(seed);
        let p = GeneratorConfig::gaussian(n, 10, 1.0).generate(seed + 1);
        (q, p)
    }

    fn warmed(p: &VectorStore, q: &VectorStore, goal: WarmGoal) -> Lemp {
        let mut engine = Lemp::builder().sample_size(8).build(p);
        engine.warm(q, goal);
        engine
    }

    #[test]
    fn chunked_above_theta_matches_monolithic() {
        let (q, p) = data(53, 300, 20);
        let theta = 1.2;
        let expect = Lemp::builder().sample_size(8).build(&p).above_theta(&q, theta);
        let engine = warmed(&p, &q, WarmGoal::Above(theta));
        for chunk_size in [1, 7, 53, 100] {
            let plan = engine.plan(&QueryRequest::above_theta(theta).chunked(chunk_size));
            let mut scratch = engine.query_scratch();
            let mut collected = Vec::new();
            let mut queries = 0;
            let mut results = 0;
            engine.execute_stream(&plan, &q, &mut scratch, &mut |offset, block| {
                let entries = block.entries().unwrap();
                let rows = block.stats.counters.queries as usize;
                assert!(entries
                    .iter()
                    .all(|e| (offset..offset + rows).contains(&(e.query as usize))));
                assert_eq!(block.stats.counters.results, entries.len() as u64);
                queries += rows;
                results += block.stats.counters.results;
                collected.extend_from_slice(entries);
            });
            assert_eq!(
                canonical_pairs(&collected),
                canonical_pairs(&expect.entries),
                "chunk size {chunk_size} diverges"
            );
            assert_eq!(queries, q.len());
            assert_eq!(results, collected.len() as u64);
            // The materializing form merges the blocks' stats.
            let merged = engine.execute(&plan, &q, &mut scratch).stats;
            assert_eq!(merged.counters.results, expect.entries.len() as u64);
            assert_eq!(merged.counters.queries, q.len() as u64);
        }
    }

    #[test]
    fn chunked_top_k_matches_monolithic() {
        let (q, p) = data(41, 200, 30);
        let k = 4;
        let expect = Lemp::builder().sample_size(8).build(&p).row_top_k(&q, k);
        let engine = warmed(&p, &q, WarmGoal::TopK(k));
        for chunk_size in [1, 8, 41, 64] {
            let plan = engine.plan(&QueryRequest::top_k(k).chunked(chunk_size));
            let mut scratch = engine.query_scratch();
            let mut lists = Vec::new();
            engine.execute_stream(&plan, &q, &mut scratch, &mut |offset, block| {
                assert_eq!(offset, lists.len(), "blocks out of order");
                lists.extend(block.into_top_k().lists);
            });
            assert_eq!(lists.len(), q.len());
            assert!(
                topk_equivalent(&lists, &expect.lists, 1e-9),
                "chunk size {chunk_size} diverges"
            );
        }
    }

    #[test]
    fn chunked_indexes_build_only_once() {
        let (q, p) = data(60, 400, 40);
        let mut engine = Lemp::builder().variant(LempVariant::I).sample_size(8).build(&p);
        // Warming builds every index up front; chunked runs only read them.
        assert!(engine.warm(&q, WarmGoal::Above(1.0)).indexes_built > 0);
        let plan = engine.plan(&QueryRequest::above_theta(1.0).chunked(10));
        let mut scratch = engine.query_scratch();
        for _ in 0..2 {
            let stats = engine.execute(&plan, &q, &mut scratch).stats;
            assert_eq!(stats.counters.queries, q.len() as u64);
            assert_eq!(stats.indexes_built, 0, "indexes rebuilt across runs");
        }
    }

    #[test]
    fn chunked_handles_empty_queries() {
        let (q, p) = data(5, 50, 50);
        let engine = warmed(&p, &q, WarmGoal::Above(1.0));
        let empty = VectorStore::empty(10).unwrap();
        let plan = engine.plan(&QueryRequest::above_theta(1.0).chunked(16));
        let mut scratch = engine.query_scratch();
        let mut called = false;
        engine.execute_stream(&plan, &empty, &mut scratch, &mut |_, _| called = true);
        assert!(!called);
        let out = engine.execute(&plan, &empty, &mut scratch);
        assert!(matches!(out.rows, QueryRows::Entries(ref e) if e.is_empty()));
        assert_eq!(out.stats.counters.queries, 0);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let (q, p) = data(5, 20, 60);
        let engine = warmed(&p, &q, WarmGoal::Above(1.0));
        // Options are public fields, so the streaming loop re-checks the
        // size the `chunked` constructor validates.
        let mut request = QueryRequest::above_theta(1.0);
        request.options = ExecOptions { chunk: Some(0), ..request.options };
        let plan = engine.plan(&request);
        let mut scratch = engine.query_scratch();
        engine.execute_stream(&plan, &q, &mut scratch, &mut |_, _| {});
    }

    /// Reference: the top-n values of the full product, descending.
    fn naive_global_top_n(q: &VectorStore, p: &VectorStore, n: usize) -> Vec<f64> {
        let mut all = Vec::with_capacity(q.len() * p.len());
        for i in 0..q.len() {
            for j in 0..p.len() {
                all.push(q.dot_between(i, p, j));
            }
        }
        all.sort_by(|a, b| b.total_cmp(a));
        all.truncate(n);
        all
    }

    #[test]
    fn global_top_n_matches_naive() {
        let (q, p) = data(70, 150, 10);
        let mut engine = Lemp::builder().sample_size(8).build(&p);
        for n in [1usize, 10, 100, 1000] {
            for chunk in [7, 64] {
                let got = engine.global_top_n(&q, n, chunk);
                let expect = naive_global_top_n(&q, &p, n);
                assert_eq!(got.len(), expect.len(), "n={n} chunk={chunk}");
                for (e, want) in got.iter().zip(&expect) {
                    assert!(
                        (e.value - want).abs() < 1e-9,
                        "n={n} chunk={chunk}: {} vs {want}",
                        e.value
                    );
                    // entries must carry correct coordinates
                    let real = q.dot_between(e.query as usize, &p, e.probe as usize);
                    assert!((real - e.value).abs() < 1e-12);
                }
                // descending order
                for w in got.windows(2) {
                    assert!(w[0].value >= w[1].value);
                }
            }
        }
    }

    #[test]
    fn global_top_n_is_the_recall_level_theta() {
        // The n-th returned value is the exact θ of the paper's "@n recall
        // level": Above-θ at that θ returns at least n entries, and a hair
        // above it returns fewer than n.
        let (q, p) = data(50, 120, 11);
        let mut engine = Lemp::builder().sample_size(8).build(&p);
        let n = 200;
        let top = engine.global_top_n(&q, n, 32);
        let theta = top.last().unwrap().value;
        let at = engine.above_theta(&q, theta);
        assert!(at.entries.len() >= n);
        let above = engine.above_theta(&q, theta + 1e-9);
        assert!(above.entries.len() < n || theta == above.entries[0].value);
    }

    #[test]
    fn global_top_n_edge_cases() {
        let (q, p) = data(10, 30, 12);
        let mut engine = Lemp::builder().build(&p);
        assert!(engine.global_top_n(&q, 0, 4).is_empty());
        // n beyond the product size returns every pair
        let got = engine.global_top_n(&q, 10_000, 4);
        assert_eq!(got.len(), 300);
        let empty = VectorStore::empty(10).unwrap();
        assert!(engine.global_top_n(&empty, 5, 4).is_empty());
        let mut empty_engine = Lemp::new(&empty);
        assert!(empty_engine.global_top_n(&q, 5, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn global_top_n_zero_chunk_panics() {
        let (q, p) = data(5, 10, 13);
        let mut engine = Lemp::builder().build(&p);
        let _ = engine.global_top_n(&q, 3, 0);
    }

    #[test]
    fn column_top_k_reverses_roles() {
        let (q, p) = data(80, 60, 70);
        let k = 3;
        let out = column_top_k(&q, &p, k, Lemp::builder().sample_size(8));
        assert_eq!(out.lists.len(), p.len(), "one list per probe column");
        // Ground truth: transpose the naive product.
        let (expect, _) = Naive.row_top_k(&p, &q, k);
        assert!(topk_equivalent(&out.lists, &expect, 1e-9));
    }
}
