//! Correctness gate: answers checked row by row against
//! `lemp_baselines::Naive` over the same probes.
//!
//! Scores must agree within [`TOL`]. Ids must match exactly, except where
//! the reference itself holds a tie within [`TOL`] (two probes whose
//! scores differ by less than the tolerance may come back in either
//! order, and an Above-θ entry within the tolerance of θ may be present
//! or absent).

use std::collections::HashMap;

use lemp_baselines::Naive;
use lemp_core::Entry;
use lemp_linalg::{kernels, VectorStore};

/// Largest accepted score difference.
pub const TOL: f64 = 1e-9;

/// One ranked answer row: `(probe id, score)`, best first.
pub type Row = Vec<(u32, f64)>;

/// Checks top-k rows. `got[i]` answers `queries[i]`; `ids[j]` is the
/// engine id of `probes[j]`. Returns the number of wrong rows.
pub fn top_k_rows(
    queries: &VectorStore,
    probes: &VectorStore,
    ids: &[u32],
    k: usize,
    got: &[Row],
) -> u64 {
    let (want, _) = Naive.row_top_k(queries, probes, k);
    let mut wrong = 0;
    for (qi, (want, got)) in want.iter().zip(got).enumerate() {
        let q = queries.vector(qi);
        let ok = want.len() == got.len()
            && want.iter().zip(got).all(|(w, &(gid, gscore))| {
                let wid = ids[w.id];
                (gscore - w.score).abs() <= TOL
                    && (gid == wid
                        || score_of(q, probes, ids, gid)
                            .is_some_and(|s| (s - w.score).abs() <= TOL))
            });
        wrong += u64::from(!ok);
    }
    wrong
}

/// The exact score of engine id `id` for query `q`, if the id is known.
fn score_of(q: &[f64], probes: &VectorStore, ids: &[u32], id: u32) -> Option<f64> {
    ids.iter().position(|&x| x == id).map(|j| kernels::dot(q, probes.vector(j)))
}

/// Checks the Above-θ entries of the sampled rows. `rows[i]` is the index
/// (within the answered batch) of `queries[i]`; `got` is the whole batch's
/// entry set; probe ids are row positions in `probes`. Returns the number
/// of wrong sampled rows.
pub fn above_rows(
    queries: &VectorStore,
    rows: &[u32],
    probes: &VectorStore,
    theta: f64,
    got: &[Entry],
) -> u64 {
    let (want, _) = Naive.above_theta(queries, probes, theta);
    // A row may be sampled more than once; each of its samples gets its entries.
    let mut samples_of: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, &r) in rows.iter().enumerate() {
        samples_of.entry(r).or_default().push(i);
    }
    let mut wants: Vec<Row> = vec![Vec::new(); rows.len()];
    let mut gots: Vec<Row> = vec![Vec::new(); rows.len()];
    for e in &want {
        wants[e.query as usize].push((e.probe, e.value));
    }
    for e in got {
        for &i in samples_of.get(&e.query).map_or(&[][..], Vec::as_slice) {
            gots[i].push((e.probe, e.value));
        }
    }
    let mut wrong = 0;
    for (i, (mut w, mut g)) in wants.into_iter().zip(gots).enumerate() {
        w.sort_by_key(|e| e.0);
        g.sort_by_key(|e| e.0);
        let q = queries.vector(i);
        // Entries on the θ boundary (within TOL) may fall either way.
        let firm = |set: &[(u32, f64)]| -> Vec<(u32, f64)> {
            set.iter().copied().filter(|&(_, v)| v - theta > TOL).collect()
        };
        let (wf, gf) = (firm(&w), firm(&g));
        let ok = wf.len() == gf.len()
            && wf.iter().zip(&gf).all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() <= TOL)
            && g.iter().all(|&(p, v)| {
                let exact = kernels::dot(q, probes.vector(p as usize));
                (exact - v).abs() <= TOL && exact >= theta - TOL
            });
        wrong += u64::from(!ok);
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(rows: &[[f64; 2]]) -> VectorStore {
        VectorStore::from_rows(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn top_k_accepts_exact_rows_and_flags_wrong_ones() {
        let q = store(&[[1.0, 0.0], [0.0, 1.0]]);
        let p = store(&[[3.0, 0.0], [2.0, 5.0], [1.0, 1.0]]);
        let ids = [10, 11, 12];
        let good = vec![vec![(10, 3.0), (11, 2.0)], vec![(11, 5.0), (12, 1.0)]];
        assert_eq!(top_k_rows(&q, &p, &ids, 2, &good), 0);
        let bad = vec![vec![(10, 3.0), (12, 1.0)], vec![(11, 5.0 + 1e-6), (12, 1.0)]];
        assert_eq!(top_k_rows(&q, &p, &ids, 2, &bad), 2);
    }

    #[test]
    fn top_k_tolerates_reordered_ties() {
        let q = store(&[[1.0, 1.0]]);
        let p = store(&[[1.0, 0.0], [0.0, 1.0]]);
        let swapped = vec![vec![(1, 1.0), (0, 1.0)]];
        assert_eq!(top_k_rows(&q, &p, &[0, 1], 2, &swapped), 0);
    }

    #[test]
    fn above_checks_only_the_sampled_rows() {
        let q = store(&[[1.0, 0.0]]);
        let p = store(&[[3.0, 0.0], [0.5, 9.0], [1.0, 1.0]]);
        // The batch answered two rows; row 1 is the sampled one.
        let entries = |extra: bool| {
            let mut v = vec![
                Entry { query: 0, probe: 1, value: 100.0 },
                Entry { query: 1, probe: 0, value: 3.0 },
                Entry { query: 1, probe: 2, value: 1.0 },
            ];
            if extra {
                v.push(Entry { query: 1, probe: 1, value: 0.5 });
            }
            v
        };
        assert_eq!(above_rows(&q, &[1], &p, 1.0, &entries(false)), 0);
        assert_eq!(above_rows(&q, &[1], &p, 1.0, &entries(true)), 1);
        // Missing the firm entry 0 is wrong; the boundary entry 2 may go.
        let missing = vec![Entry { query: 1, probe: 2, value: 1.0 }];
        assert_eq!(above_rows(&q, &[1], &p, 1.0, &missing), 1);
        let boundary_gone = vec![Entry { query: 1, probe: 0, value: 3.0 }];
        assert_eq!(above_rows(&q, &[1], &p, 1.0, &boundary_gone), 0);
        // The same row sampled twice is checked twice, both times in full.
        let q2 = store(&[[1.0, 0.0], [1.0, 0.0]]);
        assert_eq!(above_rows(&q2, &[1, 1], &p, 1.0, &entries(false)), 0);
        assert_eq!(above_rows(&q2, &[1, 1], &p, 1.0, &missing), 2);
    }
}
