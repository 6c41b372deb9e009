//! Integration tests for chunked (streamed) execution, role reversal and
//! result serialization across crates and datasets.

use lemp::baselines::export::{read_entries_csv, read_topk_csv, write_entries_csv, write_topk_csv};
use lemp::baselines::types::{canonical_pairs, topk_equivalent, TopKLists};
use lemp::baselines::Naive;
use lemp::core::column_top_k;
use lemp::data::datasets::Dataset;
use lemp::linalg::VectorStore;
use lemp::{Engine, Lemp, LempVariant, QueryRequest};

fn workload(dataset: Dataset, scale: f64, seed: u64) -> (VectorStore, VectorStore) {
    dataset.spec().scaled(scale).generate(seed)
}

#[test]
fn chunked_above_matches_monolithic_on_every_dataset() {
    for (dataset, theta) in [(Dataset::Netflix, 1.5), (Dataset::IeSvd, 2.0), (Dataset::IeNmf, 1.0)]
    {
        let (queries, probes) = workload(dataset, 0.001, 31);
        let mut engine = Lemp::builder().sample_size(8).build(&probes);
        let expect = engine.above_theta(&queries, theta);
        engine.warm(&queries, lemp::core::WarmGoal::Above(theta));
        let plan = engine.plan(&QueryRequest::above_theta(theta).chunked(37));
        let mut got = Vec::new();
        engine.execute_stream(&plan, &queries, &mut engine.query_scratch(), &mut |_, block| {
            got.extend_from_slice(block.entries().unwrap())
        });
        assert_eq!(
            canonical_pairs(&got),
            canonical_pairs(&expect.entries),
            "{dataset:?} chunked run diverges"
        );
    }
}

#[test]
fn chunked_runs_work_with_threads_and_variants() {
    let (queries, probes) = workload(Dataset::Netflix, 0.001, 32);
    let k = 4;
    let mut reference = Lemp::builder().sample_size(8).build(&probes);
    let expect = reference.row_top_k(&queries, k);
    for variant in [LempVariant::L, LempVariant::I, LempVariant::LI] {
        for threads in [1, 4] {
            let mut engine =
                Lemp::builder().variant(variant).threads(threads).sample_size(8).build(&probes);
            engine.warm(&queries, lemp::core::WarmGoal::TopK(k));
            let plan = engine.plan(&QueryRequest::top_k(k).chunked(25));
            let mut lists: TopKLists = vec![Vec::new(); queries.len()];
            engine.execute_stream(
                &plan,
                &queries,
                &mut engine.query_scratch(),
                &mut |at, block| {
                    for (i, list) in block.into_top_k().lists.into_iter().enumerate() {
                        lists[at + i] = list;
                    }
                },
            );
            assert!(
                topk_equivalent(&lists, &expect.lists, 1e-9),
                "{} with {threads} threads diverges",
                variant.name()
            );
        }
    }
}

#[test]
fn column_top_k_equals_transposed_row_top_k() {
    let (queries, probes) = workload(Dataset::IeNmf, 0.0008, 33);
    let k = 3;
    let out = column_top_k(&queries, &probes, k, Lemp::builder().sample_size(8));
    assert_eq!(out.lists.len(), probes.len());
    let (expect, _) = Naive.row_top_k(&probes, &queries, k);
    assert!(topk_equivalent(&out.lists, &expect, 1e-9));
}

#[test]
fn engine_output_roundtrips_through_export() {
    let (queries, probes) = workload(Dataset::Netflix, 0.0008, 34);
    let mut engine = Lemp::builder().build(&probes);

    let above = engine.above_theta(&queries, 1.2);
    let mut sorted = above.entries.clone();
    sorted.sort_by_key(|e| (e.query, e.probe));
    let mut buf = Vec::new();
    write_entries_csv(&mut buf, &sorted).unwrap();
    let back = read_entries_csv(&buf[..]).unwrap();
    assert_eq!(canonical_pairs(&back), canonical_pairs(&above.entries));
    for (a, b) in back.iter().zip(&sorted) {
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "score lost precision in CSV");
    }

    let top = engine.row_top_k(&queries, 5);
    let mut buf = Vec::new();
    write_topk_csv(&mut buf, &top.lists).unwrap();
    let mut back = read_topk_csv(&buf[..]).unwrap();
    back.resize_with(top.lists.len(), Vec::new); // trailing empties
    assert!(topk_equivalent(&back, &top.lists, 0.0));
}

#[test]
fn sampled_theta_calibration_brackets_the_exact_recall_level() {
    // The bench workloads calibrate θ for "@n recall levels" by pair
    // sampling (`lemp_data::calibrate`); `global_top_n` computes the same
    // θ exactly. The sampled estimate must land near the exact one: the
    // result count at the sampled θ should be within a factor of ~2 of the
    // target (sampling noise), and the exact θ reproduces it precisely.
    let (queries, probes) = workload(Dataset::IeSvd, 0.0015, 36);
    let n = 400;
    let mut engine = Lemp::builder().build(&probes);
    let top = engine.global_top_n(&queries, n, 128);
    assert_eq!(top.len(), n);
    let exact_theta = top.last().unwrap().value;
    let exact_count = engine.above_theta(&queries, exact_theta).entries.len();
    assert!(exact_count >= n, "exact θ must reproduce ≥ n entries");

    let sampled = lemp::data::calibrate::sampled_theta(
        &queries,
        &probes,
        n,
        100_000.min(queries.len() * probes.len()),
        37,
    )
    .expect("calibration succeeds on non-empty data");
    let sampled_count = engine.above_theta(&queries, sampled).entries.len();
    assert!(
        sampled_count >= n / 3 && sampled_count <= n * 3,
        "sampled θ={sampled} yields {sampled_count} entries for target {n} (exact θ={exact_theta})"
    );
}

#[test]
fn matrix_market_files_feed_the_engine() {
    // Full pipeline: generate → write MM → read MM → retrieve; results
    // must match the in-memory run bit for bit.
    let (queries, probes) = workload(Dataset::IeSvd, 0.0005, 35);
    let dir = std::env::temp_dir();
    let qp = dir.join(format!("lemp-int-q-{}.mtx", std::process::id()));
    let pp = dir.join(format!("lemp-int-p-{}.mtx", std::process::id()));
    lemp::data::mm::write_mm_array(&queries, &qp).unwrap();
    lemp::data::mm::write_mm_coordinate(&probes, &pp).unwrap();
    let q2 = lemp::data::mm::read_mm(&qp).unwrap();
    let p2 = lemp::data::mm::read_mm(&pp).unwrap();
    assert_eq!(queries, q2);
    assert_eq!(probes, p2);
    let mut a = Lemp::builder().build(&probes);
    let mut b = Lemp::builder().build(&p2);
    let ra = a.above_theta(&queries, 1.0);
    let rb = b.above_theta(&q2, 1.0);
    assert_eq!(canonical_pairs(&ra.entries), canonical_pairs(&rb.entries));
    std::fs::remove_file(&qp).ok();
    std::fs::remove_file(&pp).ok();
}
