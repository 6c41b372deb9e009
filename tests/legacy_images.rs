//! Legacy quantized images keep loading.
//!
//! The two fixtures under `tests/fixtures/` were written by the version-2
//! writer, which stored one codebook per bucket: `legacy-quant8.lempeng2`
//! (a warmed `LEMPENG2` static engine, `quantize(8)`) and
//! `legacy-quant3-edited.lempdyn2` (a warmed `LEMPDYN2` dynamic engine at
//! 3 bits that then ran [`edit`]). Both were built over [`probes`] with
//! [`policy`], `sample_size(6)`, and warmed on [`queries`].
//!
//! A current reader validates the legacy section as strictly as before,
//! drops the per-bucket codebooks, trains one engine codebook at load and
//! re-encodes every bucket that carried codes against it — never on the
//! query path — so answers stay bit-identical to the exact engine, and a
//! corrupted section is still a [`PersistError::Format`].

use std::sync::Arc;

use lemp::baselines::types::{topk_equivalent, Entry};
use lemp::core::{
    DynamicLemp, Engine, PersistError, PqCodebook, QuantCodes, QueryRequest, RunConfig, WarmGoal,
};
use lemp::data::synthetic::GeneratorConfig;
use lemp::linalg::VectorStore;
use lemp::{BucketPolicy, Lemp};

const LEMPENG2: &[u8] = include_bytes!("fixtures/legacy-quant8.lempeng2");
const LEMPDYN2: &[u8] = include_bytes!("fixtures/legacy-quant3-edited.lempdyn2");

fn probes() -> VectorStore {
    GeneratorConfig::gaussian(90, 6, 1.2).generate(1201)
}

fn queries() -> VectorStore {
    GeneratorConfig::gaussian(12, 6, 1.0).generate(1202)
}

fn policy() -> BucketPolicy {
    BucketPolicy { min_bucket: 20, ..Default::default() }
}

/// The edit script the dynamic fixture ran after warming.
fn edit(engine: &mut DynamicLemp) {
    engine.insert(&[1.5, -0.5, 0.25, 2.0, -1.0, 0.75]).unwrap();
    engine.insert(&[0.1, 0.2, -0.3, 0.4, -0.5, 0.6]).unwrap();
    assert!(engine.remove(4));
    assert!(engine.remove(17));
}

fn canon(entries: &[Entry]) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<_> = entries.iter().map(|e| (e.query, e.probe, e.value.to_bits())).collect();
    v.sort_unstable();
    v
}

/// Above-θ, Row-Top-k and Row-Top-k with a floor through `legacy` must
/// equal `exact` bit-for-bit.
fn assert_answers_match(legacy: &dyn Engine, exact: &dyn Engine, label: &str) {
    let q = queries();
    let (mut ls, mut es) = (legacy.query_scratch(), exact.query_scratch());
    for theta in [0.5, 1.5] {
        let request = QueryRequest::above_theta(theta);
        let got = legacy.run(&request, &q, &mut ls).into_above().entries;
        let want = exact.run(&request, &q, &mut es).into_above().entries;
        assert!(!want.is_empty(), "{label}: θ = {theta} retrieves nothing");
        assert_eq!(canon(&got), canon(&want), "{label}: Above-θ at {theta}");
    }
    for request in [QueryRequest::top_k(5), QueryRequest::top_k_with_floor(5, 0.8)] {
        let got = legacy.run(&request, &q, &mut ls).into_top_k().lists;
        let want = exact.run(&request, &q, &mut es).into_top_k().lists;
        assert!(topk_equivalent(&got, &want, 0.0), "{label}: {}", request.kind.name());
    }
}

/// Asserts load trained the engine codebook and re-encoded the buckets
/// that carried codes against it; returns the codebook.
fn assert_load_encoded(buckets: &lemp::core::ProbeBuckets, label: &str) -> Arc<PqCodebook> {
    let codebook = buckets.codebook().expect("load trains the engine codebook").clone();
    let mut encoded = 0;
    for q in buckets.buckets().iter().filter_map(|b| b.indexes.quant.as_ref()) {
        assert!(Arc::ptr_eq(q.codebook(), &codebook), "{label}: one codebook per engine");
        encoded += 1;
    }
    assert!(encoded > 0, "{label}: the legacy image carried codes");
    codebook
}

/// Asserts warm trained the engine codebook and encoded every non-empty
/// bucket, then that queries leave it untouched (no training on the query
/// path).
fn assert_warm_encoded(engine: &dyn Engine, buckets: &lemp::core::ProbeBuckets, label: &str) {
    let codebook = buckets.codebook().expect("warm trains the engine codebook").clone();
    for b in buckets.buckets().iter().filter(|b| b.max_len > 0.0) {
        let q = b.indexes.quant.as_ref().expect("warm encodes every bucket");
        assert!(Arc::ptr_eq(q.codebook(), &codebook), "{label}: one codebook per engine");
    }
    let mut scratch = engine.query_scratch();
    engine.run(&QueryRequest::top_k(5), &queries(), &mut scratch);
    let after = buckets.codebook().expect("codebook survives queries");
    assert!(Arc::ptr_eq(after, &codebook), "{label}: queries must not retrain");
}

#[test]
fn legacy_static_image_loads_and_answers_bit_identically() {
    assert_eq!(&LEMPENG2[..8], b"LEMPENG2");
    let mut legacy = Lemp::read_from(LEMPENG2).expect("legacy image loads");
    assert_eq!(legacy.config().quantize_bits, 8);
    let codebook = assert_load_encoded(legacy.buckets(), "LEMPENG2");
    assert!(legacy.buckets().buckets().iter().all(|b| b.max_len <= 0.0
        || b.indexes.quant.as_ref().is_some_and(|q| Arc::ptr_eq(q.codebook(), &codebook))));

    let q = queries();
    legacy.warm(&q, WarmGoal::TopK(5));
    assert!(Arc::ptr_eq(legacy.buckets().codebook().unwrap(), &codebook), "warm keeps it");
    let mut exact = Lemp::builder().policy(policy()).sample_size(6).build(&probes());
    exact.warm(&q, WarmGoal::TopK(5));
    assert_eq!(legacy.buckets().bucket_count(), exact.buckets().bucket_count());
    assert_warm_encoded(&legacy, legacy.buckets(), "LEMPENG2");
    assert_answers_match(&legacy, &exact, "LEMPENG2");
}

#[test]
fn legacy_dynamic_image_loads_and_answers_bit_identically() {
    assert_eq!(&LEMPDYN2[..8], b"LEMPDYN2");
    let mut legacy = DynamicLemp::read_from(LEMPDYN2).expect("legacy image loads");
    assert_eq!(legacy.config().quantize_bits, 3);
    let codebook = assert_load_encoded(legacy.buckets(), "LEMPDYN2");
    let codes = all_codes(legacy.buckets());

    let q = queries();
    legacy.warm(&q, WarmGoal::Above(1.0));
    assert!(Arc::ptr_eq(legacy.buckets().codebook().unwrap(), &codebook), "warm keeps it");
    for (b, (was, now)) in codes.iter().zip(&all_codes(legacy.buckets())).enumerate() {
        if was.is_some() {
            assert_eq!(was, now, "LEMPDYN2: warm re-encoded loaded bucket {b}");
        }
    }
    let config = RunConfig { sample_size: 6, ..Default::default() };
    let mut exact = DynamicLemp::new(&probes(), policy(), config);
    exact.warm(&q, WarmGoal::Above(1.0));
    edit(&mut exact);
    assert_eq!(legacy.len(), exact.len());
    assert_eq!(legacy.next_id(), exact.next_id());
    assert_warm_encoded(&legacy, legacy.buckets(), "LEMPDYN2");
    assert_answers_match(&legacy, &exact, "LEMPDYN2");

    // Edits after the reload re-encode against the retrained codebook.
    let codebook = legacy.buckets().codebook().unwrap().clone();
    legacy.insert(&[0.3, 0.3, 0.3, -0.3, 0.3, 0.3]).unwrap();
    exact.insert(&[0.3, 0.3, 0.3, -0.3, 0.3, 0.3]).unwrap();
    assert!(Arc::ptr_eq(legacy.buckets().codebook().unwrap(), &codebook));
    assert_answers_match(&legacy, &exact, "LEMPDYN2 after an insert");
}

/// The one-shot `&mut` driver (no warm) tunes on first use; on a legacy
/// image that must encode nothing the image already carried and train
/// nothing, and answer exactly. (A dynamic engine has no cold query path:
/// it answers through [`Engine`] after a warm-up, which the test above
/// covers.)
#[test]
fn legacy_images_answer_exactly_without_warm() {
    let q = queries();
    let mut legacy = Lemp::read_from(LEMPENG2).unwrap();
    let codebook = assert_load_encoded(legacy.buckets(), "LEMPENG2");
    let mut exact = Lemp::builder().policy(policy()).sample_size(6).build(&probes());
    let codes = all_codes(legacy.buckets());
    let got = legacy.row_top_k(&q, 5);
    assert!(topk_equivalent(&got.lists, &exact.row_top_k(&q, 5).lists, 0.0));
    let got = legacy.above_theta(&q, 0.5).entries;
    assert_eq!(canon(&got), canon(&exact.above_theta(&q, 0.5).entries));
    assert!(Arc::ptr_eq(legacy.buckets().codebook().unwrap(), &codebook), "LEMPENG2");
    assert_eq!(all_codes(legacy.buckets()), codes, "LEMPENG2: no bucket re-encoded");
}

/// Every bucket's packed codes, `None` where a bucket is not encoded.
fn all_codes(buckets: &lemp::core::ProbeBuckets) -> Vec<Option<QuantCodes>> {
    buckets.buckets().iter().map(|b| b.indexes.quant.as_ref().map(|q| q.codes().clone())).collect()
}

/// The byte offset where the legacy quantized section starts: everything
/// before it is the version-1 layout, byte-identical to an unquantized
/// image of the same engine.
fn section_start(legacy: &[u8], unquantized: &[u8]) -> usize {
    let at = unquantized.len();
    assert_eq!(&legacy[8..at], &unquantized[8..], "shared version-1 prefix");
    at
}

fn assert_format_error(outcome: Result<(), PersistError>, what: &str) {
    match outcome {
        Err(PersistError::Format(msg)) => assert!(!msg.is_empty(), "{what}"),
        other => panic!("{what}: expected a format error, got {other:?}"),
    }
}

#[test]
fn corrupted_legacy_sections_are_format_errors() {
    let mut v1 = Vec::new();
    Lemp::builder().policy(policy()).sample_size(6).build(&probes()).write_to(&mut v1).unwrap();
    let mut dyn_v1 = Vec::new();
    let mut twin =
        DynamicLemp::new(&probes(), policy(), RunConfig { sample_size: 6, ..Default::default() });
    edit(&mut twin);
    twin.write_to(&mut dyn_v1).unwrap();

    type Loader = fn(&[u8]) -> Result<(), PersistError>;
    let cases: [(&str, &[u8], &[u8], Loader); 2] = [
        ("LEMPENG2", LEMPENG2, &v1, |b| Lemp::read_from(b).map(|_| ())),
        ("LEMPDYN2", LEMPDYN2, &dyn_v1, |b| DynamicLemp::read_from(b).map(|_| ())),
    ];
    for (name, image, unquantized, load) in cases {
        let at = section_start(image, unquantized);
        assert!(load(image).is_ok());
        for cut in [at, at + 1, at + 2, at + 11, at + 30, image.len() - 1] {
            assert_format_error(load(&image[..cut]), &format!("{name}: truncated at {cut}"));
        }
        let corrupt = |offset: usize, byte: u8| {
            let mut bad = image.to_vec();
            bad[offset] = byte;
            bad
        };
        // The code width, bucket 0's present flag and code width.
        assert_format_error(load(&corrupt(at, 0)), &format!("{name}: zero quantize_bits"));
        assert_format_error(load(&corrupt(at + 1, 7)), &format!("{name}: flag 7"));
        assert_format_error(load(&corrupt(at + 2, 17)), &format!("{name}: 17-bit codes"));
        // Bucket 0's k beyond its probe count, then a NaN centroid.
        let mut bad = image.to_vec();
        bad[at + 11..at + 19].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_format_error(load(&bad), &format!("{name}: huge k"));
        let mut bad = image.to_vec();
        bad[at + 19..at + 27].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_format_error(load(&bad), &format!("{name}: NaN centroid"));
        // The image's last byte is a code of the last bucket.
        assert_format_error(
            load(&corrupt(image.len() - 1, u8::MAX)),
            &format!("{name}: out-of-range code"),
        );
    }
}
