//! Micro-benchmarks of the quantized bucket scan: the small-LUT
//! gather-accumulate kernel against the full-precision f64 scan it
//! replaces, across bucket sizes and code widths.
//!
//! The quantized path does `m` table lookups per probe (plus one LUT build
//! of `m · k` four-wide dots per query, shared by every bucket the query
//! visits) where the exact path does one `dim`-length dot per probe — the
//! ≥ 2× scan-throughput target at 8 bits is measured here, and the
//! scalar/AVX2 gap of the LUT kernel is isolated the same way `kernels.rs`
//! isolates it for `dot`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lemp_core::QuantizedBucket;
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::{kernels, simd, VectorStore};
use std::hint::black_box;

const DIM: usize = 50;

fn dirs(n: usize, seed: u64) -> VectorStore {
    let (_, d) = GeneratorConfig::gaussian(n, DIM, 0.0).generate(seed).decompose();
    d
}

/// The exact bucket scan the LUT replaces: one f64 dot per probe.
fn full_scan(query: &[f64], probes: &VectorStore, out: &mut Vec<f64>) {
    out.clear();
    out.extend(probes.iter().map(|p| kernels::dot(query, p)));
}

fn bench_scan_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized/scan");
    for n in [256usize, 1024, 4096] {
        let probes = dirs(n, 7);
        let query = dirs(1, 11).vector(0).to_vec();
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("full_f64", n), &n, |b, _| {
            b.iter(|| full_scan(black_box(&query), black_box(&probes), &mut out));
        });
        for bits in [4u8, 8, 12] {
            let quant = QuantizedBucket::train(&probes, bits, 1).unwrap();
            let mut lut = Vec::new();
            // LUT build + gather scan: the cost of a query's first QUANT
            // bucket (later buckets reuse the table).
            group.bench_with_input(BenchmarkId::new(&format!("lut{bits}"), n), &n, |b, _| {
                b.iter(|| {
                    quant.fill_lut(black_box(&query), &mut lut);
                    quant.scores(&lut, &mut out);
                });
            });
            // Gather scan alone: the marginal per-probe cost once the LUT
            // amortizes over a large bucket.
            quant.fill_lut(&query, &mut lut);
            group.bench_with_input(BenchmarkId::new(&format!("gather{bits}"), n), &n, |b, _| {
                b.iter(|| quant.scores(black_box(&lut), &mut out));
            });
        }
    }
    group.finish();
}

/// Scalar vs AVX2 on the 8-bit gather kernel (bit-identical outputs; this
/// measures the pure throughput gap of `lut_scan_u8`).
fn bench_scan_isa(c: &mut Criterion) {
    let mut isas = vec![simd::Isa::Scalar];
    if simd::avx2_supported() {
        isas.push(simd::Isa::Avx2);
    }
    let probes = dirs(4096, 7);
    let query = dirs(1, 11).vector(0).to_vec();
    let quant = QuantizedBucket::train(&probes, 8, 1).unwrap();
    let mut lut = Vec::new();
    quant.fill_lut(&query, &mut lut);
    let mut out = Vec::new();
    let mut group = c.benchmark_group("quantized/gather_isa");
    for &isa in &isas {
        group.bench_with_input(BenchmarkId::from_parameter(format!("{isa:?}")), &isa, |b, _| {
            let prev = simd::override_isa(isa);
            b.iter(|| quant.scores(black_box(&lut), &mut out));
            simd::override_isa(prev);
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_scan_vs_full, bench_scan_isa
}
criterion_main!(benches);
