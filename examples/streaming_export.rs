//! Streaming retrieval: bounded-memory Above-θ over a large query matrix.
//!
//! The open-IE workload of the paper asks for *all* high-confidence facts
//! — at permissive thresholds that result set dwarfs the factor matrices.
//! This example runs a chunked request over an IE-SVD-like dataset through
//! `Engine::execute_stream`, writing each block's entries straight to a
//! CSV file instead of accumulating them, and reports the peak in-memory
//! entry count next to the total written. A monolithic run validates the
//! output.
//!
//! Run with: `cargo run --release --example streaming_export`

use lemp::baselines::export::{read_entries_csv, write_entries_csv, write_entry_rows};
use lemp::baselines::types::canonical_pairs;
use lemp::core::WarmGoal;
use lemp::data::datasets::Dataset;
use lemp::{Engine, Lemp, QueryRequest, RunStats};

fn main() {
    let spec = Dataset::IeSvd.spec().scaled(0.004);
    let (queries, probes) = spec.generate(11);
    let theta = 2.0;
    let chunk_size = 256;
    println!(
        "{}: {} queries × {} probes, θ = {theta}, chunks of {chunk_size}\n",
        spec.name,
        queries.len(),
        probes.len()
    );

    let path = std::env::temp_dir().join(format!("lemp-streaming-{}.csv", std::process::id()));
    let file = std::fs::File::create(&path).expect("writable temp dir");
    let mut writer = std::io::BufWriter::new(file);

    // Stream: each block's entries go to disk, memory stays bounded.
    use std::io::Write;
    write_entries_csv(&mut writer, &[]).unwrap(); // the header
    let mut engine = Lemp::builder().build(&probes);
    let warmed = engine.warm(&queries, WarmGoal::Above(theta));
    let plan = engine.plan(&QueryRequest::above_theta(theta).chunked(chunk_size));
    let mut total = 0usize;
    let mut peak_in_memory = 0usize;
    let mut stats = RunStats::default();
    engine.execute_stream(&plan, &queries, &mut engine.query_scratch(), &mut |_, block| {
        let entries = block.entries().expect("Above-θ blocks hold entries");
        peak_in_memory = peak_in_memory.max(entries.len());
        write_entry_rows(&mut writer, entries).unwrap();
        total += entries.len();
        stats.merge(&block.stats);
    });
    writer.flush().unwrap();

    println!("wrote {total} entries to {}", path.display());
    println!(
        "peak in-memory entries: {peak_in_memory} (vs {total} total — {:.1}× smaller)",
        total as f64 / peak_in_memory.max(1) as f64
    );
    println!(
        "stats: {} candidates/query, {} buckets, {} indexes built at warm-up, {:.3}s total",
        stats.counters.candidates_per_query() as u64,
        stats.bucket_count,
        warmed.indexes_built,
        stats.counters.total_seconds()
    );

    // Validate against a monolithic run through the export round-trip.
    let monolithic = engine.above_theta(&queries, theta);
    let streamed = read_entries_csv(std::fs::File::open(&path).expect("file just written"))
        .expect("well-formed csv");
    assert_eq!(
        canonical_pairs(&streamed),
        canonical_pairs(&monolithic.entries),
        "streamed and monolithic results differ"
    );
    println!("\nstreamed output matches the monolithic run entry-for-entry.");

    // The same writers serve monolithic results too.
    let mut buf = Vec::new();
    write_entries_csv(&mut buf, &monolithic.entries).unwrap();
    println!("(export::write_entries_csv produced {} bytes for the same result)", buf.len());

    std::fs::remove_file(&path).ok();
}
