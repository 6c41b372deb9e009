//! Engine persistence: save a preprocessed [`Lemp`] engine to disk and
//! load it back without repeating the preprocessing phase.
//!
//! At the paper's scale the probe side has millions of vectors; a service
//! that restarts should not redo the sort/normalize/bucketize pass (nor
//! lose the run configuration a deployment was tuned with). A persisted
//! engine image is the **intended input to `lemp serve`**: build it once
//! with `lemp index`, then every server boot loads it (via
//! [`Lemp::load`], wrapped by [`crate::DynamicLemp::from_engine`]), warms
//! it, and starts answering — preprocessing never runs at serve time. The
//! format is a small versioned binary layout:
//!
//! ```text
//! "LEMPENG1"                                magic
//! variant, sample_size, blsh_bits, blsh_eps,
//! tree_base, threads, l2ap_topk_threshold   run configuration
//! dim, total, bucket count                  bucket header
//! per bucket: count, ids, original rows     (lengths/directions/indexes
//!                                            are recomputed — indexes are
//!                                            lazy anyway, Sec. 4.2)
//! ```
//!
//! # The quantized section (version 3)
//!
//! Engines built with quantization ([`crate::LempBuilder::quantize`])
//! persist under the `LEMPENG3` magic: the byte-identical version-1
//! layout followed by one **quantized section** —
//!
//! ```text
//! quantize_bits                             u8, 1..=16
//! codebook flag (u8)                        0 = not trained yet (trains
//!                                           at the next warm)
//!   if present: bits (u8), sub_dim, k,      the engine's one codebook,
//!   m·4·k centroid doubles                  column-wise: subspace s,
//!                                           coordinate d, centroid c at
//!                                           (s·4 + d)·k + c; rows past the
//!                                           subspace width are zero
//! per bucket: present flag (u8);            0 = not encoded yet
//!   if present: m·n packed codes            (u8 per code ≤ 8 bits, u16
//!                                           above), subspace-major
//! ```
//!
//! A bucket's per-probe reconstruction errors and its distortion bound
//! `eps_b` are not stored: loading validates the codebook's shape,
//! finiteness and padding ([`crate::quant::PqCodebook::from_parts`]) and
//! every code index, and **recomputes** the errors and `eps_b` from the
//! full-precision directions
//! ([`crate::quant::QuantizedBucket::from_codes`]) — a tampered image can
//! corrupt the codebook but never the exactness contract.
//!
//! **Backward-compat rule**: an engine with quantization *off* writes the
//! `LEMPENG1` bytes unchanged — old readers keep working and images diff
//! clean — while readers accept every magic, so legacy images load into
//! quantization-aware builds. Version-2 images (`LEMPENG2`: per bucket a
//! present flag, then `bits`, `sub_dim`, `k`, `m·k·sub_dim` codebook
//! doubles and `m·n` codes) are validated as strictly as ever — a
//! corrupted section is still a [`PersistError::Format`] — and their
//! per-bucket codebooks are dropped: one engine codebook trains at load
//! and every bucket that carried codes is re-encoded against it, so the
//! query path never trains. The same rule applies to the
//! dynamic format (`LEMPDYN1`/`LEMPDYN2`/`LEMPDYN3`, see
//! [`crate::dynamic`]); sharded manifests inherit it through their
//! embedded per-shard dynamic images.
//!
//! All integers are little-endian `u64` (`u32` for ids), floats are IEEE
//! `f64` bits, so files are portable across platforms. Loading validates
//! everything a corrupted or hand-edited file could break: magic, variant
//! tags, finiteness, within-bucket length ordering, the inter-bucket
//! ordering the retrieval loops rely on, and exact trailing length.
//!
//! The sharded engine ([`crate::ShardedLemp`]) persists a `LEMPSHD2`
//! manifest — policy kind, shard count, length-band floors, then one
//! length-prefixed `LEMPDYN1` image per shard (see [`crate::shard`]).
//! **Legacy files keep loading unchanged**: single-shard `LEMPENG1`
//! images through [`Lemp::load`] and everything built on it (`lemp
//! serve`, [`crate::DynamicLemp::from_engine`]), and `LEMPSHD1`
//! manifests (immutable `Lemp` shards) through [`crate::ShardedLemp`]'s
//! reader; the formats share the `.eng` extension and are told apart by
//! magic ([`crate::shard::is_sharded_image`]).
//!
//! # The sharded store layout
//!
//! `lemp-store` composes durability with sharding on top of these
//! images. A **sharded store directory** is a root `MANIFEST` plus one
//! ordinary single-engine store directory per shard:
//!
//! ```text
//! store/
//!   MANIFEST             "LEMPSHM1": policy tag, shard count,
//!                        length-band floors, CRC-32 trailer
//!   shard-000/           an ordinary store directory:
//!     snap-<lsn>.eng       LEMPDYN1 snapshot image(s)
//!     CHECKPOINT           marker (checkpoint LSN + snapshot length/CRC)
//!     wal-<lsn>.log        LEMPWAL1 write-ahead segments
//!   shard-001/ …
//! ```
//!
//! Each shard logs exactly the edits routed to it, so a shard's WAL
//! replays onto its own snapshot independently of its siblings; the
//! manifest carries what per-shard images cannot — the routing policy
//! and band floors that make placement deterministic across restarts.
//! Recovery reassembles the full sharded engine and re-checks the
//! cross-shard invariants (disjoint global id spaces, equal
//! dimensionality).
//!
//! # The shared codec
//!
//! Every on-disk format in the LEMP family — `LEMPENG1`–`3`, `LEMPSHD1`/
//! `LEMPSHD2`, `LEMPDYN1` and the `lemp-store` durability files
//! (`LEMPWAL1` write-ahead segments, their `CHECKPOINT` marker, and the
//! `LEMPSHM1` root manifest) — is built from the same four primitives:
//! little-endian `u64`, IEEE-bits `f64`, and the truncation-aware
//! readers that turn a short file into a [`PersistError::Format`]
//! instead of a panic. They are exported here ([`write_u64`],
//! [`write_f64`], [`read_u64`], [`read_f64`], [`expect_eof`]) so
//! downstream crates encode with the *same* code rather than a copy that
//! could drift.
//!
//! # Hostile-input hardening
//!
//! Readers never allocate proportionally to a size field before the bytes
//! backing it have been read: counts coming from the file are capped before
//! `with_capacity`, products are computed with checked arithmetic, and the
//! dynamic engine's id-space table is allocated through `try_reserve` so an
//! absurd (corrupted) watermark surfaces as a [`PersistError::Format`], not
//! an allocator abort. The `persist_fuzz` integration test truncates and
//! bit-flips images at every offset to keep these paths panic-free.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use lemp_linalg::VectorStore;

use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::RunConfig;
use std::sync::Arc;

use crate::quant::{PqCodebook, QuantCodes, QuantizedBucket, MAX_QUANT_BITS, SUB_DIM};
use crate::variant::LempVariant;
use crate::Lemp;

const MAGIC: &[u8; 8] = b"LEMPENG1";
const MAGIC2: &[u8; 8] = b"LEMPENG2";
const MAGIC3: &[u8; 8] = b"LEMPENG3";

/// Errors raised by engine persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file is not a valid engine image.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn variant_tag(v: LempVariant) -> u8 {
    match v {
        LempVariant::L => 0,
        LempVariant::C => 1,
        LempVariant::I => 2,
        LempVariant::LC => 3,
        LempVariant::LI => 4,
        LempVariant::Ta => 5,
        LempVariant::Tree => 6,
        LempVariant::L2ap => 7,
        LempVariant::Blsh => 8,
    }
}

fn variant_from_tag(tag: u8) -> Result<LempVariant, PersistError> {
    Ok(match tag {
        0 => LempVariant::L,
        1 => LempVariant::C,
        2 => LempVariant::I,
        3 => LempVariant::LC,
        4 => LempVariant::LI,
        5 => LempVariant::Ta,
        6 => LempVariant::Tree,
        7 => LempVariant::L2ap,
        8 => LempVariant::Blsh,
        other => return Err(PersistError::Format(format!("unknown variant tag {other}"))),
    })
}

/// Writes a little-endian `u64` (the integer codec of every LEMP format).
///
/// # Errors
/// Propagates write failures.
pub fn write_u64<W: Write>(w: &mut W, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Writes an `f64` as its IEEE bits, little-endian (bit-exact round trip).
///
/// # Errors
/// Propagates write failures.
pub fn write_f64<W: Write>(w: &mut W, x: f64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a little-endian `u64`; `what` names the field in the truncation
/// error.
///
/// # Errors
/// [`PersistError::Format`] when the reader ends mid-word.
pub fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Format(format!("truncated while reading {what}")))?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads an `f64` written by [`write_f64`]; `what` names the field in the
/// truncation error.
///
/// # Errors
/// [`PersistError::Format`] when the reader ends mid-word.
pub fn read_f64<R: Read>(r: &mut R, what: &str) -> Result<f64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Format(format!("truncated while reading {what}")))?;
    Ok(f64::from_le_bytes(buf))
}

/// Writes a [`RunConfig`] (shared by the static- and dynamic-engine
/// formats).
pub(crate) fn write_config<W: Write>(w: &mut W, cfg: &RunConfig) -> Result<(), PersistError> {
    w.write_all(&[variant_tag(cfg.variant)])?;
    write_u64(w, cfg.sample_size as u64)?;
    write_u64(w, cfg.blsh_bits as u64)?;
    write_f64(w, cfg.blsh_eps)?;
    write_f64(w, cfg.tree_base)?;
    write_u64(w, cfg.threads as u64)?;
    write_f64(w, cfg.l2ap_topk_threshold)?;
    Ok(())
}

/// Reads a [`RunConfig`] written by [`write_config`].
pub(crate) fn read_config<R: Read>(r: &mut R) -> Result<RunConfig, PersistError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(|_| PersistError::Format("truncated variant tag".into()))?;
    let config = RunConfig {
        variant: variant_from_tag(tag[0])?,
        sample_size: read_u64(r, "sample_size")? as usize,
        blsh_bits: read_u64(r, "blsh_bits")? as usize,
        blsh_eps: read_f64(r, "blsh_eps")?,
        tree_base: read_f64(r, "tree_base")?,
        threads: (read_u64(r, "threads")? as usize).max(1),
        l2ap_topk_threshold: read_f64(r, "l2ap_topk_threshold")?,
        quantize_bits: 0,
        // A runtime tuning preference, deliberately not persisted: images
        // bake the tuner's per-bucket decisions instead.
        quantize_force: false,
    };
    if !config.blsh_eps.is_finite() || !config.tree_base.is_finite() {
        return Err(PersistError::Format("non-finite configuration value".into()));
    }
    Ok(config)
}

/// Writes the bucket section: dim, total, bucket count, then per bucket its
/// size, ids and original rows.
pub(crate) fn write_bucket_section<W: Write>(
    w: &mut W,
    buckets: &ProbeBuckets,
) -> Result<(), PersistError> {
    write_u64(w, buckets.dim() as u64)?;
    write_u64(w, buckets.total() as u64)?;
    write_u64(w, buckets.bucket_count() as u64)?;
    for bucket in buckets.buckets() {
        write_u64(w, bucket.len() as u64)?;
        for &id in &bucket.ids {
            w.write_all(&id.to_le_bytes())?;
        }
        for &x in bucket.origs.as_flat() {
            write_f64(w, x)?;
        }
    }
    Ok(())
}

/// Reads and validates a bucket section written by [`write_bucket_section`]:
/// within-bucket and inter-bucket length orderings, size consistency and
/// finite values are all enforced.
pub(crate) fn read_bucket_section<R: Read>(r: &mut R) -> Result<ProbeBuckets, PersistError> {
    let dim = read_u64(r, "dim")? as usize;
    if dim == 0 {
        return Err(PersistError::Format("dimensionality must be positive".into()));
    }
    let total = read_u64(r, "total")? as usize;
    let nbuckets = read_u64(r, "bucket count")? as usize;
    // Capacity hints are capped: a corrupted count must not translate into
    // a giant allocation before a single backing byte has been read (the
    // pushes below grow the vectors against the *actual* file content, so
    // truncation surfaces as a Format error long before memory pressure).
    const CAP_HINT: usize = 1 << 16;
    let mut buckets = Vec::with_capacity(nbuckets.min(1 << 20));
    let mut seen = 0usize;
    let mut prev_min = f64::INFINITY;
    for b in 0..nbuckets {
        let count = read_u64(r, "bucket size")? as usize;
        if count == 0 {
            return Err(PersistError::Format(format!("bucket {b} is empty")));
        }
        seen = seen
            .checked_add(count)
            .ok_or_else(|| PersistError::Format("bucket sizes overflow".into()))?;
        if seen > total {
            return Err(PersistError::Format(format!(
                "bucket sizes exceed declared total {total}"
            )));
        }
        let mut ids = Vec::with_capacity(count.min(CAP_HINT));
        let mut buf4 = [0u8; 4];
        for _ in 0..count {
            r.read_exact(&mut buf4)
                .map_err(|_| PersistError::Format("truncated id section".into()))?;
            ids.push(u32::from_le_bytes(buf4));
        }
        let values = count
            .checked_mul(dim)
            .ok_or_else(|| PersistError::Format("bucket size × dim overflows".into()))?;
        let mut flat = Vec::with_capacity(values.min(CAP_HINT));
        for _ in 0..values {
            flat.push(read_f64(r, "vector data")?);
        }
        let origs = VectorStore::from_flat(flat, dim)
            .map_err(|e| PersistError::Format(format!("bucket {b}: {e}")))?;
        // Validate the ordering invariants *before* handing the rows to the
        // bucket constructor (its internal debug assertions assume trusted
        // callers; this input is a file).
        let lengths = origs.lengths();
        if lengths.windows(2).any(|w| w[0] < w[1]) {
            return Err(PersistError::Format(format!(
                "bucket {b}: rows not sorted by decreasing length"
            )));
        }
        let bucket = Bucket::from_sorted_rows(ids, origs);
        if bucket.max_len > prev_min {
            return Err(PersistError::Format(format!(
                "bucket {b}: length range overlaps the previous bucket"
            )));
        }
        prev_min = bucket.min_len;
        buckets.push(bucket);
    }
    if seen != total {
        return Err(PersistError::Format(format!(
            "declared total {total} but buckets hold {seen}"
        )));
    }
    Ok(ProbeBuckets::from_parts(dim, total, buckets))
}

/// Which quantized section follows an image's bucket section, by magic
/// (version-1 images carry none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuantSection {
    /// Version 2 (legacy): per-bucket codebooks.
    PerBucket,
    /// Version 3: one engine codebook, per-bucket codes.
    Shared,
}

/// Writes the version-3 quantized section (see the module docs): the
/// configured code width, the engine codebook when trained, then per bucket
/// a present flag and its packed codes. Distortion bounds are deliberately
/// *not* stored; readers recompute them from the directions.
pub(crate) fn write_quant_section<W: Write>(
    w: &mut W,
    quantize_bits: u8,
    buckets: &ProbeBuckets,
) -> Result<(), PersistError> {
    w.write_all(&[quantize_bits])?;
    match buckets.codebook() {
        None => w.write_all(&[0u8])?,
        Some(cb) => {
            w.write_all(&[1u8, cb.bits()])?;
            write_u64(w, cb.sub_dim() as u64)?;
            write_u64(w, cb.k() as u64)?;
            for &x in cb.centroids() {
                write_f64(w, x)?;
            }
        }
    }
    for bucket in buckets.buckets() {
        let Some(q) = &bucket.indexes.quant else {
            w.write_all(&[0u8])?;
            continue;
        };
        w.write_all(&[1u8])?;
        match q.codes() {
            QuantCodes::U8(codes) => w.write_all(codes)?,
            QuantCodes::U16(codes) => {
                for &c in codes {
                    w.write_all(&c.to_le_bytes())?;
                }
            }
        }
    }
    Ok(())
}

/// Readers never pre-allocate more than this many elements from a size
/// field; longer runs grow as their bytes actually arrive.
const CAP_HINT: usize = 1 << 16;

fn read_byte<R: Read>(r: &mut R, what: impl FnOnce() -> String) -> Result<u8, PersistError> {
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte).map_err(|_| PersistError::Format(format!("truncated {}", what())))?;
    Ok(byte[0])
}

/// A present flag: 0 or 1, anything else is corruption.
fn read_flag<R: Read>(r: &mut R, what: &str) -> Result<bool, PersistError> {
    match read_byte(r, || what.to_string())? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(PersistError::Format(format!("{what} {other} is neither 0 nor 1"))),
    }
}

fn read_bits<R: Read>(r: &mut R, what: &str) -> Result<u8, PersistError> {
    let bits = read_byte(r, || what.to_string())?;
    if bits == 0 || bits > MAX_QUANT_BITS {
        return Err(PersistError::Format(format!("{what} {bits} outside 1..=16")));
    }
    Ok(bits)
}

/// `count` packed codes of the given width (one byte up to 8 bits, two
/// little-endian bytes above).
fn read_codes<R: Read>(
    r: &mut R,
    bits: u8,
    count: usize,
    b: usize,
) -> Result<QuantCodes, PersistError> {
    let truncated = || PersistError::Format(format!("bucket {b}: truncated quant codes"));
    if bits <= 8 {
        let mut v = Vec::with_capacity(count.min(CAP_HINT));
        let mut byte = [0u8; 1];
        for _ in 0..count {
            r.read_exact(&mut byte).map_err(|_| truncated())?;
            v.push(byte[0]);
        }
        Ok(QuantCodes::U8(v))
    } else {
        let mut v = Vec::with_capacity(count.min(CAP_HINT));
        let mut two = [0u8; 2];
        for _ in 0..count {
            r.read_exact(&mut two).map_err(|_| truncated())?;
            v.push(u16::from_le_bytes(two));
        }
        Ok(QuantCodes::U16(v))
    }
}

fn read_doubles<R: Read>(r: &mut R, count: usize, what: &str) -> Result<Vec<f64>, PersistError> {
    let mut v = Vec::with_capacity(count.min(CAP_HINT));
    for _ in 0..count {
        v.push(read_f64(r, what)?);
    }
    Ok(v)
}

/// Reads and validates the quantized section `format` names, returning
/// the configured code width. A version-3 section attaches the engine
/// codebook and every bucket's codes (shape/code validation and the `eps`
/// recomputation happen in [`PqCodebook::from_parts`] and
/// [`QuantizedBucket::from_codes`]). A legacy version-2 section is
/// validated just as strictly, then its per-bucket codebooks are dropped:
/// one engine codebook trains here, at load, and every bucket that carried
/// codes is re-encoded against it — so the query path finds the same
/// buckets encoded as before and never trains.
/// A corrupted section becomes a [`PersistError::Format`], never a panic
/// or an oversized allocation.
pub(crate) fn read_quant_section<R: Read>(
    r: &mut R,
    buckets: &mut ProbeBuckets,
    format: QuantSection,
) -> Result<u8, PersistError> {
    let quantize_bits = read_bits(r, "quantize_bits")?;
    match format {
        QuantSection::PerBucket => {
            for b in skip_legacy_quant_buckets(r, buckets)? {
                buckets.ensure_quant(b, quantize_bits);
            }
        }
        QuantSection::Shared => read_shared_quant(r, buckets)?,
    }
    Ok(quantize_bits)
}

fn read_shared_quant<R: Read>(r: &mut R, buckets: &mut ProbeBuckets) -> Result<(), PersistError> {
    let dim = buckets.dim();
    let codebook = if read_flag(r, "codebook flag")? {
        let bits = read_bits(r, "codebook bits")?;
        let sub_dim = read_u64(r, "codebook sub_dim")? as usize;
        let k = read_u64(r, "codebook k")? as usize;
        // Shape sanity *before* sizing any read: a corrupted sub_dim or k
        // must not drive a huge (or zero-divisor) element count.
        if dim == 0 || sub_dim != SUB_DIM.min(dim) {
            return Err(PersistError::Format(format!(
                "codebook sub_dim {sub_dim} invalid for dim {dim}"
            )));
        }
        if k == 0 || k > (1usize << bits) {
            return Err(PersistError::Format(format!("codebook k {k} invalid for bits {bits}")));
        }
        let count = dim
            .div_ceil(sub_dim)
            .checked_mul(SUB_DIM * k)
            .ok_or_else(|| PersistError::Format("codebook size overflows".into()))?;
        let centroids = read_doubles(r, count, "codebook centroid")?;
        let cb = PqCodebook::from_parts(bits, sub_dim, k, dim, centroids)
            .map_err(PersistError::Format)?;
        Some(Arc::new(cb))
    } else {
        None
    };
    for (b, bucket) in buckets.buckets_vec_mut().iter_mut().enumerate() {
        if !read_flag(r, &format!("bucket {b}: quant flag"))? {
            continue;
        }
        let Some(cb) = &codebook else {
            return Err(PersistError::Format(format!("bucket {b}: codes without a codebook")));
        };
        let count = cb.subspaces() * bucket.len();
        let codes = read_codes(r, cb.bits(), count, b)?;
        let q = QuantizedBucket::from_codes(Arc::clone(cb), codes, &bucket.dirs)
            .map_err(|e| PersistError::Format(format!("bucket {b}: {e}")))?;
        bucket.indexes.quant = Some(q);
    }
    buckets.set_codebook(codebook);
    Ok(())
}

/// Validates a legacy version-2 section — per bucket a present flag and,
/// when present, `bits`, `sub_dim`, `k`, `m·k·sub_dim` codebook doubles and
/// `m·n` codes — with the checks that format always had, and discards it.
/// Returns the buckets that carried codes.
fn skip_legacy_quant_buckets<R: Read>(
    r: &mut R,
    buckets: &ProbeBuckets,
) -> Result<Vec<usize>, PersistError> {
    let mut present = Vec::new();
    for (b, bucket) in buckets.buckets().iter().enumerate() {
        if !read_flag(r, &format!("bucket {b}: quant flag"))? {
            continue;
        }
        let bits = read_bits(r, &format!("bucket {b}: quant bits"))?;
        let sub_dim = read_u64(r, "quant sub_dim")? as usize;
        let k = read_u64(r, "quant k")? as usize;
        let (n, dim) = (bucket.len(), bucket.dirs.dim());
        if sub_dim == 0 || sub_dim != SUB_DIM.min(dim) {
            return Err(PersistError::Format(format!(
                "bucket {b}: quant sub_dim {sub_dim} invalid for dim {dim}"
            )));
        }
        if k == 0 || k > n || k > (1usize << bits) {
            return Err(PersistError::Format(format!(
                "bucket {b}: quant k {k} invalid for {n} probes"
            )));
        }
        let m = dim.div_ceil(sub_dim);
        let codebook = read_doubles(r, m * k * sub_dim, "quant codebook")?;
        if codebook.iter().any(|v| !v.is_finite()) {
            return Err(PersistError::Format(format!("bucket {b}: non-finite codebook value")));
        }
        let codes = read_codes(r, bits, m * n, b)?;
        if let Some(bad) = (0..codes.len()).map(|i| codes.get(i)).find(|&c| c >= k) {
            return Err(PersistError::Format(format!("bucket {b}: quant code {bad} ≥ k {k}")));
        }
        present.push(b);
    }
    Ok(present)
}

/// Reports trailing bytes after a complete image as a format error.
///
/// # Errors
/// [`PersistError::Format`] when the reader still holds bytes;
/// [`PersistError::Io`] when probing for them fails.
pub fn expect_eof<R: Read>(r: &mut R) -> Result<(), PersistError> {
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(PersistError::Format("trailing bytes after engine image".into()));
    }
    Ok(())
}

impl Lemp {
    /// Serializes the engine (run configuration + preprocessed buckets) to
    /// a writer. Lazily built indexes are *not* stored — they rebuild on
    /// first use after loading, exactly as after a fresh preprocessing.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), PersistError> {
        let mut w = BufWriter::new(writer);
        // Backward-compat rule: quantization off → byte-identical LEMPENG1
        // image; on → LEMPENG3 with the quantized section appended.
        let quantized = self.config.quantize_bits > 0;
        w.write_all(if quantized { MAGIC3 } else { MAGIC })?;
        write_config(&mut w, &self.config)?;
        write_bucket_section(&mut w, &self.buckets)?;
        if quantized {
            write_quant_section(&mut w, self.config.quantize_bits, &self.buckets)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Saves the engine to a file (see [`Lemp::write_to`]).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        self.write_to(File::create(path)?)
    }

    /// Deserializes an engine written by [`Lemp::write_to`].
    ///
    /// # Errors
    /// [`PersistError::Format`] on bad magic, unknown variant tags,
    /// non-finite values, broken length orderings, inconsistent totals, or
    /// trailing bytes; [`PersistError::Io`] on read failures.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, PersistError> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| PersistError::Format("file too short for magic".into()))?;
        let quantized = match &magic {
            m if m == MAGIC => None,
            m if m == MAGIC2 => Some(QuantSection::PerBucket),
            m if m == MAGIC3 => Some(QuantSection::Shared),
            _ => return Err(PersistError::Format(format!("bad magic {magic:?}"))),
        };
        let mut config = read_config(&mut r)?;
        let mut buckets = read_bucket_section(&mut r)?;
        if let Some(format) = quantized {
            config.quantize_bits = read_quant_section(&mut r, &mut buckets, format)?;
        }
        expect_eof(&mut r)?;
        Ok(Lemp::from_parts(buckets, config))
    }

    /// Loads an engine from a file (see [`Lemp::read_from`]).
    ///
    /// # Errors
    /// Same conditions as [`Lemp::read_from`].
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        Self::read_from(File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LempVariant;
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_data::synthetic::GeneratorConfig;

    fn fixture() -> (VectorStore, VectorStore) {
        let q = GeneratorConfig::gaussian(40, 8, 1.0).generate(61);
        let p = GeneratorConfig::gaussian(200, 8, 1.5).generate(62);
        (q, p)
    }

    fn roundtrip(engine: &Lemp) -> Lemp {
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        Lemp::read_from(&buf[..]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_results_and_config() {
        let (q, p) = fixture();
        let mut original = Lemp::builder()
            .variant(LempVariant::LI)
            .sample_size(7)
            .threads(2)
            .tree_base(1.4)
            .blsh(16, 0.05)
            .build(&p);
        let mut loaded = roundtrip(&original);
        assert_eq!(loaded.config(), original.config());
        assert_eq!(loaded.buckets().bucket_count(), original.buckets().bucket_count());
        assert_eq!(loaded.buckets().total(), original.buckets().total());

        let a = original.above_theta(&q, 1.2);
        let b = loaded.above_theta(&q, 1.2);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
        let ta = original.row_top_k(&q, 5);
        let tb = loaded.row_top_k(&q, 5);
        assert!(topk_equivalent(&ta.lists, &tb.lists, 0.0));
    }

    #[test]
    fn roundtrip_after_queries_drops_indexes_but_not_answers() {
        let (q, p) = fixture();
        let mut original = Lemp::builder().variant(LempVariant::I).sample_size(5).build(&p);
        let before = original.above_theta(&q, 1.0); // builds indexes lazily
        let mut loaded = roundtrip(&original);
        let after = loaded.above_theta(&q, 1.0);
        assert_eq!(canonical_pairs(&before.entries), canonical_pairs(&after.entries));
        // the loaded run had to rebuild its indexes
        assert!(after.stats.indexes_built > 0);
    }

    #[test]
    fn file_roundtrip() {
        let (_, p) = fixture();
        let engine = Lemp::builder().build(&p);
        let path = std::env::temp_dir().join(format!("lemp-persist-{}.eng", std::process::id()));
        engine.save(&path).unwrap();
        let loaded = Lemp::load(&path).unwrap();
        assert_eq!(loaded.buckets().total(), p.len());
        std::fs::remove_file(&path).ok();
        assert!(matches!(Lemp::load(&path), Err(PersistError::Io(_))));
    }

    #[test]
    fn empty_engine_roundtrips() {
        let p = VectorStore::empty(6).unwrap();
        let engine = Lemp::builder().build(&p);
        let loaded = roundtrip(&engine);
        assert_eq!(loaded.buckets().bucket_count(), 0);
        assert_eq!(loaded.buckets().dim(), 6);
    }

    #[test]
    fn rejects_corrupted_images() {
        let (_, p) = fixture();
        let engine = Lemp::builder().build(&p);
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();

        // bad magic
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Lemp::read_from(&bad[..]), Err(PersistError::Format(_))));

        // unknown variant tag
        let mut bad = buf.clone();
        bad[8] = 200;
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("variant tag"));

        // truncation at every structural boundary
        for cut in [4usize, 9, 40, 64, buf.len() - 1] {
            let bad = &buf[..cut.min(buf.len() - 1)];
            assert!(
                matches!(Lemp::read_from(bad), Err(PersistError::Format(_))),
                "truncation at {cut} not detected"
            );
        }

        // trailing garbage
        let mut bad = buf.clone();
        bad.push(7);
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn quantized_roundtrip_restores_codebooks_without_retraining() {
        let (q, p) = fixture();
        let mut original =
            Lemp::builder().variant(LempVariant::LI).sample_size(7).quantize(8).build(&p);
        original.warm(&q, crate::WarmGoal::TopK(3)); // trains codebooks
        assert!(
            original.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
            "warm with quantize=8 must train every bucket"
        );
        let mut buf = Vec::new();
        original.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LEMPENG3");
        let loaded = Lemp::read_from(&buf[..]).unwrap();
        assert_eq!(loaded.config().quantize_bits, 8);
        assert!(loaded.buckets().codebook().is_some());
        assert_eq!(loaded.buckets().codebook(), original.buckets().codebook());
        for (a, b) in loaded.buckets().buckets().iter().zip(original.buckets().buckets()) {
            assert_eq!(a.indexes.quant, b.indexes.quant, "codebook/codes/eps must round-trip");
        }
        assert!(loaded.memory_usage().quantized_bytes > 0);
    }

    #[test]
    fn quantization_off_keeps_the_legacy_magic() {
        let (_, p) = fixture();
        let engine = Lemp::builder().build(&p);
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LEMPENG1");
        assert_eq!(Lemp::read_from(&buf[..]).unwrap().config().quantize_bits, 0);
    }

    #[test]
    fn quantized_section_rejects_corruption() {
        let (q, p) = fixture();
        let mut engine = Lemp::builder().sample_size(5).quantize(8).build(&p);
        engine.warm(&q, crate::WarmGoal::Above(1.0));
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();

        // Truncation anywhere inside the quantized section.
        let legacy_len = {
            let mut legacy = Vec::new();
            Lemp::builder().build(&p).write_to(&mut legacy).unwrap();
            legacy.len()
        };
        assert!(buf.len() > legacy_len, "quantized image must carry extra bytes");
        for cut in [legacy_len, legacy_len + 1, legacy_len + 9, buf.len() - 1] {
            assert!(
                matches!(Lemp::read_from(&buf[..cut]), Err(PersistError::Format(_))),
                "quant-section truncation at {cut} not detected"
            );
        }

        // An out-of-range quantize_bits word (the section's first byte).
        let mut bad = buf.clone();
        bad[legacy_len] = 99;
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("1..=16"), "unexpected error: {err}");

        // Bit-flip a code byte to an out-of-range index: the *last* byte
        // of the image is a code (codes close each bucket's record).
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() = u8::MAX;
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("≥ k"), "unexpected error: {err}");

        // Tampering a codebook double keeps the image loadable (any finite
        // value is a legal centroid) but the recomputed eps still covers
        // the damage, so answers stay exact.
        let mut bent = buf.clone();
        let cb_at = legacy_len + 1 + 2 + 16; // width, codebook flag, bits, sub_dim, k
        bent[cb_at..cb_at + 8].copy_from_slice(&7.5f64.to_le_bytes());
        let mut loaded = Lemp::read_from(&bent[..]).unwrap();
        loaded.warm(&q, crate::WarmGoal::Above(1.0));
        let mut fresh = Lemp::builder().sample_size(5).build(&p);
        let a = loaded.above_theta(&q, 1.2);
        let b = fresh.above_theta(&q, 1.2);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
    }

    #[test]
    fn rejects_tampered_orderings() {
        let p = VectorStore::from_rows(&[
            vec![4.0, 0.0],
            vec![3.0, 0.0],
            vec![2.0, 0.0],
            vec![1.0, 0.0],
        ])
        .unwrap();
        let policy = crate::BucketPolicy { min_bucket: 2, length_ratio: 0.9, ..Default::default() };
        let engine = Lemp::builder().policy(policy).build(&p);
        assert!(engine.buckets().bucket_count() >= 2, "fixture needs two buckets");
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        // Swap the first two f64 rows of the first bucket's data section to
        // break the within-bucket ordering: locate it right after the first
        // bucket's header + ids. Header: 8 magic + 1 tag + 5*8 cfg words +
        // 8 eps/base... simpler: decode offsets structurally.
        let ids_start = 8 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8; // magic..bucket0 count
        let count0 = u64::from_le_bytes(buf[ids_start - 8..ids_start].try_into().unwrap()) as usize;
        let data_start = ids_start + 4 * count0;
        let row = 2 * 8; // dim 2 rows
        let (a, b) = (data_start, data_start + row);
        let tmp: Vec<u8> = buf[a..a + row].to_vec();
        buf.copy_within(b..b + row, a);
        buf[b..b + row].copy_from_slice(&tmp);
        let err = Lemp::read_from(&buf[..]).unwrap_err();
        assert!(
            err.to_string().contains("sorted") || err.to_string().contains("overlaps"),
            "tampered ordering accepted: {err}"
        );
    }
}
