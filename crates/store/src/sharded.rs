//! The sharded store: one WAL + snapshot directory per shard plus a root
//! manifest, and the [`ShardedDurableEngine`] that keeps a
//! [`ShardedLemp`] and its per-shard logs in step.
//!
//! # Directory layout
//!
//! ```text
//! store/
//!   MANIFEST               LEMPSHM1: policy tag + shard count + routing bands + CRC32
//!   shard-000/             an ordinary single-engine store (see [`crate::store`])
//!     snap-<lsn>.eng
//!     CHECKPOINT
//!     wal-<lsn>.log
//!   shard-001/
//!   …
//! ```
//!
//! Each shard directory is a complete, independently recoverable store for
//! that shard's [`lemp_core::DynamicLemp`]. The manifest holds only what
//! the shards cannot know about each other: the routing policy, the shard
//! count, and the fixed length bands (for `LengthBanded` routing) — the
//! inputs [`lemp_core::ShardedLemp::from_shards`] needs to reassemble the
//! logical engine.
//!
//! # Why per-shard logs compose
//!
//! Edits are routed deterministically: an insert's global id and owning
//! shard are fixed by the policy *before* anything is logged, so each
//! shard's WAL records exactly the edits that shard applied, in its own
//! strictly sequential LSN order. Shard logs never need cross-shard
//! ordering — global-id uniqueness is a property of the routing function,
//! not of log interleaving — so recovery is embarrassingly parallel in
//! structure: recover each shard directory independently
//! ([`crate::store`]'s snapshot + replay, with the **routed** id-space
//! rule: a shard's log legally skips the ids routed to its siblings, and
//! replay pads those gaps as dead ids), then reassemble and cross-check
//! the shards' id spaces are globally disjoint.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use lemp_core::shard::ShardPolicyKind;
use lemp_core::{ShardedLemp, WarmGoal, WarmReport};
use lemp_linalg::VectorStore;

use crate::crc::crc32;
use crate::store::{
    list_snapshots, recover_inner, write_marker, write_snapshot, CompactFault, CompactionReport,
    IdSpace, RecoveryReport, StoreOptions,
};
use crate::wal::{list_segments, sync_dir, WalRecord, WalStats, WalWriter};
use crate::StoreError;

/// Root manifest file name.
pub(crate) const MANIFEST: &str = "MANIFEST";
/// Root manifest magic bytes.
const MANIFEST_MAGIC: &[u8; 8] = b"LEMPSHM1";

/// Subdirectory name of shard `i`.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// What the root manifest records: the routing inputs
/// [`ShardedLemp::from_shards`] needs beyond the shard images themselves.
#[derive(Debug, Clone, PartialEq)]
struct Manifest {
    kind: ShardPolicyKind,
    shards: usize,
    bands: Vec<f64>,
}

fn kind_tag(kind: ShardPolicyKind) -> u8 {
    match kind {
        ShardPolicyKind::RoundRobin => 0,
        ShardPolicyKind::LengthBanded => 1,
        ShardPolicyKind::Explicit => 2,
    }
}

fn kind_from_tag(tag: u8) -> Option<ShardPolicyKind> {
    match tag {
        0 => Some(ShardPolicyKind::RoundRobin),
        1 => Some(ShardPolicyKind::LengthBanded),
        2 => Some(ShardPolicyKind::Explicit),
        _ => None,
    }
}

/// Writes the root manifest atomically (tmp + fsync + rename + dir fsync).
fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(32 + manifest.bands.len() * 8);
    bytes.extend_from_slice(MANIFEST_MAGIC);
    bytes.push(kind_tag(manifest.kind));
    bytes.extend_from_slice(&(manifest.shards as u64).to_le_bytes());
    bytes.extend_from_slice(&(manifest.bands.len() as u64).to_le_bytes());
    for band in &manifest.bands {
        bytes.extend_from_slice(&band.to_le_bytes());
    }
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(MANIFEST))?;
    sync_dir(dir)?;
    Ok(())
}

/// Reads and validates the root manifest.
fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::Missing(format!(
                "{} holds no {MANIFEST} — not a sharded store",
                dir.display()
            )));
        }
        Err(e) => return Err(e.into()),
    }
    let corrupt =
        |offset: u64, detail: String| StoreError::Corrupt { path: path.clone(), offset, detail };
    if bytes.len() < 29 {
        return Err(corrupt(0, format!("manifest holds {} bytes, needs at least 29", bytes.len())));
    }
    if &bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt(0, format!("bad manifest magic {:?}", &bytes[..8])));
    }
    let crc_at = bytes.len() - 4;
    let crc = u32::from_le_bytes(bytes[crc_at..].try_into().expect("4-byte slice"));
    if crc32(&bytes[..crc_at]) != crc {
        return Err(corrupt(crc_at as u64, "manifest fails its CRC".into()));
    }
    let kind = kind_from_tag(bytes[8])
        .ok_or_else(|| corrupt(8, format!("unknown policy tag {}", bytes[8])))?;
    let shards = u64::from_le_bytes(bytes[9..17].try_into().expect("8-byte slice"));
    if shards == 0 || shards > 1 << 16 {
        return Err(corrupt(9, format!("implausible shard count {shards}")));
    }
    let shards = shards as usize;
    let band_count = u64::from_le_bytes(bytes[17..25].try_into().expect("8-byte slice"));
    let expected = if kind == ShardPolicyKind::LengthBanded { shards - 1 } else { 0 };
    if band_count as usize != expected {
        return Err(corrupt(
            17,
            format!(
                "policy {kind:?} over {shards} shards needs {expected} bands, found {band_count}"
            ),
        ));
    }
    if bytes.len() != 25 + expected * 8 + 4 {
        return Err(corrupt(
            25,
            format!("manifest holds {} bytes, layout needs {}", bytes.len(), 25 + expected * 8 + 4),
        ));
    }
    let mut bands = Vec::with_capacity(expected);
    for i in 0..expected {
        let at = 25 + i * 8;
        let band = f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"));
        if band.is_nan() {
            return Err(corrupt(at as u64, format!("band {i} is NaN")));
        }
        if let Some(&prev) = bands.last() {
            if band > prev {
                return Err(corrupt(
                    at as u64,
                    format!("band {i} ({band}) exceeds band {} ({prev})", i - 1),
                ));
            }
        }
        bands.push(band);
    }
    Ok(Manifest { kind, shards, bands })
}

/// What recovering a sharded store learned, shard by shard.
#[derive(Debug, Clone)]
pub struct ShardedRecoveryReport {
    /// Per-shard recovery reports, indexed by shard.
    pub shards: Vec<RecoveryReport>,
}

impl ShardedRecoveryReport {
    /// Total records replayed across all shards.
    pub fn records_replayed(&self) -> u64 {
        self.shards.iter().map(|r| r.records_replayed).sum()
    }

    /// Total live probes across all shards.
    pub fn live_probes(&self) -> usize {
        self.shards.iter().map(|r| r.live_probes).sum()
    }

    /// Torn-tail diagnostics, `(shard, detail)` for each shard whose last
    /// segment a crash cut mid-record.
    pub fn torn_tails(&self) -> Vec<(usize, String)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.torn_tail.clone().map(|d| (i, d)))
            .collect()
    }
}

/// Whether `dir` holds a sharded store (a root `MANIFEST` is present).
/// The single-store analogue is [`crate::DurableEngine::exists`]; the CLI
/// dispatches `recover`/`compact`/`serve durable=` on this distinction.
pub fn is_sharded_store(dir: &Path) -> bool {
    dir.join(MANIFEST).is_file()
}

/// **Sharded crash recovery, read-only**: reads the root manifest,
/// recovers every shard directory independently (snapshot + WAL-tail
/// replay under the routed id-space rule), then reassembles the full
/// [`ShardedLemp`] — which cross-checks that the shards' live id spaces
/// are globally disjoint and dimensionality agrees.
///
/// # Errors
/// Everything [`crate::recover`] raises per shard, plus
/// [`StoreError::Missing`]/[`StoreError::Corrupt`] for a missing or broken
/// manifest and [`StoreError::Snapshot`] when the reassembled shards
/// violate a cross-shard invariant.
pub fn recover_sharded(dir: &Path) -> Result<(ShardedLemp, ShardedRecoveryReport), StoreError> {
    let manifest = read_manifest(dir)?;
    let mut engines = Vec::with_capacity(manifest.shards);
    let mut reports = Vec::with_capacity(manifest.shards);
    for s in 0..manifest.shards {
        let recovered = recover_inner(&dir.join(shard_dir_name(s)), IdSpace::Routed)?;
        engines.push(recovered.engine);
        reports.push(recovered.report);
    }
    let engine = ShardedLemp::from_shards(engines, manifest.kind, manifest.bands)?;
    Ok((engine, ShardedRecoveryReport { shards: reports }))
}

/// A [`ShardedLemp`] whose edits are write-ahead logged **per shard**:
/// every insert is routed first (global id + owning shard are pure
/// functions of the engine state), appended to the owner's log, then
/// applied; removals and rebuilds forward the same way. Queries delegate
/// through [`lemp_core::Engine`], so the warmed fan-out/merge hot path is
/// untouched.
#[derive(Debug)]
pub struct ShardedDurableEngine {
    dir: PathBuf,
    engine: ShardedLemp,
    wals: Vec<WalWriter>,
    snapshot_lsns: Vec<u64>,
    options: StoreOptions,
}

impl ShardedDurableEngine {
    /// Initializes a sharded store in `dir` (created if needed) around an
    /// existing engine: writes the root manifest, then per shard the seed
    /// snapshot at LSN 0, the marker, and the first segment. Fails if
    /// `dir` already holds a store.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures; an error with a clear
    /// message when a store is already present.
    pub fn create(
        dir: &Path,
        engine: ShardedLemp,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        if is_sharded_store(dir) || crate::DurableEngine::exists(dir) {
            return Err(StoreError::Missing(format!(
                "{} already holds a store (open it instead of re-creating)",
                dir.display()
            )));
        }
        let manifest = Manifest {
            kind: engine.policy_kind(),
            shards: engine.shard_count(),
            bands: engine.bands().to_vec(),
        };
        write_manifest(dir, &manifest)?;
        let mut wals = Vec::with_capacity(engine.shard_count());
        for (s, shard) in engine.shards().iter().enumerate() {
            let shard_dir = dir.join(shard_dir_name(s));
            std::fs::create_dir_all(&shard_dir)?;
            let marker = write_snapshot(&shard_dir, shard, 0)?;
            write_marker(&shard_dir, marker)?;
            wals.push(WalWriter::create(&shard_dir, 0, options.sync, options.segment_bytes)?);
        }
        let snapshot_lsns = vec![0; engine.shard_count()];
        Ok(Self { dir: dir.to_path_buf(), engine, wals, snapshot_lsns, options })
    }

    /// Recovers the sharded store in `dir` and reopens every shard for
    /// appending: each shard's best snapshot is loaded, its WAL tail
    /// replayed, a torn tail truncated, and its writer positioned at the
    /// next LSN.
    ///
    /// # Errors
    /// Everything [`recover_sharded`] raises, plus write failures while
    /// truncating or creating active segments.
    pub fn open(
        dir: &Path,
        options: StoreOptions,
    ) -> Result<(Self, ShardedRecoveryReport), StoreError> {
        let manifest = read_manifest(dir)?;
        let mut engines = Vec::with_capacity(manifest.shards);
        let mut reports = Vec::with_capacity(manifest.shards);
        let mut wals = Vec::with_capacity(manifest.shards);
        let mut snapshot_lsns = Vec::with_capacity(manifest.shards);
        for s in 0..manifest.shards {
            let shard_dir = dir.join(shard_dir_name(s));
            let recovered = recover_inner(&shard_dir, IdSpace::Routed)?;
            let wal = match &recovered.tail {
                Some((scan, path)) => {
                    WalWriter::resume(&shard_dir, scan, path, options.sync, options.segment_bytes)?
                }
                None => WalWriter::create(
                    &shard_dir,
                    recovered.report.next_lsn,
                    options.sync,
                    options.segment_bytes,
                )?,
            };
            debug_assert_eq!(wal.next_lsn(), recovered.report.next_lsn);
            snapshot_lsns.push(recovered.report.snapshot_lsn);
            engines.push(recovered.engine);
            reports.push(recovered.report);
            wals.push(wal);
        }
        let engine = ShardedLemp::from_shards(engines, manifest.kind, manifest.bands)?;
        let store = Self { dir: dir.to_path_buf(), engine, wals, snapshot_lsns, options };
        Ok((store, ShardedRecoveryReport { shards: reports }))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped engine (queries, inspection). Probe edits must go
    /// through [`ShardedDurableEngine::insert`]/
    /// [`ShardedDurableEngine::remove`]/[`ShardedDurableEngine::rebuild`]
    /// so they hit the owning shard's log first.
    pub fn engine(&self) -> &ShardedLemp {
        &self.engine
    }

    /// Per-shard WAL counter snapshots (`/stats` in durable serving mode).
    pub fn wal_stats(&self) -> Vec<WalStats> {
        self.wals.iter().map(WalWriter::stats).collect()
    }

    /// Per-shard checkpoint LSNs.
    pub fn snapshot_lsns(&self) -> &[u64] {
        &self.snapshot_lsns
    }

    /// Per-shard next-edit LSNs — each is the total number of edits ever
    /// routed to that shard.
    pub fn next_lsns(&self) -> Vec<u64> {
        self.wals.iter().map(WalWriter::next_lsn).collect()
    }

    /// Warms the inner engine ([`ShardedLemp::warm`]); warmth is runtime
    /// state, not logged.
    pub fn warm(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        self.engine.warm(sample, goal)
    }

    /// Fan-out thread count of the inner engine.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// **Route-log-apply insert**: validates, routes (the global id and
    /// owning shard are pure functions of the policy and the engine
    /// state), appends to the owner's log, fsyncs per policy, then
    /// applies. Returns `(id, shard)`.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] on wrong dimensionality or non-finite
    /// coordinates (nothing is logged); [`StoreError::Io`] when the append
    /// fails (nothing is applied).
    pub fn insert(&mut self, v: &[f64]) -> Result<(u32, usize), StoreError> {
        if v.len() != self.engine.dim() {
            return Err(StoreError::Invalid(format!(
                "vector has {} coordinates, engine dimensionality is {}",
                v.len(),
                self.engine.dim()
            )));
        }
        if let Some(i) = v.iter().position(|x| !x.is_finite()) {
            return Err(StoreError::Invalid(format!("coordinate {i} is not finite")));
        }
        let (id, shard) = self.engine.route_insert(v);
        let lsn = self.wals[shard].append(&WalRecord::Insert { id, vector: v.to_vec() })?;
        let got = self.engine.insert(v).map_err(|e| StoreError::Replay {
            lsn,
            detail: format!("engine rejected a validated insert: {e}"),
        })?;
        debug_assert_eq!(got, id, "insert diverged from its route preview");
        Ok((id, shard))
    }

    /// **Log-then-apply removal**, forwarded to the owning shard's log. A
    /// dead or never-allocated id is a no-op (`Ok(None)`) and is *not*
    /// logged; a live one returns its owning shard.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the append fails (nothing is applied).
    pub fn remove(&mut self, id: u32) -> Result<Option<usize>, StoreError> {
        let Some(shard) = self.engine.owner_of(id) else {
            return Ok(None);
        };
        self.wals[shard].append(&WalRecord::Remove { id })?;
        let removed = self.engine.remove(id);
        debug_assert!(removed);
        Ok(Some(shard))
    }

    /// **Log-then-apply rebuild**: a rebuild record is appended to *every*
    /// shard's log (each shard re-bucketizes its own slice), then the
    /// engine rebuilds.
    ///
    /// # Errors
    /// [`StoreError::Io`] when an append fails; shards whose log already
    /// took the record will simply replay a (harmless, idempotent) rebuild
    /// on recovery.
    pub fn rebuild(&mut self) -> Result<(), StoreError> {
        for wal in &mut self.wals {
            wal.append(&WalRecord::Rebuild)?;
        }
        self.engine.rebuild();
        Ok(())
    }

    /// Forces every appended record durable on every shard regardless of
    /// the sync policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] on fsync failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        for wal in &mut self.wals {
            wal.sync()?;
        }
        Ok(())
    }

    /// **Compaction**, shard by shard: snapshot each shard's live engine,
    /// move its marker, prune its redundant segments and snapshots. After
    /// it returns, recovery of every shard loads one image and replays
    /// nothing.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures (every shard directory
    /// stays recoverable at every intermediate step).
    pub fn compact(&mut self) -> Result<Vec<CompactionReport>, StoreError> {
        (0..self.wals.len()).map(|s| self.compact_shard_with_fault(s, None)).collect()
    }

    /// Compacts one shard with a crash-injection point, exactly as
    /// [`crate::DurableEngine::compact_with_fault`] does for a single
    /// store. The crash-injection suite aims faults at individual shards
    /// and proves the *whole* sharded store still recovers.
    ///
    /// # Errors
    /// [`StoreError::Injected`] at the requested fault point; otherwise as
    /// [`ShardedDurableEngine::compact`].
    pub fn compact_shard_with_fault(
        &mut self,
        shard: usize,
        fault: Option<CompactFault>,
    ) -> Result<CompactionReport, StoreError> {
        let shard_dir = self.dir.join(shard_dir_name(shard));
        let wal = &mut self.wals[shard];
        wal.sync()?;
        let lsn = wal.next_lsn();
        let marker = write_snapshot(&shard_dir, &self.engine.shards()[shard], lsn)?;
        if fault == Some(CompactFault::AfterSnapshot) {
            return Err(StoreError::Injected("after-snapshot"));
        }
        write_marker(&shard_dir, marker)?;
        self.snapshot_lsns[shard] = lsn;
        if fault == Some(CompactFault::AfterMarker) {
            return Err(StoreError::Injected("after-marker"));
        }
        wal.rotate()?;
        let mut segments_pruned = 0usize;
        let mut snapshots_pruned = 0usize;
        let mut bytes_reclaimed = 0u64;
        for (start, path) in list_segments(&shard_dir)? {
            if start < lsn && start != wal.segment_start() {
                bytes_reclaimed += path.metadata().map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path)?;
                segments_pruned += 1;
            }
        }
        for (snap_lsn, path) in list_snapshots(&shard_dir)? {
            if snap_lsn < lsn {
                bytes_reclaimed += path.metadata().map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path)?;
                snapshots_pruned += 1;
            }
        }
        sync_dir(&shard_dir)?;
        Ok(CompactionReport { lsn, segments_pruned, snapshots_pruned, bytes_reclaimed })
    }

    /// **Crash injection**: consumes the store as a power loss would — the
    /// in-memory engine and every unsynced log byte on every shard are
    /// gone; only fsynced state survives on disk.
    ///
    /// # Errors
    /// [`StoreError::Io`] on truncation failures.
    pub fn simulate_crash(self) -> Result<(), StoreError> {
        for wal in self.wals {
            wal.simulate_crash()?;
        }
        Ok(())
    }

    /// The configured options.
    pub fn options(&self) -> StoreOptions {
        self.options
    }
}

impl lemp_core::Engine for ShardedDurableEngine {
    fn plan(&self, request: &lemp_core::QueryRequest) -> lemp_core::QueryPlan {
        self.engine.plan(request)
    }

    fn refresh_plan(&self, plan: &lemp_core::QueryPlan) -> lemp_core::QueryPlan {
        self.engine.refresh_plan(plan)
    }

    fn execute_block(
        &self,
        plan: &lemp_core::QueryPlan,
        queries: &VectorStore,
        scratch: &mut lemp_core::Scratch,
    ) -> lemp_core::QueryResponse {
        self.engine.execute_block(plan, queries, scratch)
    }

    fn query_scratch(&self) -> lemp_core::Scratch {
        lemp_core::Engine::query_scratch(&self.engine)
    }

    fn probes(&self) -> usize {
        lemp_core::Engine::probes(&self.engine)
    }

    fn dim(&self) -> usize {
        lemp_core::Engine::dim(&self.engine)
    }

    fn is_warm(&self) -> bool {
        self.engine.is_warm()
    }

    fn shard_count(&self) -> usize {
        self.engine.shard_count()
    }

    fn warm_up(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        self.engine.warm(sample, goal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemp_core::shard::ShardPolicy;
    use lemp_core::{BucketPolicy, DynamicLemp, RunConfig};
    use lemp_data::synthetic::GeneratorConfig;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lemp-sharded-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn build(shards: usize, n: usize, seed: u64) -> ShardedLemp {
        let p = GeneratorConfig::gaussian(n, 6, 1.0).generate(seed);
        ShardedLemp::builder()
            .shards(shards)
            .policy(ShardPolicy::LengthBanded)
            .sample_size(4)
            .build(&p)
    }

    #[test]
    fn create_edit_crash_recover_roundtrip() {
        let dir = fresh_dir("roundtrip");
        let engine = build(3, 40, 1);
        let mut store =
            ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
        let extra = GeneratorConfig::gaussian(12, 6, 1.5).generate(2);
        let mut acked = Vec::new();
        for i in 0..extra.len() {
            acked.push(store.insert(extra.vector(i)).unwrap());
        }
        assert!(store.remove(acked[0].0).unwrap().is_some());
        assert_eq!(store.remove(acked[0].0).unwrap(), None, "dead id is a no-op");
        store.rebuild().unwrap();
        let live: Vec<usize> = store.engine().shard_sizes();
        let next_id = store.engine().next_id();
        store.simulate_crash().unwrap();

        let (recovered, report) = recover_sharded(&dir).unwrap();
        assert_eq!(recovered.shard_sizes(), live, "per-shard counts survive the crash");
        assert_eq!(recovered.next_id(), next_id, "the global watermark survives");
        for &(id, shard) in &acked[1..] {
            assert_eq!(recovered.owner_of(id), Some(shard), "routed placement survives");
        }
        // rebuild on every shard + 12 inserts + 1 remove
        assert_eq!(report.records_replayed(), 12 + 1 + 3);
        assert!(report.torn_tails().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_prunes_and_preserves() {
        let dir = fresh_dir("compact");
        let engine = build(2, 20, 3);
        let mut store =
            ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
        let extra = GeneratorConfig::gaussian(8, 6, 1.0).generate(4);
        for i in 0..extra.len() {
            store.insert(extra.vector(i)).unwrap();
        }
        let sizes = store.engine().shard_sizes();
        let reports = store.compact().unwrap();
        assert_eq!(reports.len(), 2);
        for (s, report) in reports.iter().enumerate() {
            assert_eq!(report.lsn, store.next_lsns()[s], "checkpoint at each shard's head");
            assert_eq!(report.snapshots_pruned, 1, "the seed snapshot goes");
        }
        store.simulate_crash().unwrap();
        let (recovered, report) = recover_sharded(&dir).unwrap();
        assert_eq!(recovered.shard_sizes(), sizes);
        assert_eq!(report.records_replayed(), 0, "compaction folded every record");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_fault_injection_leaves_store_recoverable() {
        for fault in [CompactFault::AfterSnapshot, CompactFault::AfterMarker] {
            let dir = fresh_dir(&format!("fault-{fault:?}"));
            let engine = build(2, 16, 5);
            let mut store =
                ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
            let extra = GeneratorConfig::gaussian(6, 6, 1.0).generate(6);
            for i in 0..extra.len() {
                store.insert(extra.vector(i)).unwrap();
            }
            let sizes = store.engine().shard_sizes();
            let err = store.compact_shard_with_fault(1, Some(fault)).unwrap_err();
            assert!(matches!(err, StoreError::Injected(_)));
            store.simulate_crash().unwrap();
            let (recovered, _) = recover_sharded(&dir).unwrap();
            assert_eq!(
                recovered.shard_sizes(),
                sizes,
                "crash mid-compaction of shard 1 ({fault:?})"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn open_resumes_appending_with_routed_ids() {
        let dir = fresh_dir("open");
        let engine = build(3, 30, 7);
        let mut store =
            ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
        let extra = GeneratorConfig::gaussian(10, 6, 1.2).generate(8);
        for i in 0..5 {
            store.insert(extra.vector(i)).unwrap();
        }
        drop(store);
        let (mut store, report) =
            ShardedDurableEngine::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(report.live_probes(), 35);
        for i in 5..10 {
            let (id, shard) = store.insert(extra.vector(i)).unwrap();
            assert_eq!(store.engine().owner_of(id), Some(shard));
        }
        assert_eq!(store.engine().len(), 40);
        // Ids never repeat across the reopen boundary.
        assert_eq!(store.engine().next_id(), 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_corruption() {
        let dir = fresh_dir("manifest");
        let engine = build(2, 10, 9);
        let store = ShardedDurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
        drop(store);
        let path = dir.join(MANIFEST);
        let good = std::fs::read(&path).unwrap();
        // CRC failure
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(recover_sharded(&dir), Err(StoreError::Corrupt { .. })));
        // Bad magic
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(recover_sharded(&dir), Err(StoreError::Corrupt { .. })));
        // Missing manifest entirely
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(recover_sharded(&dir), Err(StoreError::Missing(_))));
        assert!(!is_sharded_store(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_and_sharded_stores_are_distinguished() {
        let dir = fresh_dir("dispatch");
        let p = GeneratorConfig::gaussian(8, 6, 1.0).generate(11);
        let single = DynamicLemp::new(&p, BucketPolicy::default(), RunConfig::default());
        let store = crate::DurableEngine::create(&dir, single, StoreOptions::default()).unwrap();
        drop(store);
        assert!(!is_sharded_store(&dir));
        assert!(crate::DurableEngine::exists(&dir));
        let err = ShardedDurableEngine::open(&dir, StoreOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::Missing(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
