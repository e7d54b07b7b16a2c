//! The store proper: segments + manifest + in-memory index.
//!
//! # Concurrency and lock discipline
//!
//! Two locks, never nested and never held across file I/O:
//!
//! * `index` — the key → location map plus live/dead byte accounting;
//! * `log` — the append state: the pending (unflushed) byte buffer,
//!   segment roster and commit bookkeeping.
//!
//! `put`/`delete`/`get` are safe to call concurrently: mutations under
//! a lock touch memory only (appends go to the pending buffer), and
//! durable reads happen after the relevant guard is dropped.
//! [`Store::checkpoint`] — flush, fsync, manifest swap, compaction — is
//! the only place file writes happen, and it must be called with no
//! concurrent readers or writers (the engine holds every commit pass
//! behind a checkpoint barrier first; the study and serve drains are
//! single-threaded coordinators).
//!
//! # Commit protocol
//!
//! 1. append the pending buffer to the active segment file, fsync;
//! 2. atomically swap `MANIFEST.json` to reference the new bytes.
//!
//! A crash before (2) leaves file bytes past the manifest's
//! `active_len`: recovery truncates them (a *recovered truncation*) and
//! the state observed is exactly the previous commit. Compaction reuses
//! the same protocol — new segment files are fully written and fsync'd
//! before the swap, and files the manifest stops referencing are
//! deleted afterwards (or cleaned up at the next open after a crash).

use crate::manifest::{Manifest, SegmentMeta, MANIFEST_NAME};
use crate::segment::{self, scan};
use crate::StoreError;
use dox_fault::StoreKillPoint;
use dox_obs::{Gauge, Registry};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Tuning knobs for a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Seal the active segment once its committed size reaches this.
    pub segment_max_bytes: u64,
    /// Skip compaction below this much total data (not worth the churn).
    pub compact_min_bytes: u64,
    /// Compact at a checkpoint when dead bytes exceed this share (ppm)
    /// of total bytes.
    pub compact_dead_ppm: u32,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            segment_max_bytes: 8 * 1024 * 1024,
            compact_min_bytes: 64 * 1024,
            compact_dead_ppm: 500_000,
        }
    }
}

/// One raw `(key, value)` pair as returned by [`Store::scan_prefix`].
pub type RawEntry = (Vec<u8>, Vec<u8>);

/// Location of one committed-or-pending record frame.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u64,
    offset: u64,
    frame_len: u32,
}

/// Key → location map plus byte accounting.
#[derive(Debug, Default)]
struct IndexState {
    map: BTreeMap<Vec<u8>, Loc>,
    live_bytes: u64,
    dead_bytes: u64,
}

/// Append-side state.
#[derive(Debug, Default)]
struct LogState {
    /// Encoded frames accepted but not yet flushed to the active file.
    pending: Vec<u8>,
    sealed: Vec<SegmentMeta>,
    active_id: u64,
    /// Manifest-committed bytes of the active segment.
    active_len: u64,
    next_id: u64,
    /// Store checkpoints committed by this process (kill-point ordinal).
    commits: u64,
    armed_kill: Option<(u64, StoreKillPoint)>,
}

/// Gauges exported into the owning registry.
#[derive(Debug, Clone)]
struct StoreGauges {
    segments: Gauge,
    live_bytes: Gauge,
    dead_bytes: Gauge,
    compactions: Gauge,
    recovered_truncations: Gauge,
}

impl StoreGauges {
    fn resolve(registry: &Registry) -> Self {
        Self {
            segments: registry.gauge("store.segments"),
            live_bytes: registry.gauge("store.live_bytes"),
            dead_bytes: registry.gauge("store.dead_bytes"),
            compactions: registry.gauge("store.compactions"),
            recovered_truncations: registry.gauge("store.recovered_truncations"),
        }
    }
}

/// A crash-safe embedded log-structured KV store.
///
/// See the crate docs for the commit protocol and locking
/// rules. Typed access goes through [`crate::Table`]; the raw byte API
/// here is what the tables are built on.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    index: Mutex<IndexState>,
    log: Mutex<LogState>,
    gauges: StoreGauges,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> StoreError {
    move |source| StoreError::Io { context, source }
}

impl Store {
    /// Open (or create) the store in `dir` with default options,
    /// recovering from any torn state left by a crash.
    pub fn open(dir: impl AsRef<Path>, registry: &Registry) -> Result<Store, StoreError> {
        Self::open_with(dir, StoreOptions::default(), registry)
    }

    /// [`Store::open`] with explicit tuning options.
    pub fn open_with(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        registry: &Registry,
    ) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err("create store dir"))?;
        let gauges = StoreGauges::resolve(registry);
        let manifest_path = dir.join(MANIFEST_NAME);
        let mut manifest = if manifest_path.exists() {
            let text = std::fs::read_to_string(&manifest_path).map_err(io_err("read manifest"))?;
            Manifest::parse(&text)?
        } else {
            Manifest::default()
        };

        let mut truncations = 0i64;
        Self::remove_unreferenced_files(&dir, &manifest, &mut truncations)?;

        // Sealed segments must be present with at least their committed
        // length; longer files carry an uncommitted tail to truncate.
        // A scan failure inside the committed region quarantines the
        // tail of the *log*: that segment is cut at the failure and
        // every later segment (and the active one) is dropped.
        let mut recovered: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut cut_log = false;
        let mut kept_sealed: Vec<SegmentMeta> = Vec::new();
        for meta in manifest.sealed.clone() {
            if cut_log {
                let _ = std::fs::remove_file(segment_path(&dir, meta.id));
                continue;
            }
            let (bytes, valid_len) =
                Self::recover_segment(&dir, meta.id, meta.len, &mut truncations)?;
            if valid_len < meta.len {
                cut_log = true;
                kept_sealed.push(SegmentMeta {
                    id: meta.id,
                    len: valid_len,
                });
            } else {
                kept_sealed.push(meta);
            }
            recovered.push((meta.id, bytes));
        }
        if cut_log {
            // The quarantine cut also drops the active segment.
            let _ = std::fs::remove_file(segment_path(&dir, manifest.active_id));
            let last = kept_sealed.pop().unwrap_or(SegmentMeta { id: 1, len: 0 });
            manifest = Manifest {
                sealed: kept_sealed.clone(),
                active_id: last.id,
                active_len: last.len,
                next_id: manifest.next_id,
                ..Manifest::default()
            };
            // Keep the recovered bytes for the (now active) last segment.
            recovered.retain(|(id, _)| {
                *id == manifest.active_id || manifest.sealed.iter().any(|m| m.id == *id)
            });
        } else {
            let (bytes, valid_len) = Self::recover_segment(
                &dir,
                manifest.active_id,
                manifest.active_len,
                &mut truncations,
            )?;
            if valid_len < manifest.active_len {
                manifest.active_len = valid_len;
            }
            recovered.push((manifest.active_id, bytes));
        }

        // Publish the post-recovery manifest so a crash right after this
        // open replays the same recovery, not a deeper one.
        manifest.write_atomic(&manifest_path)?;

        // Rebuild the index by replaying every committed record in log
        // order; later writes win, tombstones delete.
        let mut index = IndexState::default();
        for (seg_id, bytes) in &recovered {
            for (offset, frame_len, record) in scan(bytes).records {
                let loc = Loc {
                    seg: *seg_id,
                    offset,
                    frame_len,
                };
                index.apply(record.key, record.tombstone, loc);
            }
        }

        let log = LogState {
            pending: Vec::new(),
            sealed: manifest.sealed.clone(),
            active_id: manifest.active_id,
            active_len: manifest.active_len,
            next_id: manifest.next_id,
            commits: 0,
            armed_kill: None,
        };
        gauges.recovered_truncations.add(truncations);
        let store = Store {
            dir,
            opts,
            index: Mutex::new(index),
            log: Mutex::new(log),
            gauges,
        };
        store.publish_gauges();
        Ok(store)
    }

    /// Read a segment file, truncating bytes past `committed_len` and
    /// then cutting any torn tail the CRC scan rejects. Returns the
    /// surviving bytes and their length.
    fn recover_segment(
        dir: &Path,
        id: u64,
        committed_len: u64,
        truncations: &mut i64,
    ) -> Result<(Vec<u8>, u64), StoreError> {
        let path = segment_path(dir, id);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut file) => {
                file.read_to_end(&mut bytes)
                    .map_err(io_err("read segment"))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("open segment")(e)),
        }
        if (bytes.len() as u64) < committed_len {
            return Err(StoreError::Corrupt {
                detail: format!(
                    "segment {id}: {} bytes on disk, {} committed — committed data is missing",
                    bytes.len(),
                    committed_len
                ),
            });
        }
        if bytes.len() as u64 > committed_len {
            bytes.truncate(committed_len as usize);
            *truncations += 1;
        }
        let valid_len = scan(&bytes).valid_len;
        if valid_len < committed_len {
            bytes.truncate(valid_len as usize);
            *truncations += 1;
        }
        if (bytes.len() as u64) < std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(io_err("truncate segment"))?;
            file.set_len(bytes.len() as u64)
                .map_err(io_err("truncate segment"))?;
            file.sync_all().map_err(io_err("truncate segment"))?;
        }
        Ok((bytes, valid_len.min(committed_len)))
    }

    /// Delete files in `dir` the manifest does not reference: stray
    /// segments from an interrupted rotation/compaction and staging
    /// files from an interrupted manifest swap.
    fn remove_unreferenced_files(
        dir: &Path,
        manifest: &Manifest,
        truncations: &mut i64,
    ) -> Result<(), StoreError> {
        let entries = std::fs::read_dir(dir).map_err(io_err("list store dir"))?;
        for entry in entries {
            let entry = entry.map_err(io_err("list store dir"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name == MANIFEST_NAME {
                continue;
            }
            let referenced = parse_segment_name(name).is_some_and(|id| {
                id == manifest.active_id || manifest.sealed.iter().any(|m| m.id == id)
            });
            if referenced {
                continue;
            }
            if parse_segment_name(name).is_some() || name.ends_with(".tmp") {
                let nonempty = entry.metadata().map(|m| m.len() > 0).unwrap_or(false);
                std::fs::remove_file(entry.path()).map_err(io_err("remove stray file"))?;
                if nonempty && parse_segment_name(name).is_some() {
                    *truncations += 1;
                }
            }
        }
        Ok(())
    }

    /// Insert or replace `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.append(key, value, false);
        Ok(())
    }

    /// Delete `key`; returns whether it existed. Appends a tombstone so
    /// the deletion survives a reopen.
    pub fn delete(&self, key: &[u8]) -> Result<bool, StoreError> {
        let existed = { self.index.lock().map.contains_key(key) };
        if existed {
            self.append(key, b"", true);
        }
        Ok(existed)
    }

    /// Frame one record straight into the pending buffer (the value is
    /// copied once, and the CRC is computed over the appended bytes),
    /// then index it.
    fn append(&self, key: &[u8], value: &[u8], tombstone: bool) {
        let loc = {
            let mut log = self.log.lock();
            let offset = log.active_len + log.pending.len() as u64;
            let seg = log.active_id;
            let frame_len = segment::encode_record(key, value, tombstone, &mut log.pending) as u32;
            Loc {
                seg,
                offset,
                frame_len,
            }
        };
        self.index.lock().apply(key, tombstone, loc);
    }

    /// Fetch the current value of `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let loc = { self.index.lock().map.get(key).copied() };
        let Some(loc) = loc else { return Ok(None) };
        self.read_value(loc)
    }

    /// Every `(key, value)` whose key starts with `prefix`, in key
    /// order. Used by [`crate::Table::scan`].
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<RawEntry>, StoreError> {
        let locs: Vec<(Vec<u8>, Loc)> = {
            let index = self.index.lock();
            index
                .map
                .range(prefix.to_vec()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, loc)| (k.clone(), *loc))
                .collect()
        };
        // One read per committed segment, covering the span of its
        // frames; pending frames are served from memory.
        let (active_id, active_len) = {
            let log = self.log.lock();
            (log.active_id, log.active_len)
        };
        let committed = |loc: &Loc| loc.seg != active_id || loc.offset < active_len;
        let mut spans: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (_, loc) in locs.iter().filter(|(_, loc)| committed(loc)) {
            let end = loc.offset + u64::from(loc.frame_len);
            let span = spans.entry(loc.seg).or_insert((loc.offset, end));
            span.0 = span.0.min(loc.offset);
            span.1 = span.1.max(end);
        }
        let mut segments: BTreeMap<u64, (u64, Vec<u8>)> = BTreeMap::new();
        for (seg, (start, end)) in spans {
            let bytes = self.read_span(seg, start, (end - start) as usize)?;
            segments.insert(seg, (start, bytes));
        }
        let mut out = Vec::with_capacity(locs.len());
        for (key, loc) in locs {
            let value = match segments.get(&loc.seg).filter(|_| committed(&loc)) {
                Some((start, bytes)) => {
                    let from = (loc.offset - start) as usize;
                    decode_value(&bytes[from..from + loc.frame_len as usize])?
                }
                None => self.read_value(loc)?,
            };
            if let Some(value) = value {
                out.push((key, value));
            }
        }
        Ok(out)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.index.lock().map.len()
    }

    /// Whether the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arm a simulated crash inside the `nth` (1-based) checkpoint
    /// commit, at `point`. Fault-drill plumbing for the kill-matrix
    /// tests; the "crash" surfaces as [`StoreError::Killed`].
    pub fn arm_kill(&self, nth: u64, point: StoreKillPoint) {
        self.log.lock().armed_kill = Some((nth, point));
    }

    /// Recovered-truncation count observed by this store's registry
    /// gauge (open-time torn tails plus quarantined records).
    pub fn recovered_truncations(&self) -> i64 {
        self.gauges.recovered_truncations.get()
    }

    /// Flush pending records, fsync the segment, atomically swap the
    /// manifest, then compact if the dead-byte ratio crossed the
    /// threshold. This is the durability point: everything `put` before
    /// this call survives a crash after it.
    ///
    /// Must not race `put`/`get`/`delete` (see the module docs).
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let (mut batch, active_id, ordinal, armed) = {
            let mut log = self.log.lock();
            let batch = std::mem::take(&mut log.pending);
            (batch, log.active_id, log.commits + 1, log.armed_kill)
        };
        let kill_at =
            |point: StoreKillPoint| armed.is_some_and(|(nth, p)| nth == ordinal && p == point);
        if kill_at(StoreKillPoint::BeforeSegmentWrite) {
            return Err(StoreError::Killed {
                ordinal,
                point: StoreKillPoint::BeforeSegmentWrite,
            });
        }
        if !batch.is_empty() {
            let path = segment_path(&self.dir, active_id);
            let mut file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(&path)
                .map_err(io_err("open active segment"))?;
            file.write_all(&batch).map_err(io_err("append segment"))?;
            file.sync_all().map_err(io_err("fsync segment"))?;
        }
        // The batch is durable but unpublished: this is the torn-commit
        // window the fault matrix drills.
        if kill_at(StoreKillPoint::BetweenWriteAndSwap) {
            return Err(StoreError::Killed {
                ordinal,
                point: StoreKillPoint::BetweenWriteAndSwap,
            });
        }
        let manifest = {
            let mut log = self.log.lock();
            log.active_len += batch.len() as u64;
            if log.active_len >= self.opts.segment_max_bytes {
                let sealed_id = log.active_id;
                let sealed_len = log.active_len;
                log.sealed.push(SegmentMeta {
                    id: sealed_id,
                    len: sealed_len,
                });
                log.active_id = log.next_id;
                log.next_id += 1;
                log.active_len = 0;
            }
            Manifest {
                sealed: log.sealed.clone(),
                active_id: log.active_id,
                active_len: log.active_len,
                next_id: log.next_id,
                ..Manifest::default()
            }
        };
        manifest.write_atomic(&self.dir.join(MANIFEST_NAME))?;
        {
            let mut log = self.log.lock();
            log.commits += 1;
            // The next batch reuses this one's allocation: growing a
            // fresh buffer page-faults through every checkpoint's puts.
            if log.pending.is_empty() {
                batch.clear();
                log.pending = batch;
            }
        }
        if kill_at(StoreKillPoint::AfterManifestSwap) {
            return Err(StoreError::Killed {
                ordinal,
                point: StoreKillPoint::AfterManifestSwap,
            });
        }
        self.maybe_compact()?;
        self.publish_gauges();
        Ok(())
    }

    /// Rewrite live records into fresh segments when the dead share
    /// crosses the configured threshold. Runs only at checkpoint
    /// boundaries (no background threads) and reuses the write-then-swap
    /// protocol, so a crash mid-compaction recovers to the pre-compaction
    /// commit.
    fn maybe_compact(&self) -> Result<(), StoreError> {
        let (live, dead) = {
            let index = self.index.lock();
            (index.live_bytes, index.dead_bytes)
        };
        let total = live + dead;
        if total < self.opts.compact_min_bytes
            || u128::from(dead) * 1_000_000
                < u128::from(total) * u128::from(self.opts.compact_dead_ppm)
        {
            return Ok(());
        }

        // Snapshot the live locations in key order, then read each frame
        // back (no locks held across the reads).
        let locs: Vec<(Vec<u8>, Loc)> = {
            let index = self.index.lock();
            index.map.iter().map(|(k, l)| (k.clone(), *l)).collect()
        };
        let (old_sealed, old_active, first_new_id) = {
            let log = self.log.lock();
            (log.sealed.clone(), log.active_id, log.next_id)
        };

        let mut new_segments: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut current: Vec<u8> = Vec::new();
        let mut next_id = first_new_id;
        let mut new_locs: Vec<(Vec<u8>, Loc)> = Vec::with_capacity(locs.len());
        let mut live_bytes = 0u64;
        for (key, loc) in locs {
            let frame = self.read_frame(loc)?;
            if current.len() as u64 + frame.len() as u64 > self.opts.segment_max_bytes
                && !current.is_empty()
            {
                new_segments.push((next_id, std::mem::take(&mut current)));
                next_id += 1;
            }
            new_locs.push((
                key,
                Loc {
                    seg: next_id,
                    offset: current.len() as u64,
                    frame_len: loc.frame_len,
                },
            ));
            live_bytes += u64::from(loc.frame_len);
            current.extend_from_slice(&frame);
        }
        new_segments.push((next_id, current));
        let active_id = next_id;
        next_id += 1;

        // Write + fsync every new segment before the swap publishes them.
        for (id, bytes) in &new_segments {
            let path = segment_path(&self.dir, *id);
            let mut file = File::create(&path).map_err(io_err("create compacted segment"))?;
            file.write_all(bytes)
                .map_err(io_err("write compacted segment"))?;
            file.sync_all().map_err(io_err("fsync compacted segment"))?;
        }
        let sealed: Vec<SegmentMeta> = new_segments
            .iter()
            .filter(|(id, _)| *id != active_id)
            .map(|(id, bytes)| SegmentMeta {
                id: *id,
                len: bytes.len() as u64,
            })
            .collect();
        let active_len = new_segments
            .iter()
            .find(|(id, _)| *id == active_id)
            .map_or(0, |(_, b)| b.len() as u64);
        let manifest = Manifest {
            sealed: sealed.clone(),
            active_id,
            active_len,
            next_id,
            ..Manifest::default()
        };
        manifest.write_atomic(&self.dir.join(MANIFEST_NAME))?;

        // Publish the new layout in memory, then drop the old files.
        {
            let mut log = self.log.lock();
            log.sealed = sealed;
            log.active_id = active_id;
            log.active_len = active_len;
            log.next_id = next_id;
        }
        {
            let mut index = self.index.lock();
            for (key, loc) in new_locs {
                index.map.insert(key, loc);
            }
            index.live_bytes = live_bytes;
            index.dead_bytes = 0;
        }
        for meta in old_sealed {
            let _ = std::fs::remove_file(segment_path(&self.dir, meta.id));
        }
        let _ = std::fs::remove_file(segment_path(&self.dir, old_active));
        self.gauges.compactions.add(1);
        Ok(())
    }

    /// Read one full frame, from the pending buffer or from disk.
    fn read_frame(&self, loc: Loc) -> Result<Vec<u8>, StoreError> {
        {
            let log = self.log.lock();
            if loc.seg == log.active_id && loc.offset >= log.active_len {
                let start = (loc.offset - log.active_len) as usize;
                let end = start + loc.frame_len as usize;
                let frame = log
                    .pending
                    .get(start..end)
                    .ok_or_else(|| StoreError::Corrupt {
                        detail: "pending index out of bounds".to_string(),
                    })?;
                return Ok(frame.to_vec());
            }
        }
        self.read_span(loc.seg, loc.offset, loc.frame_len as usize)
    }

    /// Read `len` committed bytes of segment `seg` from `offset`.
    fn read_span(&self, seg: u64, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        let path = segment_path(&self.dir, seg);
        let mut file = File::open(&path).map_err(io_err("open segment"))?;
        file.seek(SeekFrom::Start(offset))
            .map_err(io_err("seek segment"))?;
        let mut bytes = vec![0u8; len];
        file.read_exact(&mut bytes)
            .map_err(io_err("read segment"))?;
        Ok(bytes)
    }

    /// Decode the value behind `loc`, verifying the frame CRC.
    fn read_value(&self, loc: Loc) -> Result<Option<Vec<u8>>, StoreError> {
        decode_value(&self.read_frame(loc)?)
    }

    /// Push current segment/byte accounting into the registry gauges.
    fn publish_gauges(&self) {
        let (live, dead) = {
            let index = self.index.lock();
            (index.live_bytes, index.dead_bytes)
        };
        let segments = {
            let log = self.log.lock();
            log.sealed.len() as i64 + 1
        };
        self.gauges.segments.set(segments);
        self.gauges.live_bytes.set(live as i64);
        self.gauges.dead_bytes.set(dead as i64);
    }
}

impl IndexState {
    /// Apply one record (an insert or a tombstone) to the map and the
    /// live/dead accounting. Used by the replay scan and the write path
    /// so both agree byte-for-byte.
    fn apply(&mut self, key: &[u8], tombstone: bool, loc: Loc) {
        if tombstone {
            // The tombstone frame itself is immediately dead weight; so
            // is whatever it deleted.
            self.dead_bytes += u64::from(loc.frame_len);
            if let Some(old) = self.map.remove(key) {
                self.live_bytes = self.live_bytes.saturating_sub(u64::from(old.frame_len));
                self.dead_bytes += u64::from(old.frame_len);
            }
        } else {
            if let Some(old) = self.map.insert(key.to_vec(), loc) {
                self.live_bytes = self.live_bytes.saturating_sub(u64::from(old.frame_len));
                self.dead_bytes += u64::from(old.frame_len);
            }
            self.live_bytes += u64::from(loc.frame_len);
        }
    }
}

/// Decode one indexed frame's value (`None` for a tombstone), verifying
/// its CRC.
fn decode_value(frame: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
    match segment::decode_record(frame) {
        Some((record, _)) if !record.tombstone => Ok(Some(record.value.to_vec())),
        Some(_) => Ok(None),
        None => Err(StoreError::Corrupt {
            detail: "indexed record failed its CRC".to_string(),
        }),
    }
}

/// Path of segment `id` inside `dir`.
fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.seg"))
}

/// Parse `seg-<id>.seg` back to its id.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dox_store_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn registry() -> Registry {
        Registry::new()
    }

    #[test]
    fn put_get_survive_checkpoint_and_reopen() {
        let dir = scratch("roundtrip");
        let reg = registry();
        {
            let store = Store::open(&dir, &reg).expect("open");
            store.put(b"alpha", b"1").expect("put");
            store.put(b"beta", b"2").expect("put");
            assert_eq!(store.get(b"alpha").expect("get"), Some(b"1".to_vec()));
            store.checkpoint().expect("checkpoint");
        }
        let store = Store::open(&dir, &reg).expect("reopen");
        assert_eq!(store.get(b"alpha").expect("get"), Some(b"1".to_vec()));
        assert_eq!(store.get(b"beta").expect("get"), Some(b"2".to_vec()));
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncheckpointed_writes_do_not_survive_reopen() {
        let dir = scratch("volatile");
        let reg = registry();
        {
            let store = Store::open(&dir, &reg).expect("open");
            store.put(b"committed", b"yes").expect("put");
            store.checkpoint().expect("checkpoint");
            store.put(b"lost", b"crash").expect("put");
            // No checkpoint: simulated SIGKILL.
        }
        let store = Store::open(&dir, &reg).expect("reopen");
        assert_eq!(store.get(b"committed").expect("get"), Some(b"yes".to_vec()));
        assert_eq!(store.get(b"lost").expect("get"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = scratch("torn");
        let reg = registry();
        {
            let store = Store::open(&dir, &reg).expect("open");
            store.put(b"whole", b"record").expect("put");
            store.checkpoint().expect("checkpoint");
        }
        // A crash mid-append: garbage past the committed length.
        let seg = segment_path(&dir, 1);
        let mut file = OpenOptions::new()
            .append(true)
            .open(&seg)
            .expect("seg file");
        file.write_all(&[0x2A, 0x00, 0x00, 0x00, 0xDE, 0xAD])
            .expect("tear");
        drop(file);
        let reg2 = registry();
        let store = Store::open(&dir, &reg2).expect("reopen");
        assert_eq!(store.get(b"whole").expect("get"), Some(b"record".to_vec()));
        assert!(store.recovered_truncations() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_between_write_and_swap_recovers_to_previous_commit() {
        let dir = scratch("killwindow");
        let reg = registry();
        {
            let store = Store::open(&dir, &reg).expect("open");
            store.put(b"first", b"1").expect("put");
            store.checkpoint().expect("commit 1");
            store.arm_kill(2, StoreKillPoint::BetweenWriteAndSwap);
            store.put(b"second", b"2").expect("put");
            let err = store.checkpoint().expect_err("armed kill fires");
            assert!(
                matches!(err, StoreError::Killed { ordinal: 2, .. }),
                "{err}"
            );
        }
        let reg2 = registry();
        let store = Store::open(&dir, &reg2).expect("reopen");
        assert_eq!(store.get(b"first").expect("get"), Some(b"1".to_vec()));
        assert_eq!(
            store.get(b"second").expect("get"),
            None,
            "unpublished bytes discarded"
        );
        assert!(
            store.recovered_truncations() >= 1,
            "the fsync'd tail was truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_segments_and_reopen_sees_all_records() {
        let dir = scratch("rotate");
        let reg = registry();
        let opts = StoreOptions {
            segment_max_bytes: 256,
            compact_min_bytes: u64::MAX,
            ..StoreOptions::default()
        };
        {
            let store = Store::open_with(&dir, opts, &reg).expect("open");
            for i in 0..40u64 {
                store
                    .put(format!("key-{i:03}").as_bytes(), &i.to_le_bytes())
                    .expect("put");
                if i % 8 == 7 {
                    store.checkpoint().expect("checkpoint");
                }
            }
            store.checkpoint().expect("final checkpoint");
            assert!(reg.gauge("store.segments").get() > 1, "rotation happened");
        }
        let store = Store::open_with(&dir, opts, &registry()).expect("reopen");
        for i in 0..40u64 {
            assert_eq!(
                store.get(format!("key-{i:03}").as_bytes()).expect("get"),
                Some(i.to_le_bytes().to_vec())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_without_losing_data() {
        let dir = scratch("compact");
        let reg = registry();
        let opts = StoreOptions {
            segment_max_bytes: 4096,
            compact_min_bytes: 64,
            compact_dead_ppm: 300_000,
        };
        let store = Store::open_with(&dir, opts, &reg).expect("open");
        for round in 0..6u64 {
            for i in 0..32u64 {
                store
                    .put(
                        format!("key-{i:02}").as_bytes(),
                        &(round * 100 + i).to_le_bytes(),
                    )
                    .expect("put");
            }
            store.checkpoint().expect("checkpoint");
        }
        assert!(reg.gauge("store.compactions").get() >= 1, "compaction ran");
        assert_eq!(
            reg.gauge("store.dead_bytes").get(),
            0,
            "dead bytes reclaimed"
        );
        for i in 0..32u64 {
            assert_eq!(
                store.get(format!("key-{i:02}").as_bytes()).expect("get"),
                Some((500 + i).to_le_bytes().to_vec()),
                "latest round survives compaction"
            );
        }
        drop(store);
        let store = Store::open_with(&dir, opts, &registry()).expect("reopen after compaction");
        assert_eq!(store.len(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_is_durable_across_reopen() {
        let dir = scratch("delete");
        let reg = registry();
        {
            let store = Store::open(&dir, &reg).expect("open");
            store.put(b"keep", b"1").expect("put");
            store.put(b"drop", b"2").expect("put");
            store.checkpoint().expect("checkpoint");
            assert!(store.delete(b"drop").expect("delete"));
            assert!(!store.delete(b"missing").expect("delete missing"));
            store.checkpoint().expect("checkpoint");
        }
        let store = Store::open(&dir, &registry()).expect("reopen");
        assert_eq!(store.get(b"keep").expect("get"), Some(b"1".to_vec()));
        assert_eq!(store.get(b"drop").expect("get"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_prefix_reads_committed_and_pending_frames_across_segments() {
        let dir = scratch("prefix_segments");
        let opts = StoreOptions {
            segment_max_bytes: 256,
            compact_min_bytes: u64::MAX,
            ..StoreOptions::default()
        };
        let store = Store::open_with(&dir, opts, &registry()).expect("open");
        let key = |i: u64| format!("t\0{i:03}").into_bytes();
        let mut expected = BTreeMap::new();
        for i in 0..40u64 {
            store.put(&key(i), &i.to_le_bytes()).expect("put");
            expected.insert(key(i), i.to_le_bytes().to_vec());
            store
                .put(format!("u\0{i}").as_bytes(), b"other table")
                .expect("put");
            if i % 8 == 7 {
                store.checkpoint().expect("checkpoint");
            }
        }
        // Overwrites and a delete, committed and pending alike.
        store.put(&key(3), b"rewritten").expect("put");
        expected.insert(key(3), b"rewritten".to_vec());
        store.checkpoint().expect("checkpoint");
        store.put(&key(5), b"pending").expect("put");
        expected.insert(key(5), b"pending".to_vec());
        assert!(store.delete(&key(6)).expect("delete"));
        expected.remove(&key(6));
        assert!(
            store.log.lock().sealed.len() > 1,
            "the table spans several segments"
        );
        let hits: BTreeMap<Vec<u8>, Vec<u8>> = store
            .scan_prefix(b"t\0")
            .expect("scan")
            .into_iter()
            .collect();
        assert_eq!(hits, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_prefix_verifies_every_frame_crc() {
        let dir = scratch("prefix_crc");
        let store = Store::open(&dir, &registry()).expect("open");
        store.put(b"t\0a", b"first value").expect("put");
        store.put(b"t\0b", b"second value").expect("put");
        store.checkpoint().expect("checkpoint");
        // Flip one byte of the second frame's value on disk.
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).expect("read segment");
        let at = bytes.len() - 3;
        bytes[at] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("write segment");
        assert!(matches!(
            store.scan_prefix(b"t\0"),
            Err(StoreError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_prefix_returns_only_the_table() {
        let dir = scratch("prefix");
        let store = Store::open(&dir, &registry()).expect("open");
        store.put(b"a\0k1", b"1").expect("put");
        store.put(b"a\0k2", b"2").expect("put");
        store.put(b"ab\0k9", b"9").expect("put");
        let hits = store.scan_prefix(b"a\0").expect("scan");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, b"a\0k1");
        assert_eq!(hits[1].0, b"a\0k2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
