//! The process-wide compile cache: cross-request schedule reuse for a
//! long-running compile service.
//!
//! The paper's premise is that memory-optimal schedules are *expensive to
//! find* (the DP/beam searches of §3.1–3.2) but *cheap to replay* — and
//! networks from one NAS family share cells and whole segments, so most of
//! the search work recurs across compile requests. Within one request, a
//! schedule memo (an in-memory overlay private to the crate) already replays
//! the segments that recur between rewrite↔schedule iterations;
//! [`CompileCache`] keeps segment schedules for the whole process: a
//! thread-safe, sharded, byte-budgeted LRU keyed by
//!
//! * the **backend identity** —
//!   [`config_fingerprint`](crate::backend::SchedulerBackend::config_fingerprint),
//!   which folds the backend name and every result-affecting configuration
//!   knob into one canonical hash, so `dp` and `beam` (or two
//!   differently-budgeted `dp`s) can never replay each other's schedules,
//!   XOR-salted with a traffic-steering capacity target
//!   ([`CapacityTarget::cache_salt`](crate::capacity::CapacityTarget::cache_salt)),
//!   and
//! * the **graph structure** — [`serenity_ir::fingerprint::fingerprint`],
//!   the same name-insensitive canonical hash the schedule memo uses, plus
//!   the pinned boundary prefix a divide-and-conquer segment was scheduled
//!   under.
//!
//! An entry holds the segment's [`Structure`] — the canonical byte encoding
//! of what [`serenity_ir::fingerprint::structural_eq`] compares, a few bytes
//! per node — with the prefix, the order and the peak; no graph clone. The
//! byte budget charges what an entry actually holds: those three slices plus
//! a fixed per-entry overhead ([`CompileCache::entry_bytes`]).
//!
//! [`DivideAndConquer`](crate::divide::DivideAndConquer) is the only code
//! that forms that key and reads or writes the cache: per segment it looks
//! up the request's memo first, then the cache, and backfills a cache hit
//! into the memo. A plain compile writes its misses through at once; the
//! rewrite search keeps its candidates' misses in its run memo and
//! publishes that memo once, when the search ends, so concurrently scored
//! candidates never write the shared cache.
//!
//! Hits are exact, not probabilistic: both hashes can collide, so every hit
//! is confirmed by the backend key, the prefix and byte equality of the
//! [`Structure`] before a stored schedule is replayed — a collision
//! degrades to a miss, never to a wrong schedule. And because every backend
//! is a deterministic function of the (structural) graph — none reads a
//! clock: `adaptive` times a probe out on a per-step state cap, and a
//! deadline aborts a search without changing what it returns — a replayed
//! schedule is bit-identical to what a fresh search would have produced:
//! **warm compiles equal cold compiles**, byte for byte. That invariant is
//! what makes sharing one cache across threads and requests safe — a hit
//! can change *when* an answer arrives, never *what* it is.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use serenity_core::cache::CompileCache;
//! use serenity_core::pipeline::Serenity;
//! use serenity_ir::{DType, GraphBuilder, Padding};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new("cell");
//! let x = b.image_input("x", 8, 8, 8, DType::F32);
//! let l = b.conv1x1(x, 8)?;
//! let r = b.conv1x1(x, 8)?;
//! let cat = b.concat(&[l, r])?;
//! let y = b.conv(cat, 8, (3, 3), (1, 1), Padding::Same)?;
//! b.mark_output(y);
//! let g = b.finish();
//!
//! // One shared cache, two requests: the second compile replays the
//! // first one's segment schedules and returns a bit-identical result.
//! let cache = Arc::new(CompileCache::new());
//! let compiler = Serenity::builder().compile_cache(Arc::clone(&cache)).build();
//! let cold = compiler.compile(&g)?;
//! let warm = compiler.compile(&g)?;
//! assert_eq!(cold.schedule, warm.schedule);
//! assert!(warm.stats.cache_hits > 0, "the warm request must reuse the cold one's work");
//! # Ok(())
//! # }
//! ```
//!
//! # Locking
//!
//! The cache is sharded: each shard owns an independent `Mutex`, entries
//! are routed by key hash, and no operation ever holds more than one shard
//! lock — so there is no lock-ordering and no possibility of deadlock
//! between concurrent compiles. Shard locks also recover from poisoning
//! (a thread that panicked mid-operation leaves behind, at worst, a
//! consistent-but-partial shard; every entry is still confirmed
//! by its structure on hit), so one panicking compile cannot take the cache
//! down for the rest of the process.

use std::hash::Hasher as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::{fs, io};

use serde::{Deserialize, Serialize};
use serenity_ir::fingerprint::{fingerprint, Structure};
use serenity_ir::fxhash::{FxHashMap, FxHasher};
use serenity_ir::{Graph, NodeId};

use crate::fault::{FaultPlan, FaultPoint};
use crate::Schedule;

/// Construction knobs of a [`CompileCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileCacheConfig {
    /// Total byte budget across all shards: the bytes resident entries
    /// hold — each entry's structure encoding, prefix and order plus a
    /// fixed overhead, counted exactly, not estimated (see
    /// [`CompileCache::entry_bytes`]).
    /// Inserting past the budget evicts least-recently-used entries down to
    /// a low watermark (7/8 of the budget, so eviction scans amortize); an
    /// entry larger than its shard's slice of the budget is not admitted at
    /// all (it could only thrash).
    pub max_bytes: u64,
    /// Number of independently locked shards. More shards mean less
    /// contention between concurrent compiles but a coarser (per-shard)
    /// LRU horizon. Clamped to at least 1.
    pub shards: usize,
}

impl Default for CompileCacheConfig {
    /// 64 MiB across 16 shards: comfortably holds every segment of the
    /// benchmark suite many times over while staying irrelevant next to a
    /// compile service's working set.
    fn default() -> Self {
        CompileCacheConfig { max_bytes: 64 * 1024 * 1024, shards: 16 }
    }
}

/// Point-in-time counters of a [`CompileCache`] (process-wide totals since
/// construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that replayed a stored schedule (confirmed by structure).
    pub hits: u64,
    /// Lookups that found nothing (including collision-confirm failures).
    pub misses: u64,
    /// Entries admitted (first-write-wins; duplicate inserts don't count).
    pub insertions: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes resident entries hold: each entry's structure encoding,
    /// prefix and order plus a fixed overhead (the budget's measure).
    pub entry_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`; `0.0` before the first
    /// lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One cached schedule: the full identity needed for an exact hit confirm,
/// plus LRU bookkeeping.
#[derive(Clone)]
struct CacheEntry {
    /// Backend identity (`SchedulerBackend::config_fingerprint`) the
    /// schedule was produced by. Part of the key: schedules never cross
    /// backends or configurations.
    backend_key: u64,
    /// The structure of the graph the schedule belongs to, kept for exact
    /// hit confirmation.
    structure: Structure,
    /// The pinned prefix the schedule was produced under: a schedule
    /// computed unpinned need not lead with the boundary placeholder, so it
    /// must never replay into a pinned segment (or vice versa).
    prefix: Box<[NodeId]>,
    order: Box<[NodeId]>,
    peak_bytes: u64,
    /// The bytes the entry holds, charged against the shard budget.
    charge: u64,
    /// Global LRU clock value at the last hit (or admission).
    last_used: u64,
}

impl CacheEntry {
    fn matches(&self, backend_key: u64, structure: &Structure, prefix: &[NodeId]) -> bool {
        self.backend_key == backend_key && *self.prefix == *prefix && self.structure == *structure
    }
}

#[derive(Default)]
struct Shard {
    /// Mixed (backend, graph) hash → entries; collisions share a bucket
    /// and are separated by the structural confirm.
    buckets: FxHashMap<u64, Vec<CacheEntry>>,
    /// Bytes currently charged to this shard.
    bytes: u64,
}

/// The process-wide, thread-safe schedule cache (see the module docs).
pub struct CompileCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard slice of [`CompileCacheConfig::max_bytes`].
    shard_budget: u64,
    budget_bytes: u64,
    /// Monotonic LRU clock, bumped on every hit and admission.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    /// Armed fault-injection plan for the persistence paths (test-only;
    /// see [`crate::fault`]).
    fault: Mutex<Option<Arc<FaultPlan>>>,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CompileCache")
            .field("entries", &stats.entries)
            .field("entry_bytes", &stats.entry_bytes)
            .field("budget_bytes", &stats.budget_bytes)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::with_config(CompileCacheConfig::default())
    }
}

/// Mixes the backend identity into the graph fingerprint so the two halves
/// of the key land in one well-distributed bucket hash.
fn mixed_key(backend_key: u64, graph_key: u64) -> u64 {
    // splitmix64 finalizer over the XOR of the halves: cheap, and either
    // half changing reshuffles the whole key.
    let mut z = backend_key ^ graph_key.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CompileCache {
    /// A cache with the default configuration (64 MiB, 16 shards).
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// A cache with the default shard count and the given byte budget.
    pub fn with_budget(max_bytes: u64) -> Self {
        CompileCache::with_config(CompileCacheConfig { max_bytes, ..CompileCacheConfig::default() })
    }

    /// A cache with the given configuration.
    pub fn with_config(config: CompileCacheConfig) -> Self {
        let shards = config.shards.max(1);
        CompileCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: config.max_bytes / shards as u64,
            budget_bytes: config.max_bytes,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fault: Mutex::new(None),
        }
    }

    /// Arms a fault-injection plan for this cache's persistence paths
    /// ([`FaultPoint::PersistIoError`], [`FaultPoint::SnapshotCorrupt`];
    /// test-only surface, see [`crate::fault`]).
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault.lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
    }

    /// Locks the shard owning `key`, recovering from poisoning: a panic in
    /// another compile leaves the shard's entries intact (inserts are
    /// single `Vec::push`es of fully built entries), so continuing is safe
    /// — and every hit is confirmed by its structure regardless.
    fn shard_for(&self, key: u64) -> MutexGuard<'_, Shard> {
        let index = (key as usize) % self.shards.len();
        self.shards[index].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The bytes one entry holds: its structure encoding, prefix and order,
    /// plus a fixed overhead for the entry itself and its bucket slot.
    fn charge_for(structure: &Structure, prefix: &[NodeId], order: &[NodeId]) -> u64 {
        use std::mem::size_of;
        const ENTRY_OVERHEAD: usize = size_of::<CacheEntry>() + size_of::<(u64, Vec<CacheEntry>)>();
        (ENTRY_OVERHEAD
            + structure.as_bytes().len()
            + (prefix.len() + order.len()) * size_of::<NodeId>()) as u64
    }

    /// Returns the cached schedule of a graph with this `structure` that
    /// was produced by the backend identified by `backend_key` under the
    /// same pinned `prefix`. `graph_key` is the caller-computed
    /// [`serenity_ir::fingerprint::fingerprint`] of the graph (compute once,
    /// share with [`CompileCache::insert`]). Counts a hit or a miss and
    /// refreshes the entry's LRU position on hit.
    pub fn lookup(
        &self,
        backend_key: u64,
        graph_key: u64,
        structure: &Structure,
        prefix: &[NodeId],
    ) -> Option<Schedule> {
        let key = mixed_key(backend_key, graph_key);
        let found = {
            let mut shard = self.shard_for(key);
            shard.buckets.get_mut(&key).and_then(|bucket| {
                bucket.iter_mut().find(|e| e.matches(backend_key, structure, prefix)).map(|e| {
                    e.last_used = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                    Schedule { order: e.order.to_vec(), peak_bytes: e.peak_bytes }
                })
            })
        };
        match found {
            Some(schedule) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(schedule)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `schedule` (produced by backend `backend_key` under pinned
    /// `prefix`) for the graph with this `structure` under `graph_key`.
    /// First write wins — all backends are deterministic, so a duplicate
    /// insert carries an identical schedule anyway. Admission may evict
    /// least-recently-used entries of the target shard to stay under the
    /// byte budget; an entry larger than one shard's whole budget is not
    /// admitted.
    pub fn insert(
        &self,
        backend_key: u64,
        graph_key: u64,
        structure: Structure,
        prefix: &[NodeId],
        schedule: &Schedule,
    ) {
        let charge = CompileCache::charge_for(&structure, prefix, &schedule.order);
        if charge > self.shard_budget {
            return;
        }
        let key = mixed_key(backend_key, graph_key);
        let mut evicted = 0u64;
        {
            let mut shard = self.shard_for(key);
            let bucket = shard.buckets.entry(key).or_default();
            if bucket.iter().any(|e| e.matches(backend_key, &structure, prefix)) {
                return;
            }
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            bucket.push(CacheEntry {
                backend_key,
                structure,
                prefix: prefix.into(),
                order: schedule.order.as_slice().into(),
                peak_bytes: schedule.peak_bytes,
                charge,
                last_used: stamp,
            });
            shard.bytes += charge;
            if shard.bytes > self.shard_budget {
                // Evict below a low watermark (7/8 of the budget), not just
                // below the budget: one scan then buys headroom for many
                // admissions, so steady-state inserts at the budget stay
                // amortized-cheap instead of scanning the shard every time.
                let target = self.shard_budget - self.shard_budget / 8;
                evicted = evict_lru_to(&mut shard, target);
            }
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Number of resident entries (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().unwrap_or_else(PoisonError::into_inner);
                shard.buckets.values().map(Vec::len).sum::<usize>()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes resident entries hold: each entry's structure encoding, prefix
    /// and order plus a fixed per-entry overhead. This is what the byte
    /// budget ([`CompileCacheConfig::max_bytes`]) bounds.
    pub fn entry_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).bytes).sum()
    }

    /// A point-in-time snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            entry_bytes: self.entry_bytes(),
            budget_bytes: self.budget_bytes,
        }
    }

    /// Serializes every resident entry to per-shard JSON files
    /// (`shard-NNN.json`) under `dir`, creating the directory if needed and
    /// replacing any previous save. A restarted process that
    /// [`load_from_dir`](CompileCache::load_from_dir)s the directory starts
    /// warm instead of recompiling its whole working set.
    ///
    /// Entries are written oldest-first, so a reload replays admissions in
    /// recency order and restores the LRU horizon. Each entry's graph is
    /// rebuilt from its structure ([`Structure::to_graph`]), so node names
    /// in the file are placeholders.
    ///
    /// The save is crash-safe in two phases: every shard is first written
    /// in full to a temporary name (and fsynced), and only then are the
    /// temporaries renamed over the previous files and stale files from an
    /// older save removed. A crash during phase one leaves the previous
    /// snapshot byte-for-byte intact; a crash mid-rename leaves a mix of
    /// old and new shard files, each individually complete and
    /// checksummed, which the next load admits entry by entry. Each file
    /// carries a header line with the format version and an FxHash
    /// checksum of the payload, so bit-level corruption is caught on load
    /// even when the damaged bytes still parse as JSON. Snapshots are
    /// taken per shard under its lock, but graph rebuilding, serialization
    /// and file IO happen after the lock is released, so saving never
    /// blocks concurrent compiles for longer than copying the shard's
    /// entries.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (directory creation, writes, renames).
    pub fn save_to_dir(&self, dir: &Path) -> io::Result<PersistReport> {
        fs::create_dir_all(dir)?;
        let fault = self.fault.lock().unwrap_or_else(PoisonError::into_inner).clone();
        if fault.as_ref().is_some_and(|f| f.should_fire(FaultPoint::PersistIoError)) {
            return Err(io::Error::other("injected fault: persistence io error"));
        }
        // Phase 1: write every shard to a temporary file. The previous
        // snapshot stays untouched until every new shard is durably on
        // disk.
        let mut report = PersistReport::default();
        let mut staged: Vec<(PathBuf, PathBuf)> = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let mut stamped: Vec<CacheEntry> = {
                let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                shard.buckets.values().flatten().cloned().collect()
            };
            stamped.sort_by_key(|e| e.last_used);
            let entries = stamped
                .into_iter()
                .map(|e| {
                    Ok(PersistedEntry {
                        backend_key: e.backend_key,
                        graph: e.structure.to_graph()?,
                        prefix: e.prefix.into(),
                        order: e.order.into(),
                        peak_bytes: e.peak_bytes,
                    })
                })
                .collect::<Result<Vec<_>, serenity_ir::GraphError>>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let file = PersistedShard { entries };
            report.entries_ok += file.entries.len();
            let text = encode_shard(&file)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let path = shard_file(dir, i);
            let tmp = path.with_extension("json.tmp");
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(text.as_bytes())?;
                f.sync_all()?;
            }
            staged.push((tmp, path));
        }
        // Phase 2: atomically flip each shard into place.
        let new_files: Vec<PathBuf> = staged.iter().map(|(_, path)| path.clone()).collect();
        for (tmp, path) in staged {
            fs::rename(&tmp, &path)?;
            report.shards_ok += 1;
        }
        // Phase 3: drop stale files from a previous save — the shard count
        // may have shrunk, and a leftover shard would resurrect evicted
        // entries on the next load — plus any temporaries a crashed save
        // left behind.
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let stale_shard = is_shard_file(&path) && !new_files.contains(&path);
            let stale_tmp =
                path.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with(".json.tmp"));
            if stale_shard || stale_tmp {
                let _ = fs::remove_file(path);
            }
        }
        if fault.as_ref().is_some_and(|f| f.should_fire(FaultPoint::SnapshotCorrupt)) {
            corrupt_one_shard(dir);
        }
        Ok(report)
    }

    /// Re-admits the entries saved under `dir` by
    /// [`save_to_dir`](CompileCache::save_to_dir).
    ///
    /// Files are **not trusted**: every entry is re-validated — the graph
    /// structurally ([`Graph::validate`]), the order by recomputing its
    /// peak ([`Schedule::from_order`]) and confirming it matches the stored
    /// value — re-encoded ([`Structure::of`]; node names in the file do
    /// not matter) and re-admitted through the normal [`insert`] path, so
    /// budget accounting and shard routing apply exactly
    /// as they would to fresh compiles (a load can therefore also migrate
    /// between shard counts and byte budgets). A corrupt shard file —
    /// truncated, bit-flipped (checksum mismatch), unparseable, or the
    /// wrong format version — is **quarantined**: renamed aside with a
    /// `.quarantined` suffix so it is never re-read, counted in
    /// [`PersistReport::shards_quarantined`], and the shard simply starts
    /// cold. A tampered entry inside a structurally sound file is dropped
    /// and counted in [`PersistReport::entries_rejected`]. Neither is
    /// ever a crash, and a validated entry replayed from disk remains
    /// bit-identical to a fresh compile.
    ///
    /// [`insert`]: CompileCache::insert
    ///
    /// # Errors
    ///
    /// Only if `dir` itself cannot be read; per-file failures degrade
    /// softly as described.
    pub fn load_from_dir(&self, dir: &Path) -> io::Result<PersistReport> {
        let mut report = PersistReport::default();
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| is_shard_file(p))
            .collect();
        paths.sort();
        for path in paths {
            let parsed: Option<PersistedShard> =
                fs::read_to_string(&path).ok().and_then(|text| decode_shard(&text));
            let Some(file) = parsed else {
                report.shards_failed += 1;
                report.shards_quarantined += 1;
                quarantine_shard_file(&path);
                continue;
            };
            report.shards_ok += 1;
            for e in file.entries {
                let confirmed = e.graph.validate().is_ok()
                    && e.prefix.iter().all(|p| p.index() < e.graph.len())
                    && Schedule::from_order(&e.graph, e.order.clone())
                        .is_ok_and(|s| s.peak_bytes == e.peak_bytes);
                if !confirmed {
                    report.entries_rejected += 1;
                    continue;
                }
                let schedule = Schedule { order: e.order, peak_bytes: e.peak_bytes };
                let structure = Structure::of(&e.graph);
                self.insert(e.backend_key, fingerprint(&e.graph), structure, &e.prefix, &schedule);
                report.entries_ok += 1;
            }
        }
        Ok(report)
    }
}

/// Version tag of the on-disk shard format; a mismatch quarantines the
/// file rather than attempting a cross-version parse. Version 2 moved the
/// version into a checksummed header line (version 1 files — a single
/// JSON document with an inline `version` field — are quarantined on
/// load and the shard starts cold).
const PERSIST_VERSION: u32 = 2;

/// One cache entry in its on-disk form: the same self-contained identity
/// and payload as a live entry, minus LRU bookkeeping (recency is encoded
/// by position in the file instead).
#[derive(Serialize, Deserialize)]
struct PersistedEntry {
    backend_key: u64,
    graph: Graph,
    prefix: Vec<NodeId>,
    order: Vec<NodeId>,
    peak_bytes: u64,
}

/// On-disk payload of one shard (the second line of the file):
/// `{ "entries": [...] }`.
#[derive(Serialize, Deserialize)]
struct PersistedShard {
    entries: Vec<PersistedEntry>,
}

/// First line of a shard file: the format version plus an FxHash
/// checksum of the payload line's exact bytes. Checksumming the raw
/// bytes (rather than re-serializing parsed data) makes any bit flip in
/// the payload detectable, even one that leaves the JSON well-formed.
#[derive(Serialize, Deserialize)]
struct ShardHeader {
    version: u32,
    checksum: u64,
}

/// Serializes a shard to its two-line on-disk form.
fn encode_shard(shard: &PersistedShard) -> Result<String, serde_json::Error> {
    let payload = serde_json::to_string(shard)?;
    let header = serde_json::to_string(&ShardHeader {
        version: PERSIST_VERSION,
        checksum: payload_checksum(&payload),
    })?;
    Ok(format!("{header}\n{payload}"))
}

/// Parses and verifies a shard file; `None` on any corruption (missing
/// header, bad version, checksum mismatch, unparseable payload).
fn decode_shard(text: &str) -> Option<PersistedShard> {
    let (header, payload) = text.split_once('\n')?;
    let header: ShardHeader = serde_json::from_str(header).ok()?;
    if header.version != PERSIST_VERSION || header.checksum != payload_checksum(payload) {
        return None;
    }
    serde_json::from_str(payload).ok()
}

/// FxHash of the payload's exact bytes (deterministic across processes:
/// FxHash has no per-process seed).
fn payload_checksum(payload: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(payload.as_bytes());
    hasher.finish()
}

/// Moves a corrupt shard file aside (best effort) so it is never
/// re-read: `shard-007.json` becomes `shard-007.json.quarantined`,
/// which [`is_shard_file`] no longer matches.
fn quarantine_shard_file(path: &Path) {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return;
    };
    let _ = fs::rename(path, path.with_file_name(format!("{name}.quarantined")));
}

/// Flips the last byte of the lowest-numbered shard file under `dir`
/// (the [`FaultPoint::SnapshotCorrupt`] injection: the next load must
/// quarantine the damaged shard instead of trusting or crashing on it).
fn corrupt_one_shard(dir: &Path) {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => {
            entries.filter_map(Result::ok).map(|e| e.path()).filter(|p| is_shard_file(p)).collect()
        }
        Err(_) => return,
    };
    paths.sort();
    let Some(path) = paths.first() else {
        return;
    };
    if let Ok(mut bytes) = fs::read(path) {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0xFF;
            let _ = fs::write(path, bytes);
        }
    }
}

/// Outcome of a [`CompileCache::save_to_dir`] /
/// [`CompileCache::load_from_dir`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PersistReport {
    /// Shard files written (save) or parsed successfully (load).
    pub shards_ok: usize,
    /// Shard files skipped on load — unreadable, truncated, unparseable,
    /// checksum-mismatched, or the wrong format version. The
    /// corresponding entries simply start cold.
    pub shards_failed: usize,
    /// Entries written (save) or re-admitted (load).
    pub entries_ok: usize,
    /// Entries dropped by load-time validation (invalid graph, invalid
    /// order, or an inconsistent stored peak).
    pub entries_rejected: usize,
    /// Corrupt shard files renamed aside with a `.quarantined` suffix on
    /// load (a subset bookkeeping of [`PersistReport::shards_failed`]:
    /// every failed shard that still existed on disk is quarantined).
    pub shards_quarantined: usize,
}

impl PersistReport {
    /// Whether anything was skipped — worth a warning in service logs.
    pub fn degraded(&self) -> bool {
        self.shards_failed > 0 || self.entries_rejected > 0
    }
}

fn shard_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index:03}.json"))
}

fn is_shard_file(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".json"))
}

/// Evicts least-recently-used entries of `shard` until its charged bytes
/// drop to `target` (or the shard is empty). One scan + sort, then removal
/// in LRU order; `last_used` stamps are unique (the clock is bumped per
/// admission and per hit), so a `(stamp, key)` pair identifies one entry.
/// Returns the number of evicted entries.
fn evict_lru_to(shard: &mut Shard, target: u64) -> u64 {
    let mut stamps: Vec<(u64, u64)> = shard
        .buckets
        .iter()
        .flat_map(|(&key, bucket)| bucket.iter().map(move |e| (e.last_used, key)))
        .collect();
    stamps.sort_unstable();
    let mut evicted = 0;
    for (stamp, key) in stamps {
        if shard.bytes <= target {
            break;
        }
        remove_entry(shard, key, stamp);
        evicted += 1;
    }
    evicted
}

/// Removes the entry identified by `(key, stamp)` from `shard`, maintaining
/// the byte account. Stamps are unique (the clock is bumped per admission
/// and per hit), so the pair identifies exactly one entry.
fn remove_entry(shard: &mut Shard, key: u64, stamp: u64) {
    let bucket = shard.buckets.get_mut(&key).expect("victim bucket exists");
    let index = bucket.iter().position(|e| e.last_used == stamp).expect("victim entry exists");
    let entry = bucket.remove(index);
    shard.bytes -= entry.charge;
    if bucket.is_empty() {
        shard.buckets.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serenity_ir::fingerprint::fingerprint;
    use serenity_ir::topo;

    fn chain(name: &str, bytes: u64) -> Graph {
        let mut g = Graph::new(name);
        let a = g.add_opaque(format!("{name}_a"), bytes, &[]).unwrap();
        let b = g.add_opaque(format!("{name}_b"), bytes * 2, &[a]).unwrap();
        g.add_opaque(format!("{name}_c"), bytes.max(2) / 2, &[b]).unwrap();
        g
    }

    fn schedule_of(g: &Graph) -> Schedule {
        Schedule::from_order(g, topo::kahn(g)).unwrap()
    }

    /// A single-shard cache sized to hold exactly `entries` chain graphs,
    /// so LRU behavior is deterministic in tests.
    fn small_cache(entries: u64) -> CompileCache {
        let g = chain("sizer", 8);
        let s = schedule_of(&g);
        let per_entry = CompileCache::charge_for(&Structure::of(&g), &[], &s.order);
        CompileCache::with_config(CompileCacheConfig {
            max_bytes: per_entry * entries + per_entry / 2,
            shards: 1,
        })
    }

    /// A unique scratch directory under the system temp dir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "serenity-cache-test-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hit_replays_across_renamed_twins() {
        let cache = CompileCache::new();
        let g = chain("g", 8);
        let s = schedule_of(&g);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &s);

        let twin = chain("renamed", 8);
        let replayed =
            cache.lookup(1, fingerprint(&twin), &Structure::of(&twin), &[]).expect("twin hits");
        assert_eq!(replayed, s);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 0, 1));
    }

    #[test]
    fn backend_keys_never_cross_hit() {
        // The same graph scheduled by two different backend identities must
        // produce two independent entries: dp can never replay beam.
        let cache = CompileCache::new();
        let g = chain("g", 8);
        let key = fingerprint(&g);
        let s = schedule_of(&g);
        cache.insert(0xD0, key, Structure::of(&g), &[], &s);
        assert!(
            cache.lookup(0xBEA, key, &Structure::of(&g), &[]).is_none(),
            "other backend must miss"
        );
        cache.insert(0xBEA, key, Structure::of(&g), &[], &s);
        assert_eq!(cache.len(), 2, "backends keep distinct entries");
        assert!(cache.lookup(0xD0, key, &Structure::of(&g), &[]).is_some());
    }

    #[test]
    fn pinned_prefix_is_part_of_the_identity() {
        let cache = CompileCache::new();
        let g = chain("g", 8);
        let key = fingerprint(&g);
        let s = schedule_of(&g);
        cache.insert(1, key, Structure::of(&g), &[], &s);
        let pin = [NodeId::from_index(0)];
        assert!(cache.lookup(1, key, &Structure::of(&g), &pin).is_none());
        cache.insert(1, key, Structure::of(&g), &pin, &s);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn colliding_keys_are_confirmed_structurally() {
        // Force two different graphs under the same (backend, graph) key:
        // the structural confirm must separate them.
        let cache = CompileCache::new();
        let g = chain("g", 8);
        let h = chain("h", 64);
        let gs = schedule_of(&g);
        let hs = schedule_of(&h);
        cache.insert(1, 42, Structure::of(&g), &[], &gs);
        cache.insert(1, 42, Structure::of(&h), &[], &hs);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(1, 42, &Structure::of(&h), &[]).unwrap().peak_bytes, hs.peak_bytes);
        assert_eq!(cache.lookup(1, 42, &Structure::of(&g), &[]).unwrap().peak_bytes, gs.peak_bytes);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let cache = CompileCache::new();
        let g = chain("g", 8);
        let s = schedule_of(&g);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &s);
        cache.insert(1, fingerprint(&g), Structure::of(&chain("renamed", 8)), &[], &s);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn lru_evicts_at_the_byte_budget() {
        let cache = small_cache(2);
        let graphs: Vec<Graph> = (0..3).map(|i| chain(&format!("g{i}"), 8 + i)).collect();
        let keys: Vec<u64> = graphs.iter().map(fingerprint).collect();
        let schedules: Vec<Schedule> = graphs.iter().map(schedule_of).collect();

        cache.insert(1, keys[0], Structure::of(&graphs[0]), &[], &schedules[0]);
        cache.insert(1, keys[1], Structure::of(&graphs[1]), &[], &schedules[1]);
        assert_eq!(cache.len(), 2, "two entries fit the budget");

        // Touch entry 0 so entry 1 is the LRU victim, then overflow.
        assert!(cache.lookup(1, keys[0], &Structure::of(&graphs[0]), &[]).is_some());
        cache.insert(1, keys[2], Structure::of(&graphs[2]), &[], &schedules[2]);

        assert_eq!(cache.len(), 2, "the third insert must evict");
        assert!(
            cache.lookup(1, keys[0], &Structure::of(&graphs[0]), &[]).is_some(),
            "recently used survives"
        );
        assert!(
            cache.lookup(1, keys[1], &Structure::of(&graphs[1]), &[]).is_none(),
            "LRU entry was evicted"
        );
        assert!(
            cache.lookup(1, keys[2], &Structure::of(&graphs[2]), &[]).is_some(),
            "new entry resident"
        );
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.entry_bytes <= stats.budget_bytes);
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        // An entry that could never fit must not evict the whole shard
        // only to be evicted itself.
        let cache = CompileCache::with_config(CompileCacheConfig { max_bytes: 64, shards: 1 });
        let g = chain("g", 8);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &schedule_of(&g));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn contended_access_completes() {
        // Many threads hammering lookups and inserts on few shards: no
        // deadlock (single-lock discipline) and consistent final counters.
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 2 });
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..32 {
                        let g = chain(&format!("t{}_{}", t % 2, i % 4), 8 + (i % 4) as u64);
                        let key = fingerprint(&g);
                        let s = schedule_of(&g);
                        cache.insert(t % 3, key, Structure::of(&g), &[], &s);
                        assert_eq!(cache.lookup(t % 3, key, &Structure::of(&g), &[]), Some(s));
                    }
                });
            }
        });
        // 2 graph-name streams × 4 byte variants × 3 backend keys at most
        // (name is not part of the fingerprint, so t0/t1 streams collapse).
        assert!(cache.len() <= 12, "first-write-wins bounds residency, got {}", cache.len());
        let stats = cache.stats();
        assert_eq!(stats.hits, 8 * 32);
    }

    #[test]
    fn poisoned_shard_recovers_without_deadlock() {
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 1 });
        let g = chain("g", 8);
        let key = fingerprint(&g);
        let s = schedule_of(&g);
        cache.insert(1, key, Structure::of(&g), &[], &s);

        // Poison the only shard: a thread panics while holding its lock.
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.shards[0].lock().unwrap();
                    panic!("poison the shard lock");
                })
                .join()
        });
        assert!(result.is_err(), "the poisoning thread must have panicked");
        assert!(cache.shards[0].is_poisoned());

        // Every operation still works: no deadlock, no panic, data intact.
        assert_eq!(cache.lookup(1, key, &Structure::of(&g), &[]), Some(s.clone()));
        let h = chain("h", 16);
        cache.insert(1, fingerprint(&h), Structure::of(&h), &[], &schedule_of(&h));
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().entry_bytes > 0);
    }

    #[test]
    fn hit_rate_tracks_the_counters() {
        let cache = CompileCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0, "no lookups yet");
        let g = chain("g", 8);
        let key = fingerprint(&g);
        let s = schedule_of(&g);
        assert!(cache.lookup(1, key, &Structure::of(&g), &[]).is_none());
        cache.insert(1, key, Structure::of(&g), &[], &s);
        assert!(cache.lookup(1, key, &Structure::of(&g), &[]).is_some());
        assert!(cache.lookup(1, key, &Structure::of(&g), &[]).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn persistence_round_trip_preserves_entries_and_budget() {
        let dir = scratch_dir("roundtrip");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 4 });
        let graphs: Vec<Graph> = (0..6).map(|i| chain(&format!("g{i}"), 8 + i)).collect();
        let keys: Vec<u64> = graphs.iter().map(fingerprint).collect();
        let schedules: Vec<Schedule> = graphs.iter().map(schedule_of).collect();
        for i in 0..6 {
            cache.insert(7, keys[i], Structure::of(&graphs[i]), &[], &schedules[i]);
        }
        // One entry with a pinned prefix, as divide-and-conquer stores them.
        let pin = [NodeId::from_index(0)];
        cache.insert(7, keys[0], Structure::of(&graphs[0]), &pin, &schedules[0]);

        let saved = cache.save_to_dir(&dir).unwrap();
        assert_eq!(saved.shards_ok, 4);
        assert_eq!(saved.entries_ok, 7);
        assert!(!saved.degraded());

        let restored =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 4 });
        let loaded = restored.load_from_dir(&dir).unwrap();
        assert_eq!(loaded.shards_ok, 4);
        assert_eq!(loaded.entries_ok, 7);
        assert_eq!(loaded.entries_rejected, 0);

        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.entry_bytes(), cache.entry_bytes(), "budget accounting matches");
        for i in 0..6 {
            assert_eq!(
                restored.lookup(7, keys[i], &Structure::of(&graphs[i]), &[]),
                Some(schedules[i].clone()),
                "entry {i} replays bit-identically after restart"
            );
        }
        assert_eq!(
            restored.lookup(7, keys[0], &Structure::of(&graphs[0]), &pin),
            Some(schedules[0].clone())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_of_named_graphs_loads_warm() {
        // Entries persist as graphs; a snapshot written when entries held
        // whole graphs carries their real node names. It loads, counts and
        // hits like one written from structures.
        let dir = scratch_dir("named");
        std::fs::create_dir_all(&dir).unwrap();
        let graphs: Vec<Graph> = (0..3).map(|i| chain(&format!("named{i}"), 8 + i)).collect();
        let pin = [NodeId::from_index(0)];
        let entries = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let s = schedule_of(g);
                let prefix = if i == 0 { pin.to_vec() } else { Vec::new() };
                PersistedEntry {
                    backend_key: 5,
                    graph: g.clone(),
                    prefix,
                    order: s.order,
                    peak_bytes: s.peak_bytes,
                }
            })
            .collect();
        let text = encode_shard(&PersistedShard { entries }).unwrap();
        assert!(text.contains("named1_b"), "the shard carries real node names");
        std::fs::write(dir.join("shard-000.json"), text).unwrap();

        let cache = CompileCache::new();
        let report = cache.load_from_dir(&dir).unwrap();
        assert_eq!((report.shards_ok, report.entries_ok, report.entries_rejected), (1, 3, 0));
        for (i, g) in graphs.iter().enumerate() {
            let prefix: &[NodeId] = if i == 0 { &pin } else { &[] };
            let twin = chain("renamed", 8 + i as u64);
            assert_eq!(
                cache.lookup(5, fingerprint(&twin), &Structure::of(&twin), prefix),
                Some(schedule_of(g)),
                "entry {i} hits"
            );
        }
        assert_eq!(cache.stats().hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_preserves_lru_recency() {
        let dir = scratch_dir("recency");
        let cache = small_cache(2);
        let graphs: Vec<Graph> = (0..3).map(|i| chain(&format!("g{i}"), 8 + i)).collect();
        let keys: Vec<u64> = graphs.iter().map(fingerprint).collect();
        cache.insert(1, keys[0], Structure::of(&graphs[0]), &[], &schedule_of(&graphs[0]));
        cache.insert(1, keys[1], Structure::of(&graphs[1]), &[], &schedule_of(&graphs[1]));
        // Touch entry 0 so entry 1 is the LRU victim after a reload too.
        assert!(cache.lookup(1, keys[0], &Structure::of(&graphs[0]), &[]).is_some());
        cache.save_to_dir(&dir).unwrap();

        let restored = small_cache(2);
        restored.load_from_dir(&dir).unwrap();
        restored.insert(1, keys[2], Structure::of(&graphs[2]), &[], &schedule_of(&graphs[2]));
        assert!(
            restored.lookup(1, keys[0], &Structure::of(&graphs[0]), &[]).is_some(),
            "recently-used entry survives the post-restart eviction"
        );
        assert!(
            restored.lookup(1, keys[1], &Structure::of(&graphs[1]), &[]).is_none(),
            "the pre-save LRU victim is evicted first after restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_shard_degrades_to_cold_not_crash() {
        let dir = scratch_dir("corrupt");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 2 });
        // Several graphs so both shards get at least one entry with high
        // probability; assert on totals rather than per-shard placement.
        let graphs: Vec<Graph> = (0..8).map(|i| chain(&format!("g{i}"), 8 + i)).collect();
        for g in &graphs {
            cache.insert(1, fingerprint(g), Structure::of(g), &[], &schedule_of(g));
        }
        cache.save_to_dir(&dir).unwrap();
        std::fs::write(dir.join("shard-000.json"), "{ definitely not json").unwrap();

        let restored =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 2 });
        let report = restored.load_from_dir(&dir).unwrap();
        assert_eq!(report.shards_failed, 1, "the corrupted shard is skipped");
        assert_eq!(report.shards_quarantined, 1, "and quarantined");
        assert_eq!(report.shards_ok, 1, "the intact shard still loads");
        assert!(report.degraded());
        assert!(restored.len() < cache.len(), "corrupted shard's entries are gone");
        assert!(!restored.is_empty(), "intact shard's entries survive");
        assert!(
            dir.join("shard-000.json.quarantined").exists(),
            "the corrupt file is renamed aside"
        );
        assert!(!dir.join("shard-000.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_entries_are_rejected_on_load() {
        let dir = scratch_dir("tamper");
        std::fs::create_dir_all(&dir).unwrap();
        let g = chain("g", 8);
        let s = schedule_of(&g);
        // A wrong stored peak (evidence of tampering or a stale format)
        // must be dropped: replaying it would break the bit-identical
        // warm-equals-cold invariant.
        let bad_peak = PersistedShard {
            entries: vec![PersistedEntry {
                backend_key: 1,
                graph: g.clone(),
                prefix: Vec::new(),
                order: s.order.clone(),
                peak_bytes: s.peak_bytes + 1,
            }],
        };
        // An order that is not a topological order of the graph.
        let mut reversed = s.order.clone();
        reversed.reverse();
        let bad_order = PersistedShard {
            entries: vec![PersistedEntry {
                backend_key: 1,
                graph: g.clone(),
                prefix: Vec::new(),
                order: reversed,
                peak_bytes: s.peak_bytes,
            }],
        };
        // A future format version with a *valid* checksum: quarantined
        // wholesale on the version check alone.
        let payload = serde_json::to_string(&PersistedShard { entries: Vec::new() }).unwrap();
        let header = serde_json::to_string(&ShardHeader {
            version: PERSIST_VERSION + 1,
            checksum: payload_checksum(&payload),
        })
        .unwrap();
        std::fs::write(dir.join("shard-000.json"), encode_shard(&bad_peak).unwrap()).unwrap();
        std::fs::write(dir.join("shard-001.json"), encode_shard(&bad_order).unwrap()).unwrap();
        std::fs::write(dir.join("shard-002.json"), format!("{header}\n{payload}")).unwrap();

        let cache = CompileCache::new();
        let report = cache.load_from_dir(&dir).unwrap();
        assert_eq!(report.entries_rejected, 2);
        assert_eq!(report.entries_ok, 0);
        assert_eq!(report.shards_failed, 1);
        assert_eq!(report.shards_quarantined, 1);
        assert!(cache.is_empty(), "nothing tampered is admitted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_is_quarantined_on_load() {
        let dir = scratch_dir("truncated");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 1 });
        let g = chain("g", 8);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &schedule_of(&g));
        cache.save_to_dir(&dir).unwrap();
        let path = dir.join("shard-000.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        let restored = CompileCache::new();
        let report = restored.load_from_dir(&dir).unwrap();
        assert_eq!(report.shards_quarantined, 1);
        assert_eq!(report.entries_ok, 0);
        assert!(restored.is_empty());
        assert!(path.with_file_name("shard-000.json.quarantined").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_payload_fails_the_checksum() {
        let dir = scratch_dir("bitflip");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 1 });
        let g = chain("g", 8);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &schedule_of(&g));
        cache.save_to_dir(&dir).unwrap();
        // Flip one digit inside the payload. The JSON stays well-formed,
        // so only the checksum can catch this — the shard must be
        // quarantined at the file level, not merely entry-rejected.
        let path = dir.join("shard-000.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let newline = text.find('\n').unwrap();
        let digit_at = text[newline..]
            .char_indices()
            .find_map(|(i, c)| c.is_ascii_digit().then_some(newline + i))
            .expect("payload contains a digit");
        let mut bytes = text.into_bytes();
        bytes[digit_at] = if bytes[digit_at] == b'9' { b'0' } else { bytes[digit_at] + 1 };
        std::fs::write(&path, bytes).unwrap();

        let restored = CompileCache::new();
        let report = restored.load_from_dir(&dir).unwrap();
        assert_eq!(report.shards_quarantined, 1, "checksum catches the flip");
        assert_eq!(report.entries_rejected, 0, "never reaches entry validation");
        assert!(restored.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_v1_snapshot_is_quarantined_not_parsed() {
        let dir = scratch_dir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        // A version-1 file was one JSON document with an inline version
        // field and no header line.
        std::fs::write(dir.join("shard-000.json"), r#"{"version":1,"entries":[]}"#).unwrap();
        let cache = CompileCache::new();
        let report = cache.load_from_dir(&dir).unwrap();
        assert_eq!(report.shards_quarantined, 1);
        assert_eq!(report.shards_ok, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_persist_io_error_preserves_the_previous_snapshot() {
        let dir = scratch_dir("midpersist");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 2 });
        let graphs: Vec<Graph> = (0..4).map(|i| chain(&format!("g{i}"), 8 + i)).collect();
        for g in &graphs {
            cache.insert(1, fingerprint(g), Structure::of(g), &[], &schedule_of(g));
        }
        let first = cache.save_to_dir(&dir).unwrap();
        assert_eq!(first.entries_ok, 4);

        cache.install_fault_plan(Arc::new(
            crate::fault::FaultPlan::parse("persist-io=1", 0).unwrap(),
        ));
        let g5 = chain("g5", 20);
        cache.insert(1, fingerprint(&g5), Structure::of(&g5), &[], &schedule_of(&g5));
        assert!(cache.save_to_dir(&dir).is_err(), "armed IO fault fails the save");

        // The failed save must not have disturbed the snapshot on disk.
        let restored = CompileCache::new();
        let report = restored.load_from_dir(&dir).unwrap();
        assert_eq!(report.entries_ok, 4, "previous snapshot intact");
        assert_eq!(report.shards_quarantined, 0);

        // The fault is spent: the next save succeeds and picks up g5.
        let third = cache.save_to_dir(&dir).unwrap();
        assert_eq!(third.entries_ok, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_snapshot_corruption_is_quarantined_on_the_next_load() {
        let dir = scratch_dir("snapcorrupt");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 2 });
        let graphs: Vec<Graph> = (0..4).map(|i| chain(&format!("g{i}"), 8 + i)).collect();
        for g in &graphs {
            cache.insert(1, fingerprint(g), Structure::of(g), &[], &schedule_of(g));
        }
        cache.install_fault_plan(Arc::new(
            crate::fault::FaultPlan::parse("snapshot-corrupt=1", 0).unwrap(),
        ));
        cache.save_to_dir(&dir).unwrap();

        let restored = CompileCache::new();
        let report = restored.load_from_dir(&dir).unwrap();
        assert_eq!(report.shards_quarantined, 1, "the corrupted shard is caught");
        assert_eq!(report.shards_ok, 1, "the other shard loads fine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_cleans_up_crashed_save_temporaries() {
        let dir = scratch_dir("tmpclean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("shard-009.json.tmp"), "torn write from a crash").unwrap();
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 1 });
        let g = chain("g", 8);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &schedule_of(&g));
        cache.save_to_dir(&dir).unwrap();
        assert!(!dir.join("shard-009.json.tmp").exists(), "stale temporary removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_replaces_stale_shard_files() {
        let dir = scratch_dir("stale");
        let cache =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 4 });
        let g = chain("g", 8);
        cache.insert(1, fingerprint(&g), Structure::of(&g), &[], &schedule_of(&g));
        cache.save_to_dir(&dir).unwrap();

        // A smaller cache saved to the same directory must not leave the
        // old shard files behind (they would resurrect entries on load).
        let narrow =
            CompileCache::with_config(CompileCacheConfig { max_bytes: 1024 * 1024, shards: 1 });
        narrow.save_to_dir(&dir).unwrap();
        let shard_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| is_shard_file(&e.path()))
            .count();
        assert_eq!(shard_files, 1, "stale shard files from the wider save are gone");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
