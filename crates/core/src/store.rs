//! The content-addressed on-disk store: the one envelope every
//! persisted result goes through — `hls-serve`'s artifacts and
//! negative entries, and `hls-verify`'s proof verdicts.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! root/
//!   objects/<2-hex-prefix>/<digest>.json    one entry per request digest
//!   negative/<2-hex-prefix>/<digest>.json   cached synthesis failures
//!   proofs/<2-hex-prefix>/<digest>.json     proved equivalence verdicts
//!   tmp/                                    staging for atomic writes
//!   quarantine/                             entries that failed integrity
//!   locks/                                  advisory writer/evictor locks
//! ```
//!
//! Every entry is a single JSON document carrying the canonical request
//! preimage, a body and a digest of the body. Positive entries (under
//! `objects/`) carry the artifact body (Verilog, metrics, pass trace,
//! verify verdict, diagnostics); negative entries (under `negative/`)
//! carry a [`NegativeEntry`] — the structured failure of a
//! deterministic pipeline error, so retries of a bad request cost a
//! store read instead of a pipeline re-run; proof entries (under
//! `proofs/`) carry a proved verdict whose preimage is the proof-cache
//! key. Loads re-verify both
//! digests — the filename against the preimage and the body digest
//! against the body — and move anything inconsistent to `quarantine/`,
//! reporting a miss so the caller simply re-synthesizes. Writes stage
//! into `tmp/` and `rename(2)` into place, so readers never observe a
//! torn entry and concurrent writers of the same digest are harmless
//! (they produce identical bytes). Advisory locks in `locks/` keep
//! concurrent writers and the evictor from duplicating work; a lock
//! older than [`STALE_LOCK`] is presumed abandoned and stolen. Opening
//! a store sweeps `tmp/` of staging files older than [`STALE_LOCK`] —
//! the residue of a writer that died between write and rename.
//!
//! Entries also move *between* stores: [`ArtifactStore::read_raw`]
//! returns the exact on-disk document and
//! [`ArtifactStore::insert_raw`] re-verifies the full integrity chain
//! (schema, preimage→digest, body digest) before admitting foreign
//! bytes. Replication in `hls-cluster` is built on this pair, which is
//! what makes replicated reads byte-identical to the owner's.
//!
//! Reads refresh the entry's modification time, so eviction — which
//! removes entries in `(mtime, digest)` order until the store fits
//! [`StoreConfig::max_bytes`] — approximates least-recently-used and is
//! deterministic given the timestamps. Negative and proof entries share
//! the same budget and eviction order.
//!
//! Census and budget never walk the directory tree on the serving path:
//! an in-memory size index, built by one scan at
//! [`ArtifactStore::open`] and kept current by every insert, LRU touch,
//! eviction and quarantine, holds each entry's `(mtime, digest, kind,
//! size)` in eviction order. Handles on one root in one process share
//! the index. Entries other processes write are picked up by a full
//! rescan at most once per N inserts, N at least the entry count the
//! last scan found, so that cost is amortized O(1); entries they touch
//! are re-keyed when eviction reaches them (each victim is `stat`ed
//! before removal).

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, SystemTime};

use hls_ir::json::Named;
use hls_ir::{stable_digest, Json};

use crate::metrics::DesignMetrics;

/// Schema tag of one positive store entry (bump on layout changes).
pub const ENTRY_SCHEMA: &str = "hls-serve-artifact/v1";

/// Schema tag of one negative entry (bump on layout changes).
pub const NEGATIVE_SCHEMA: &str = "hls-serve-negative/v1";

/// Schema tag of one proof-verdict entry (bump on layout changes).
pub const PROOF_SCHEMA: &str = "hls-proof-verdict/v1";

/// Age past which a writer/evictor lock is presumed abandoned.
pub const STALE_LOCK: Duration = Duration::from_secs(30);

/// Process-wide sequence for unique staging names: with the pid, it
/// keeps two writers of one digest (say, after a stolen lock) from
/// sharing a tmp file. See [`publish`].
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The size indexes of the stores open in this process, by canonical
/// root: two handles on one root (the service's and the proof cache's,
/// say) share one index, so each sees the other's writes at once.
static INDEXES: Mutex<Vec<(PathBuf, Weak<Mutex<SizeIndex>>)>> = Mutex::new(Vec::new());

/// Inserts between reconciling rescans never drop below this, so a
/// nearly empty store does not rescan on every insert.
const RESCAN_MIN_INSERTS: u64 = 64;

/// An entry's content address: the digest plus the preimage it was
/// computed from (stored with the entry so integrity is checkable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestKey {
    /// 32-hex-digit content digest; the entry's on-disk identity.
    pub digest: String,
    /// The canonical preimage the digest was computed over.
    pub preimage: String,
}

impl RequestKey {
    /// The key whose preimage is `preimage` and whose digest is
    /// [`stable_digest`] of it.
    pub fn for_preimage(preimage: String) -> RequestKey {
        RequestKey {
            digest: stable_digest(preimage.as_bytes()),
            preimage,
        }
    }

    /// The digest's leading byte — the store's `objects/<2-hex-prefix>/`
    /// shard directory, and the cluster's unit of shard ownership (the
    /// hash ring maps the 256 prefixes onto shards).
    pub fn shard_prefix(&self) -> u8 {
        u8::from_str_radix(self.digest.get(..2).unwrap_or("00"), 16).unwrap_or(0)
    }
}

/// A cached synthesis failure: everything a caller needs to see the
/// same rejection the pipeline produced, without re-running it.
///
/// Synthesis is deterministic, so a request that fails the pipeline
/// fails identically on every retry. Only deterministic pipeline
/// failures (`SynthesisError`) are cached: parse failures never reach a
/// digest, and admission rejections depend on the service's observed
/// cost model, so neither is content-addressed.
#[derive(Debug, Clone, PartialEq)]
pub struct NegativeEntry {
    /// Design (module) name the request was labeled with.
    pub design: String,
    /// The stable machine-readable code of the failing error
    /// (e.g. `infeasible-clock`, `unschedulable`).
    pub code: String,
    /// Human-readable description of the failure.
    pub error: String,
    /// The failed run's structured diagnostics, as JSON.
    pub diagnostics: Json,
}

hls_ir::json_struct! {
    pub NegativeEntry as "negative entry" {
        design, code, error, diagnostics or Json::Arr(Vec::new()),
    }
}

/// Which side of the store an entry lives on. The derived order
/// (positive, negative, proof) breaks `(mtime, digest)` ties in eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EntryKind {
    /// A synthesized artifact under `objects/`.
    Positive,
    /// A cached deterministic failure under `negative/`.
    Negative,
    /// A proved equivalence verdict under `proofs/`. Local to one
    /// store: [`EntryKind::by_name`] does not accept it, so proof
    /// entries never travel over the cluster wire.
    Proof,
}

impl EntryKind {
    fn dir(self) -> &'static str {
        match self {
            EntryKind::Positive => "objects",
            EntryKind::Negative => "negative",
            EntryKind::Proof => "proofs",
        }
    }

    fn schema(self) -> &'static str {
        match self {
            EntryKind::Positive => ENTRY_SCHEMA,
            EntryKind::Negative => NEGATIVE_SCHEMA,
            EntryKind::Proof => PROOF_SCHEMA,
        }
    }

    /// The kind's wire name (used by the cluster protocol).
    pub fn name(self) -> &'static str {
        Named::name(self)
    }

    /// Parses a wire name back into a kind. Proof entries have no wire
    /// form, so `"proof"` is refused.
    pub fn by_name(name: &str) -> Option<EntryKind> {
        <EntryKind as Named>::by_name(name).filter(|k| *k != EntryKind::Proof)
    }
}

impl Named for EntryKind {
    const NAMES: &'static [(EntryKind, &'static str)] = &[
        (EntryKind::Positive, "positive"),
        (EntryKind::Negative, "negative"),
        (EntryKind::Proof, "proof"),
    ];
}

/// Store tuning.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Eviction threshold: total size of `objects/`, `negative/` and
    /// `proofs/` the store trims down to after every insert. The
    /// default is generous (256 MiB).
    pub max_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_bytes: 256 * 1024 * 1024,
        }
    }
}

/// A verification verdict carried by a cached artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the equivalence check passed.
    pub passed: bool,
    /// Human-readable summary of the finding.
    pub detail: String,
}

/// One artifact as stored and served: everything the pipeline produced
/// for a request, minus the request itself (the digest identifies it).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedArtifact {
    /// Design (module) name.
    pub design: String,
    /// The emitted Verilog source, byte-exact.
    pub verilog: String,
    /// Headline synthesis metrics.
    pub metrics: DesignMetrics,
    /// The full per-pass trace, as structured JSON.
    pub trace: Json,
    /// Equivalence-check verdict, when the request asked for one.
    pub verdict: Option<Verdict>,
    /// Pipeline diagnostics (including the Verilog emitter's lints).
    pub diagnostics: Json,
}

hls_ir::json_struct! {
    impl Verdict as "verdict" { passed, detail }
}

hls_ir::json_struct! {
    CachedArtifact as "entry" {
        design, verilog, metrics, trace or Json::Null, verdict,
        diagnostics or Json::Arr(Vec::new()),
    }
}

/// Monotonic counters exposed by [`ArtifactStore::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Positive entries currently on disk.
    pub entries: u64,
    /// Total bytes under `objects/`.
    pub bytes: u64,
    /// Negative (failure) entries currently on disk.
    pub neg_entries: u64,
    /// Total bytes under `negative/`.
    pub neg_bytes: u64,
    /// Proof-verdict entries currently on disk (they share the byte
    /// budget, so they explain evictions the artifact census cannot).
    pub proof_entries: u64,
    /// Total bytes under `proofs/`.
    pub proof_bytes: u64,
    /// Lookups that returned a verified entry.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Negative lookups that returned a cached failure.
    pub neg_hits: u64,
    /// Entries written by this handle.
    pub inserts: u64,
    /// Negative entries written by this handle.
    pub neg_inserts: u64,
    /// Entries removed by LRU eviction.
    pub evictions: u64,
    /// Entries moved to `quarantine/` after failing integrity.
    pub quarantined: u64,
}

hls_ir::json_struct! {
    pub StoreStats {
        entries, bytes, neg_entries, neg_bytes, proof_entries, proof_bytes, hits, misses,
        neg_hits, inserts, neg_inserts, evictions, quarantined,
    }
}

/// The in-memory size index: every entry in eviction order plus the
/// per-kind census, so neither the budget nor [`ArtifactStore::stats`]
/// walks the tree. Every mutation is an idempotent upsert or remove, so
/// a scan racing an insert cannot count an entry twice.
#[derive(Debug, Default)]
struct SizeIndex {
    /// Every entry, least recently used first: `(mtime, digest, kind)`.
    order: BTreeSet<(SystemTime, String, EntryKind)>,
    /// Each entry's indexed mtime (its key in `order`) and size.
    entries: HashMap<(EntryKind, String), (SystemTime, u64)>,
    /// Entries and bytes per kind, indexed by `EntryKind as usize`.
    count: [u64; 3],
    bytes: [u64; 3],
    /// Inserts since the last full scan, and the entries that scan found.
    inserts_since_scan: u64,
    scanned: u64,
}

impl SizeIndex {
    fn upsert(&mut self, kind: EntryKind, digest: &str, mtime: SystemTime, size: u64) {
        self.remove(kind, digest);
        self.order.insert((mtime, digest.to_string(), kind));
        self.entries
            .insert((kind, digest.to_string()), (mtime, size));
        self.count[kind as usize] += 1;
        self.bytes[kind as usize] += size;
    }

    fn remove(&mut self, kind: EntryKind, digest: &str) {
        if let Some((mtime, size)) = self.entries.remove(&(kind, digest.to_string())) {
            self.order.remove(&(mtime, digest.to_string(), kind));
            self.count[kind as usize] -= 1;
            self.bytes[kind as usize] -= size;
        }
    }

    fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Replaces the index with a walk of `root`'s entry directories.
    fn rescan(&mut self, root: &Path) {
        *self = SizeIndex::default();
        for kind in [EntryKind::Positive, EntryKind::Negative, EntryKind::Proof] {
            let Ok(shards) = fs::read_dir(root.join(kind.dir())) else {
                continue;
            };
            for shard in shards.flatten().filter_map(|s| fs::read_dir(s.path()).ok()) {
                for file in shard.flatten() {
                    let path = file.path();
                    let (Some(digest), Ok(meta)) =
                        (path.file_stem().and_then(|s| s.to_str()), file.metadata())
                    else {
                        continue;
                    };
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    self.upsert(kind, digest, mtime, meta.len());
                }
            }
        }
        self.scanned = self.entries.len() as u64;
    }
}

/// The index shared by every handle on `root` in this process, reconciled
/// with the disk by a fresh scan (the one scan [`ArtifactStore::open`]
/// does).
fn shared_index(root: &Path) -> Arc<Mutex<SizeIndex>> {
    let canonical = fs::canonicalize(root).unwrap_or_else(|_| root.to_path_buf());
    let mut open = INDEXES.lock().unwrap_or_else(|e| e.into_inner());
    open.retain(|(_, index)| index.strong_count() > 0);
    let index = open
        .iter()
        .find(|(r, _)| *r == canonical)
        .and_then(|(_, index)| index.upgrade())
        .unwrap_or_else(|| {
            let index = Arc::new(Mutex::new(SizeIndex::default()));
            open.push((canonical, Arc::downgrade(&index)));
            index
        });
    drop(open);
    index.lock().unwrap_or_else(|e| e.into_inner()).rescan(root);
    index
}

/// A handle on one on-disk store. Cheap to open; safe to share across
/// threads and processes (all mutation is atomic-rename or lock-guarded).
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    max_bytes: u64,
    index: Arc<Mutex<SizeIndex>>,
    hits: AtomicU64,
    misses: AtomicU64,
    neg_hits: AtomicU64,
    inserts: AtomicU64,
    neg_inserts: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store rooted at `root`, sweeping
    /// staging files abandoned by a crashed writer (older than
    /// [`STALE_LOCK`]) out of `tmp/`, and builds (or, when another handle
    /// on `root` is open in this process, reconciles) the size index
    /// with one scan.
    pub fn open(root: &Path, config: StoreConfig) -> io::Result<ArtifactStore> {
        for sub in ["objects", "negative", "tmp", "quarantine", "locks"] {
            fs::create_dir_all(root.join(sub))?;
        }
        // A writer that died between `fs::write` and `fs::rename` leaves
        // its staging file behind forever (the rename never happened).
        // Entries are never served from tmp/, so this is purely space
        // hygiene — but a crash-looping writer would otherwise grow it
        // without bound. Young files may belong to a live writer; only
        // stale ones go.
        if let Ok(staged) = fs::read_dir(root.join("tmp")) {
            for file in staged.flatten() {
                let stale = file
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > STALE_LOCK);
                if stale {
                    let _ = fs::remove_file(file.path());
                }
            }
        }
        Ok(ArtifactStore {
            root: root.to_path_buf(),
            max_bytes: config.max_bytes,
            index: shared_index(root),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            neg_hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            neg_inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn shard_dir(&self, kind: EntryKind, digest: &str) -> PathBuf {
        self.root
            .join(kind.dir())
            .join(digest.get(..2).unwrap_or("xx"))
    }

    fn entry_path(&self, kind: EntryKind, digest: &str) -> PathBuf {
        self.shard_dir(kind, digest).join(format!("{digest}.json"))
    }

    fn index(&self) -> MutexGuard<'_, SizeIndex> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks an entry up, verifying integrity. A hit refreshes the
    /// entry's modification time (the LRU signal). Corrupt entries are
    /// quarantined and reported as misses.
    pub fn lookup(&self, key: &RequestKey) -> Option<CachedArtifact> {
        let body = self.load_checked(EntryKind::Positive, &key.digest)?;
        match CachedArtifact::from_json(&body) {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(artifact)
            }
            Err(_) => {
                self.quarantine(EntryKind::Positive, &key.digest);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks up the proof-verdict body stored under `key`. Like negative
    /// probes, proof lookups move no hit/miss counter; corrupt entries
    /// are quarantined and read as `None`.
    pub fn lookup_proof(&self, key: &RequestKey) -> Option<Json> {
        self.load_checked(EntryKind::Proof, &key.digest)
    }

    /// Looks up a cached failure for `key`. A hit means the identical
    /// request already failed the pipeline deterministically; the
    /// caller serves the stored diagnostics instead of re-running.
    pub fn lookup_negative(&self, key: &RequestKey) -> Option<NegativeEntry> {
        let body = self.load_checked(EntryKind::Negative, &key.digest)?;
        match NegativeEntry::from_json(&body) {
            Ok(entry) => {
                self.neg_hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Err(_) => {
                self.quarantine(EntryKind::Negative, &key.digest);
                None
            }
        }
    }

    /// Loads, integrity-checks and LRU-touches one entry, returning its
    /// body. Corrupt documents are quarantined. Positive misses count
    /// toward `misses`; negative probes are silent (every cold request
    /// probes the negative side).
    fn load_checked(&self, kind: EntryKind, digest: &str) -> Option<Json> {
        let path = self.entry_path(kind, digest);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                if e.kind() == io::ErrorKind::NotFound {
                    self.index().remove(kind, digest); // gone behind our back
                }
                if kind == EntryKind::Positive {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        match check_entry(&text, digest, kind.schema()) {
            Some(doc) => {
                // LRU touch: one `now` goes to the disk and the index.
                // Failure to touch only ages the entry early.
                if let Ok(f) = fs::File::options().write(true).open(&path) {
                    let now = SystemTime::now();
                    if f.set_modified(now).is_ok() {
                        self.index().upsert(kind, digest, now, text.len() as u64);
                    }
                }
                // Move the body out of the verified document — cloning
                // a multi-thousand-node parse tree per hit would double
                // the warm-serve floor.
                let Json::Obj(pairs) = doc else { return None };
                pairs.into_iter().find(|(k, _)| k == "body").map(|(_, v)| v)
            }
            None => {
                self.quarantine(kind, digest);
                if kind == EntryKind::Positive {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    fn quarantine(&self, kind: EntryKind, digest: &str) {
        self.index().remove(kind, digest);
        let path = self.entry_path(kind, digest);
        let name = match kind {
            EntryKind::Positive => format!("{digest}.json"),
            EntryKind::Negative => format!("{digest}.neg.json"),
            EntryKind::Proof => format!("{digest}.proof.json"),
        };
        let dest = self.root.join("quarantine").join(name);
        if fs::rename(&path, &dest).is_ok() {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        } else {
            // Another handle got there first (or the file vanished);
            // either way the bad entry is out of the serving path.
            let _ = fs::remove_file(&path);
        }
    }

    /// Inserts an artifact under `key`, atomically, then trims the store
    /// to its size budget. Inserting an already-present digest is a
    /// no-op (content addressing makes the bytes identical).
    pub fn insert(&self, key: &RequestKey, artifact: &CachedArtifact) -> io::Result<()> {
        self.write_document(EntryKind::Positive, key, artifact.to_json())
    }

    /// Persists a deterministic synthesis failure under `key` so
    /// identical retries are served from disk.
    pub fn insert_negative(&self, key: &RequestKey, entry: &NegativeEntry) -> io::Result<()> {
        self.write_document(EntryKind::Negative, key, entry.to_json())
    }

    /// Persists a proof-verdict body under `key` (same atomic staging,
    /// locking and budget as artifacts).
    pub fn insert_proof(&self, key: &RequestKey, body: Json) -> io::Result<()> {
        self.write_document(EntryKind::Proof, key, body)
    }

    fn write_document(&self, kind: EntryKind, key: &RequestKey, body: Json) -> io::Result<()> {
        let path = self.entry_path(kind, &key.digest);
        if path.exists() {
            return Ok(());
        }
        let _guard = LockGuard::acquire(&self.root, &key.digest)?;
        if path.exists() {
            return Ok(()); // lost the race; the winner wrote our bytes
        }
        let body_text = body.write();
        let entry = Json::obj(vec![
            ("schema", Json::str(kind.schema())),
            ("preimage", Json::str(key.preimage.clone())),
            (
                "body_digest",
                Json::str(stable_digest(body_text.as_bytes())),
            ),
            ("body", body),
        ]);
        self.admit(kind, &key.digest, &entry.write())
    }

    /// Publishes one entry document (the caller holds its digest lock),
    /// indexes it under its on-disk mtime, and trims to the budget.
    fn admit(&self, kind: EntryKind, digest: &str, text: &str) -> io::Result<()> {
        let path = self.entry_path(kind, digest);
        fs::create_dir_all(self.shard_dir(kind, digest))?;
        publish(&self.root.join("tmp"), &path, text)?;
        match kind {
            EntryKind::Positive => self.inserts.fetch_add(1, Ordering::Relaxed),
            EntryKind::Negative => self.neg_inserts.fetch_add(1, Ordering::Relaxed),
            EntryKind::Proof => 0,
        };
        {
            let mut index = self.index();
            // The kernel stamps the write; index that exact time so the
            // order matches what a scan would see.
            let mtime = fs::metadata(&path).and_then(|m| m.modified());
            index.upsert(
                kind,
                digest,
                mtime.unwrap_or(SystemTime::UNIX_EPOCH),
                text.len() as u64,
            );
            // Pick up what other processes wrote, amortized O(1).
            index.inserts_since_scan += 1;
            if index.inserts_since_scan >= index.scanned.max(RESCAN_MIN_INSERTS) {
                index.rescan(&self.root);
            }
        }
        self.enforce_budget()?;
        Ok(())
    }

    /// Returns the exact on-disk document for `digest` (after an
    /// integrity check), or `None` when absent or corrupt. This is the
    /// replication read path: the raw bytes round-trip to a peer store
    /// unchanged, so a replica serves byte-identical artifacts.
    pub fn read_raw(&self, kind: EntryKind, digest: &str) -> Option<String> {
        let text = fs::read_to_string(self.entry_path(kind, digest)).ok()?;
        if check_entry(&text, digest, kind.schema()).is_none() {
            self.quarantine(kind, digest);
            return None;
        }
        Some(text)
    }

    /// Admits a raw entry document produced by another store handle
    /// (typically a cluster peer). The full integrity chain — schema
    /// tag, preimage against `digest`, body digest against the body's
    /// byte range — is re-verified before the bytes land; invalid
    /// documents are refused with `Ok(false)`. Admitted entries are
    /// written with the same atomic staging as local inserts.
    pub fn insert_raw(&self, kind: EntryKind, digest: &str, text: &str) -> io::Result<bool> {
        if check_entry(text, digest, kind.schema()).is_none() {
            return Ok(false);
        }
        let path = self.entry_path(kind, digest);
        if path.exists() {
            return Ok(true);
        }
        let _guard = LockGuard::acquire(&self.root, digest)?;
        if !path.exists() {
            self.admit(kind, digest, text)?;
        }
        Ok(true)
    }

    /// Evicts least-recently-used entries (all kinds share one budget
    /// and one `(mtime, digest)` order) until the store fits
    /// its size budget. Returns the evicted digests in eviction order.
    /// Runs under the store-wide eviction lock, so concurrent writers
    /// trim once. Victims come off the front of the size index; each is
    /// `stat`ed first, and one another process touched since it was
    /// indexed is re-keyed to its true place instead of evicted.
    pub fn enforce_budget(&self) -> io::Result<Vec<String>> {
        if self.index().total_bytes() <= self.max_bytes {
            return Ok(Vec::new());
        }
        let _guard = LockGuard::acquire(&self.root, "evict")?;
        let mut index = self.index();
        let mut evicted = Vec::new();
        while index.total_bytes() > self.max_bytes {
            let Some((mtime, digest, kind)) = index.order.first().cloned() else {
                break;
            };
            let path = self.entry_path(kind, &digest);
            let Ok(meta) = fs::metadata(&path) else {
                index.remove(kind, &digest); // already gone
                continue;
            };
            let on_disk = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            if on_disk > mtime {
                index.upsert(kind, &digest, on_disk, meta.len());
                continue;
            }
            index.remove(kind, &digest);
            // A failed unlink means another handle removed it first.
            if fs::remove_file(&path).is_ok() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                evicted.push(digest);
            }
        }
        Ok(evicted)
    }

    /// Every entry this handle's index holds, in the order
    /// [`enforce_budget`](ArtifactStore::enforce_budget) would evict
    /// them (least recently used first).
    pub fn eviction_order(&self) -> Vec<(EntryKind, String)> {
        let index = self.index();
        index
            .order
            .iter()
            .map(|(_, d, k)| (*k, d.clone()))
            .collect()
    }

    /// Entries this handle moved to `quarantine/` (the counter alone,
    /// without [`stats`](ArtifactStore::stats)'s census).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Current counters plus the census of the size index.
    pub fn stats(&self) -> StoreStats {
        let index = self.index();
        let (count, bytes) = (index.count, index.bytes);
        drop(index);
        StoreStats {
            entries: count[EntryKind::Positive as usize],
            bytes: bytes[EntryKind::Positive as usize],
            neg_entries: count[EntryKind::Negative as usize],
            neg_bytes: bytes[EntryKind::Negative as usize],
            proof_entries: count[EntryKind::Proof as usize],
            proof_bytes: bytes[EntryKind::Proof as usize],
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            neg_hits: self.neg_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            neg_inserts: self.neg_inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }
}

/// Writes `text` to `dest` atomically: it is staged in `tmp_dir` under a
/// name no other writer uses (the pid plus a process-wide sequence),
/// then renamed into place, so a reader sees the old file or the whole
/// new one, never a torn write.
pub fn publish(tmp_dir: &Path, dest: &Path, text: &str) -> io::Result<()> {
    let name = dest.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let tmp = tmp_dir.join(format!(
        "{name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, text)?;
    fs::rename(&tmp, dest)
}

/// Parses and integrity-checks one entry document, returning the parsed
/// document. `None` means the entry must not be served (quarantine it).
fn check_entry(text: &str, digest: &str, schema: &str) -> Option<Json> {
    // `body` is the entry's last field and the writer is deterministic,
    // so the body's digest can be checked against its exact byte range —
    // no re-serialization on the hot path. The marker cannot occur
    // earlier: inside JSON strings its quotes would be escaped.
    const MARKER: &str = ",\"body\":";
    let body_start = text.find(MARKER)? + MARKER.len();
    let body_text = text.get(body_start..text.len().checked_sub(1)?)?;
    let v = Json::parse(text).ok()?;
    if v.get("schema")?.as_str()? != schema {
        return None;
    }
    let preimage = v.get("preimage")?.as_str()?;
    if stable_digest(preimage.as_bytes()) != digest {
        return None; // filename does not match the preimage: corrupt or misplaced
    }
    if stable_digest(body_text.as_bytes()) != v.get("body_digest")?.as_str()? {
        return None; // body tampered or torn
    }
    v.get("body")?;
    Some(v)
}

/// An advisory lock file in `locks/`, deleted on drop. Acquisition spins
/// briefly; locks older than [`STALE_LOCK`] are presumed abandoned by a
/// crashed process and stolen.
struct LockGuard {
    path: PathBuf,
}

impl LockGuard {
    fn acquire(root: &Path, name: &str) -> io::Result<LockGuard> {
        let path = root.join("locks").join(format!("{name}.lock"));
        for attempt in 0..400u32 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(LockGuard { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > STALE_LOCK);
                    if stale || attempt == 399 {
                        let _ = fs::remove_file(&path);
                    } else {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Fall through after stealing: one final attempt.
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map(|_| LockGuard { path })
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hls-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn negative_entry_round_trips() {
        let e = NegativeEntry {
            design: "decoder".into(),
            code: "infeasible-clock".into(),
            error: "operation mul needs 6.40 ns but the clock period is 0.50 ns".into(),
            diagnostics: Json::Arr(vec![Json::obj(vec![(
                "code",
                Json::str("infeasible-clock"),
            )])]),
        };
        let back = NegativeEntry::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn negative_entry_parse_is_strict() {
        let missing = Json::obj(vec![("design", Json::str("d"))]);
        assert!(NegativeEntry::from_json(&missing)
            .unwrap_err()
            .contains("code"));
    }

    #[test]
    fn racing_writers_after_a_stolen_lock_stage_apart() {
        // A lock left behind by a crashed writer, younger than
        // `STALE_LOCK`: both writers spin to the limit and steal it, so
        // they can overlap inside the critical section. Each must stage
        // under its own tmp name, or one rename publishes the other's
        // half-written file.
        let root = tmp_root("steal");
        let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
        let key = RequestKey::for_preimage("proof-key".into());
        let body = Json::obj(vec![("stage", Json::str("fsmd"))]);
        fs::write(root.join("locks").join(format!("{}.lock", key.digest)), "").unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _ = store.insert_proof(&key, body.clone());
                });
            }
        });
        assert_eq!(store.lookup_proof(&key), Some(body));
        assert_eq!(fs::read_dir(root.join("tmp")).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&root);
    }
}
