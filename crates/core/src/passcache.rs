//! Content-addressed pass-level cache for incremental synthesis.
//!
//! Every cacheable pipeline stage (`loop-transforms`, `lower`,
//! `netlist-opt`, `schedule`, `allocate`) derives a stable key from its
//! *exact* inputs: the key of the input slot it consumes (so keys chain
//! through the pipeline), the directive subset the stage actually reads,
//! the [`TechLibrary::fingerprint`] when the stage uses the timing/area
//! model, and the clock period bits only for clock-dependent stages.
//! Identical inputs therefore reuse identical results across sweep
//! points and across serve requests; any key-relevant input change
//! misses by construction.
//!
//! The cache lives in memory only: a sharded map with an LRU cap on
//! entries and approximate bytes (mirroring the store's `(mtime,digest)`
//! LRU). There is no disk tier — decoding a stage product from disk
//! costs more than recomputing it.
//!
//! Hits replay the stage's exact output object; the pipeline reports
//! them as memo hits in [`crate::pipeline::PassTrace`], so cached and
//! cold runs produce byte-identical artifacts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hls_ir::{stable_digest, Expr, Function, Stmt};

use crate::allocate::Allocation;
use crate::directives::Directives;
use crate::lower::Lowered;
use crate::netlist::{NetlistObligation, NetlistReport};
use crate::schedule::Schedule;
use crate::tech::TechLibrary;
use crate::transform::TransformResult;

/// Key-derivation schema tag; bumped whenever key composition changes.
const KEY_SCHEMA: &str = "pc1";

const SHARDS: usize = 16;

// ---------------------------------------------------------------------------
// Key derivation
// ---------------------------------------------------------------------------

/// Key of the pipeline's input slot: the source function's canonical IR
/// rendering (parameter formats, statements, loop structure — everything
/// synthesis reads).
pub fn base_key(func: &Function) -> String {
    stable_digest(format!("{KEY_SCHEMA};base;{func}").as_bytes())
}

/// `loop-transforms` key: input function plus the merge policy and
/// per-loop directives the transform pipeline reads (the same subset
/// [`crate::explore::transform_signature`] renders).
pub fn transform_key(base_key: &str, d: &Directives) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};loop-transforms;{base_key};{}",
            crate::explore::transform_signature(d)
        )
        .as_bytes(),
    )
}

/// `lower` key: transformed-function key plus the loop, array and
/// interface directives lowering reads (pipelining, port synthesis).
/// Clock-independent.
pub fn lower_key(transform_key: &str, d: &Directives) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};lower;{transform_key};loops={:?};arrays={:?};ifaces={:?}",
            d.loops, d.arrays, d.interfaces
        )
        .as_bytes(),
    )
}

/// `netlist-opt` key: lowered-design key plus the optimizer config and
/// the library fingerprint (rebalancing uses the delay model).
/// Clock-independent — clock twins share this entry.
pub fn netlist_key(lower_key: &str, d: &Directives, lib: &TechLibrary) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};netlist-opt;{lower_key};opt={};lib={}",
            d.netlist_opt.to_json().write(),
            lib.fingerprint()
        )
        .as_bytes(),
    )
}

/// `schedule` key: optimized-netlist key plus the exact clock period
/// bits and the array/interface/FU-limit directives the scheduler reads,
/// plus the library fingerprint.
pub fn schedule_key(netlist_key: &str, d: &Directives, lib: &TechLibrary) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};schedule;{netlist_key};clk={:016x};arrays={:?};ifaces={:?};fu={:?};lib={}",
            d.clock_period_ns.to_bits(),
            d.arrays,
            d.interfaces,
            d.fu_limits,
            lib.fingerprint()
        )
        .as_bytes(),
    )
}

/// `allocate` key: schedule key (which already pins the clock and
/// netlist) plus the array mapping directives and library fingerprint
/// binding/area read.
pub fn allocate_key(schedule_key: &str, d: &Directives, lib: &TechLibrary) -> String {
    stable_digest(
        format!(
            "{KEY_SCHEMA};allocate;{schedule_key};arrays={:?};lib={}",
            d.arrays,
            lib.fingerprint()
        )
        .as_bytes(),
    )
}

// ---------------------------------------------------------------------------
// Cached values
// ---------------------------------------------------------------------------

/// The netlist optimizer's cached output: the rewritten design plus the
/// measurements and proof obligations it shipped (replayed on a hit so
/// downstream verification sees exactly what a cold run would).
#[derive(Debug, Clone)]
pub struct NetlistEntry {
    /// The design after optimization.
    pub lowered: Lowered,
    /// Per-pass measurements.
    pub report: NetlistReport,
    /// One proof obligation per pass that changed the design. Shared so a
    /// hit hands downstream verification the cached list without copying
    /// the two `Lowered` snapshots inside every obligation.
    pub obligations: Arc<Vec<NetlistObligation>>,
}

#[derive(Clone)]
enum Value {
    Transform(Arc<TransformResult>),
    Lowered(Arc<Lowered>),
    Netlist(Arc<NetlistEntry>),
    Schedule(Arc<Vec<Schedule>>),
    Allocate(Arc<Allocation>),
}

struct Entry {
    value: Value,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    bytes: usize,
}

// ---------------------------------------------------------------------------
// Size estimation (for the approximate-bytes LRU cap)
// ---------------------------------------------------------------------------

fn stmt_weight(stmts: &[Stmt]) -> usize {
    fn expr_w(e: &Expr) -> usize {
        1 + match e {
            Expr::Load { index, .. } => expr_w(index),
            Expr::Unary { arg, .. } => expr_w(arg),
            Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => {
                expr_w(lhs) + expr_w(rhs)
            }
            Expr::Select { cond, then_, else_ } => expr_w(cond) + expr_w(then_) + expr_w(else_),
            Expr::Cast { arg, .. } => expr_w(arg),
            _ => 0,
        }
    }
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign { value, .. } => 1 + expr_w(value),
            Stmt::Store { index, value, .. } => 1 + expr_w(index) + expr_w(value),
            Stmt::For(l) => 2 + stmt_weight(&l.body),
            Stmt::If { cond, then_, else_ } => {
                1 + expr_w(cond) + stmt_weight(then_) + stmt_weight(else_)
            }
        })
        .sum()
}

fn approx_func(f: &Function) -> usize {
    64 * f.vars.len() + 48 * stmt_weight(&f.body)
}

fn approx_transform(t: &TransformResult) -> usize {
    approx_func(&t.func) + 64 * t.merges.len() + 64
}

fn approx_lowered(l: &Lowered) -> usize {
    approx_func(&l.func)
        + l.segments
            .iter()
            .map(|s| 64 + 48 * s.dfg().len())
            .sum::<usize>()
        + 64 * l.ports.len()
        + 64
}

fn approx_netlist(e: &NetlistEntry) -> usize {
    approx_lowered(&e.lowered)
        + e.obligations
            .iter()
            .map(|ob| approx_lowered(&ob.before) + approx_lowered(&ob.after))
            .sum::<usize>()
        + 96 * e.report.deltas.len()
}

fn approx_schedules(s: &[Schedule]) -> usize {
    s.iter()
        .map(|x| 64 + 32 * x.node_cycle.len())
        .sum::<usize>()
        + 32
}

fn approx_allocation(a: &Allocation) -> usize {
    128 + 96 * a.fu_groups.len()
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

/// Configuration for [`PassCache`].
#[derive(Debug, Clone)]
pub struct PassCacheConfig {
    /// Maximum in-memory entries before LRU eviction.
    pub max_entries: usize,
    /// Maximum approximate in-memory bytes before LRU eviction.
    pub max_bytes: usize,
}

impl Default for PassCacheConfig {
    fn default() -> Self {
        PassCacheConfig {
            max_entries: 8192,
            max_bytes: 256 << 20,
        }
    }
}

/// A census of the cache's activity and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the stage ran cold).
    pub misses: u64,
    /// Values inserted into the in-memory tier.
    pub inserts: u64,
    /// In-memory entries displaced by the LRU cap.
    pub evictions: u64,
    /// Current in-memory entry count.
    pub entries: u64,
    /// Current approximate in-memory bytes.
    pub bytes: u64,
}

hls_ir::json_struct! {
    pub PassCacheStats { hits, misses, inserts, evictions, entries, bytes }
}

/// The in-memory content-addressed pass cache. Cheap to share: clone an
/// `Arc<PassCache>` into every [`crate::pipeline::PipelineConfig`] that
/// should reuse results.
pub struct PassCache {
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    entries_cap: usize,
    bytes_cap: usize,
}

impl std::fmt::Debug for PassCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for PassCache {
    fn default() -> Self {
        PassCache::new(PassCacheConfig::default())
    }
}

impl PassCache {
    /// Creates a cache with the given caps.
    pub fn new(cfg: PassCacheConfig) -> PassCache {
        PassCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries_cap: (cfg.max_entries / SHARDS).max(1),
            bytes_cap: (cfg.max_bytes / SHARDS).max(1),
        }
    }

    /// A memory-only cache with the default caps.
    pub fn in_memory() -> PassCache {
        PassCache::new(PassCacheConfig::default())
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> PassCacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().expect("pass cache shard poisoned");
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        PassCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let b = key.as_bytes().first().copied().unwrap_or(0) as usize;
        // Keys are lowercase hex; the low nibble spreads uniformly.
        &self.shards[b & (SHARDS - 1)]
    }

    fn get_mem(&self, key: &str) -> Option<Value> {
        let mut shard = self.shard(key).lock().expect("pass cache shard poisoned");
        let entry = shard.map.get_mut(key)?;
        entry.tick = self.tick.fetch_add(1, Ordering::Relaxed);
        Some(entry.value.clone())
    }

    fn put_mem(&self, key: &str, value: Value, bytes: usize) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("pass cache shard poisoned");
        if let Some(old) = shard
            .map
            .insert(key.to_string(), Entry { value, bytes, tick })
        {
            shard.bytes = shard.bytes.saturating_sub(old.bytes);
        }
        shard.bytes += bytes;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        // LRU eviction against both caps, mirroring the serve store's
        // oldest-first budget enforcement.
        while shard.map.len() > self.entries_cap || shard.bytes > self.bytes_cap {
            let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if oldest == key && shard.map.len() == 1 {
                // A single entry over the byte cap stays resident; evicting
                // the value we just inserted would make the cache useless
                // for designs larger than the cap.
                break;
            }
            if let Some(e) = shard.map.remove(&oldest) {
                shard.bytes = shard.bytes.saturating_sub(e.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether the in-memory tier currently holds `key`.
    ///
    /// A read-only probe: no counters move and the entry's LRU position
    /// is untouched, so memo layers that already hold the value can skip
    /// a redundant [`put`](PassCache::put_transform) without distorting
    /// the hit/miss statistics.
    pub fn contains(&self, key: &str) -> bool {
        self.shard(key)
            .lock()
            .expect("pass cache shard poisoned")
            .map
            .contains_key(key)
    }

    /// Looks up a `loop-transforms` result.
    pub fn get_transform(&self, key: &str) -> Option<Arc<TransformResult>> {
        if let Some(Value::Transform(t)) = self.get_mem(key) {
            self.hit();
            return Some(t);
        }
        self.miss();
        None
    }

    /// Stores a `loop-transforms` result.
    pub fn put_transform(&self, key: &str, t: &Arc<TransformResult>) {
        self.put_mem(key, Value::Transform(t.clone()), approx_transform(t));
    }

    /// Looks up a `lower` result.
    pub fn get_lowered(&self, key: &str) -> Option<Arc<Lowered>> {
        if let Some(Value::Lowered(l)) = self.get_mem(key) {
            self.hit();
            return Some(l);
        }
        self.miss();
        None
    }

    /// Stores a `lower` result.
    pub fn put_lowered(&self, key: &str, l: &Arc<Lowered>) {
        self.put_mem(key, Value::Lowered(l.clone()), approx_lowered(l));
    }

    /// Looks up a `netlist-opt` outcome (design, report, obligations).
    pub fn get_netlist(&self, key: &str) -> Option<Arc<NetlistEntry>> {
        if let Some(Value::Netlist(e)) = self.get_mem(key) {
            self.hit();
            return Some(e);
        }
        self.miss();
        None
    }

    /// Stores a `netlist-opt` outcome.
    pub fn put_netlist(&self, key: &str, e: &Arc<NetlistEntry>) {
        self.put_mem(key, Value::Netlist(e.clone()), approx_netlist(e));
    }

    /// Looks up a `schedule` result.
    pub fn get_schedules(&self, key: &str) -> Option<Arc<Vec<Schedule>>> {
        if let Some(Value::Schedule(s)) = self.get_mem(key) {
            self.hit();
            return Some(s);
        }
        self.miss();
        None
    }

    /// Stores a `schedule` result.
    pub fn put_schedules(&self, key: &str, s: &Arc<Vec<Schedule>>) {
        self.put_mem(key, Value::Schedule(s.clone()), approx_schedules(s));
    }

    /// Looks up an `allocate` result.
    pub fn get_allocation(&self, key: &str) -> Option<Arc<Allocation>> {
        if let Some(Value::Allocate(a)) = self.get_mem(key) {
            self.hit();
            return Some(a);
        }
        self.miss();
        None
    }

    /// Stores an `allocate` result.
    pub fn put_allocation(&self, key: &str, a: &Arc<Allocation>) {
        self.put_mem(key, Value::Allocate(a.clone()), approx_allocation(a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directives::MergePolicy;
    use crate::transform::apply_loop_transforms;
    use hls_ir::parse_function;

    const SRC: &str = r#"
        void k(sc_fixed<8,4> x[2], sc_fixed<12,6> *out) {
            sc_fixed<12,6> acc = 0;
            l: for (int i = 0; i < 2; i++) {
                acc += x[i] * 2;
            }
            *out = acc;
        }
    "#;

    fn sample_transform() -> Arc<TransformResult> {
        let func = parse_function(SRC).unwrap();
        Arc::new(apply_loop_transforms(&func, &Directives::new(10.0)))
    }

    #[test]
    fn keys_chain_and_separate_stages() {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let lib = TechLibrary::asic_100mhz();
        let b = base_key(&func);
        let t = transform_key(&b, &d);
        let l = lower_key(&t, &d);
        let n = netlist_key(&l, &d, &lib);
        let s = schedule_key(&n, &d, &lib);
        let a = allocate_key(&s, &d, &lib);
        let all = [&b, &t, &l, &n, &s, &a];
        for (i, x) in all.iter().enumerate() {
            assert_eq!(x.len(), 32);
            for y in &all[i + 1..] {
                assert_ne!(x, y, "stage keys must not collide");
            }
        }
        // Determinism: recomputation yields the same key.
        assert_eq!(t, transform_key(&base_key(&func), &d));
    }

    #[test]
    fn clock_only_affects_clock_dependent_stages() {
        let func = parse_function(SRC).unwrap();
        let lib = TechLibrary::asic_100mhz();
        let d1 = Directives::new(10.0);
        let mut d2 = Directives::new(10.0);
        d2.clock_period_ns = f64::from_bits(d2.clock_period_ns.to_bits() + 1);
        let b = base_key(&func);
        assert_eq!(transform_key(&b, &d1), transform_key(&b, &d2));
        let t = transform_key(&b, &d1);
        assert_eq!(lower_key(&t, &d1), lower_key(&t, &d2));
        let l = lower_key(&t, &d1);
        assert_eq!(netlist_key(&l, &d1, &lib), netlist_key(&l, &d2, &lib));
        let n = netlist_key(&l, &d1, &lib);
        // One clock LSB forces a schedule miss.
        assert_ne!(schedule_key(&n, &d1, &lib), schedule_key(&n, &d2, &lib));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = PassCache::new(PassCacheConfig {
            max_entries: SHARDS, // one entry per shard
            max_bytes: usize::MAX,
        });
        let t = sample_transform();
        // Two keys landing in the same shard: second insert evicts first.
        let k1 = "00aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        let k2 = "00bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb";
        cache.put_transform(k1, &t);
        cache.put_transform(k2, &t);
        assert!(cache.get_transform(k1).is_none());
        assert!(cache.get_transform(k2).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.inserts, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn byte_cap_keeps_most_recent() {
        let t = sample_transform();
        let one = approx_transform(&t);
        let cache = PassCache::new(PassCacheConfig {
            max_entries: usize::MAX >> 1,
            // Per-shard cap fits one entry but not two.
            max_bytes: one * SHARDS + SHARDS,
        });
        cache.put_transform("00aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", &t);
        cache.put_transform("00bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb", &t);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        assert!(cache
            .get_transform("00bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb")
            .is_some());
    }

    #[test]
    fn one_directive_bit_forces_a_miss() {
        let func = parse_function(SRC).unwrap();
        let b = base_key(&func);
        let d1 = Directives::new(10.0);
        // One directive bit (an unroll factor) re-keys the transform
        // stage and, through key chaining, every stage downstream.
        let d2 = Directives::new(10.0).unroll("l", crate::directives::Unroll::Factor(2));
        assert_ne!(transform_key(&b, &d1), transform_key(&b, &d2));
        // A merge-policy flip re-keys too.
        let mut d3 = Directives::new(10.0);
        d3.merge_policy = if d3.merge_policy == MergePolicy::Off {
            MergePolicy::AllowHazards
        } else {
            MergePolicy::Off
        };
        assert_ne!(transform_key(&b, &d1), transform_key(&b, &d3));
    }

    #[test]
    fn one_library_delay_forces_a_miss_downstream_only() {
        let func = parse_function(SRC).unwrap();
        let d = Directives::new(10.0);
        let lib1 = TechLibrary::asic_100mhz();
        let lib2 = lib1.with_delay_base_offset(1e-3);
        let b = base_key(&func);
        let t = transform_key(&b, &d);
        let l = lower_key(&t, &d);
        // Transforms and lowering never read the library, so their keys
        // are library-blind by construction; the first library consumer
        // (netlist-opt) and everything after it must miss.
        assert_ne!(netlist_key(&l, &d, &lib1), netlist_key(&l, &d, &lib2));
        let n = netlist_key(&l, &d, &lib1);
        assert_ne!(schedule_key(&n, &d, &lib1), schedule_key(&n, &d, &lib2));
    }
}
