//! Content-addressed proof-verdict cache.
//!
//! Proofs are the most expensive stage of the flow, and a design-space
//! sweep re-proves the same facts constantly: netlist rewrite
//! obligations repeat whenever two points share a lowered design, and
//! whole FSMD equivalence proofs repeat across clock twins, repeated
//! sweeps and service restarts. This module caches both:
//!
//! - **Netlist obligations** are keyed by a [`hls_ir::stable_digest`]
//!   over the *exact* proof inputs — the schema tag, the originating
//!   pass name, the prover's [`ProveOptions::max_blast_bits`] budget and
//!   the derived `Debug` rendering of both the before and after lowered
//!   designs. Every type in a [`hls_core::Lowered`] derives `Debug`,
//!   which prints every field, so the key covers every field by
//!   construction — a field added later cannot be left out. Any change
//!   to either side, the pass attribution or the blast budget changes
//!   the key and forces a fresh proof.
//! - **FSMD equivalence verdicts** are keyed by the same structural
//!   identity [`rtl::Fsmd::same_machine`] uses — name, ports, control,
//!   schedules and the lowered design — and deliberately *exclude*
//!   [`rtl::Fsmd::clock_ns`]: clock twins chain identically, so one
//!   proof covers them all.
//!
//! # Soundness
//!
//! The in-memory tiers replay a verdict only under a key derived from
//! the complete proof input, so a replayed [`ProveVerdict::Disproved`]
//! or [`ProveVerdict::Unknown`] is byte-identical to recomputing it.
//! The persistent tier is stricter: **only `Proved` verdicts are ever
//! written to disk**, and the decoder only *constructs* `Proved`
//! values, so a refuted or undecided obligation can never be served
//! from a stale or tampered store as anything at all — it simply misses
//! and re-proves. The [`ProofCacheStats::downgrades`] counter counts
//! decoded persistent entries that were anything other than `Proved`;
//! it is structurally pinned to zero and exported so benchmarks and
//! tests can assert the invariant end to end. The persistent tier is
//! the proof side ([`EntryKind::Proof`](hls_core::store::EntryKind)) of
//! an [`ArtifactStore`]: each entry's preimage is the proof key, so
//! torn, edited or misplaced entries fail the store's integrity
//! envelope, quarantine, and read as misses.

use std::collections::HashMap;
use std::fmt::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hls_core::store::{ArtifactStore, RequestKey, StoreConfig};
use hls_core::NetlistObligation;
use hls_ir::json::{field, Encode};
use hls_ir::{stable_digest, Json};
use rtl::Fsmd;

use crate::equiv::{Obligation, ProofMethod, ProveOptions, ProveVerdict};
use crate::pipeline::{VerifyFinding, VerifyReport};

/// Key-schema tag: bumped whenever key derivation or the persisted
/// encoding changes shape, so stale stores miss instead of colliding.
/// pf2: designs render through their derived `Debug`.
const KEY_SCHEMA: &str = "pf2";

/// Cache key for one netlist rewrite obligation under a prover budget.
///
/// Covers the schema tag, the pass name (verdict messages embed it), the
/// bit-blast budget (a bigger budget can turn `Unknown` into `Proved`)
/// and the derived `Debug` rendering of both lowered designs.
pub fn obligation_key(ob: &NetlistObligation, opts: &ProveOptions) -> String {
    obligation_key_tagged(ob, opts, DEFAULT_OPTIONS_TAG)
}

/// [`obligation_key`] with an explicit options tag for non-default
/// checker regimes (e.g. the concrete cross-check in
/// [`check_netlist_obligation_with`](crate::netlist::check_netlist_obligation_with)).
/// A verdict recorded under one regime never replays for another — the
/// tag is part of the content key, exactly as in [`fsmd_key`].
pub fn obligation_key_tagged(ob: &NetlistObligation, opts: &ProveOptions, tag: &str) -> String {
    let mut text = String::new();
    let _ = write!(
        text,
        "{KEY_SCHEMA};obligation;{tag};{};{};{:?};{:?}",
        ob.pass, opts.max_blast_bits, ob.before, ob.after
    );
    stable_digest(text.as_bytes())
}

/// Cache key for one FSMD equivalence proof under a prover/fuzzer
/// configuration digest.
///
/// Mirrors [`Fsmd::same_machine`]: two machines with equal name, ports,
/// control, schedules and lowered design get the same key regardless of
/// target clock — the clock only annotates emitted Verilog, never the
/// proved behavior. `options_tag` must distinguish prover/fuzzer knob
/// settings when callers use non-default ones; the default pipeline
/// passes [`DEFAULT_OPTIONS_TAG`].
pub fn fsmd_key(fsmd: &Fsmd, options_tag: &str) -> String {
    let mut text = String::new();
    let _ = write!(
        text,
        "{KEY_SCHEMA};fsmd;{options_tag};{};{:?};{:?};{:?};{:?}",
        fsmd.name, fsmd.ports, fsmd.control, fsmd.schedules, fsmd.lowered
    );
    stable_digest(text.as_bytes())
}

/// The options tag for the default `verify_equiv` prove/fuzz knobs.
pub const DEFAULT_OPTIONS_TAG: &str = "default";

/// Configuration for a [`ProofCache`].
#[derive(Debug, Clone, Default)]
pub struct ProofCacheConfig {
    /// Root of the [`ArtifactStore`] holding the persistent tier; `None`
    /// keeps the cache memory-only. Only `Proved` verdicts are ever
    /// persisted.
    pub persist_dir: Option<PathBuf>,
}

/// Effectiveness counters for a [`ProofCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofCacheStats {
    /// Verdicts replayed from either tier.
    pub hits: u64,
    /// Lookups that found nothing and forced a fresh proof.
    pub misses: u64,
    /// Verdicts inserted.
    pub inserts: u64,
    /// Hits satisfied by the persistent tier (subset of `hits`).
    pub persist_hits: u64,
    /// Persistent entries quarantined after failing integrity.
    pub persist_quarantined: u64,
    /// Decoded persistent entries that were anything but `Proved`.
    /// Structurally pinned to zero — the encoder refuses non-`Proved`
    /// verdicts and the decoder only constructs `Proved` ones — and
    /// exported so the invariant is assertable end to end.
    pub downgrades: u64,
    /// Resident obligation verdicts.
    pub obligation_entries: u64,
    /// Resident FSMD verdicts.
    pub fsmd_entries: u64,
}

hls_ir::json_struct! {
    pub ProofCacheStats {
        hits, misses, inserts, persist_hits, persist_quarantined, downgrades, obligation_entries,
        fsmd_entries,
    }
}

/// A two-tier (memory + optional disk) proof-verdict cache, shared by
/// reference across the prover's worker pool.
#[derive(Debug)]
pub struct ProofCache {
    obligations: Mutex<HashMap<String, ProveVerdict>>,
    fsmd: Mutex<HashMap<String, VerifyReport>>,
    persist: Option<ArtifactStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    persist_hits: AtomicU64,
    downgrades: AtomicU64,
}

impl Default for ProofCache {
    fn default() -> ProofCache {
        ProofCache::in_memory()
    }
}

impl ProofCache {
    /// Opens a cache; I/O trouble with the persistent root degrades to a
    /// memory-only cache (a proof cache miss is always recoverable).
    pub fn new(config: &ProofCacheConfig) -> ProofCache {
        let persist = config
            .persist_dir
            .as_ref()
            .and_then(|root| ArtifactStore::open(root, StoreConfig::default()).ok());
        ProofCache {
            obligations: Mutex::new(HashMap::new()),
            fsmd: Mutex::new(HashMap::new()),
            persist,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            downgrades: AtomicU64::new(0),
        }
    }

    /// A memory-only cache.
    pub fn in_memory() -> ProofCache {
        ProofCache::new(&ProofCacheConfig::default())
    }

    /// Replays the verdict proved under `key`, if any.
    pub fn get_obligation(&self, key: &str) -> Option<ProveVerdict> {
        if let Some(v) = self.obligations.lock().unwrap().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v.clone());
        }
        if let Some(store) = &self.persist {
            if let Some(body) = store.lookup_proof(&store_key(key)) {
                if let Some(v) = decode_obligation(&body) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.persist_hits.fetch_add(1, Ordering::Relaxed);
                    self.obligations
                        .lock()
                        .unwrap()
                        .insert(key.to_string(), v.clone());
                    return Some(v);
                }
                self.downgrades.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a verdict under `key`. Every verdict is kept in memory
    /// (a replayed `Disproved`/`Unknown` is byte-identical to
    /// recomputation under the same key); only `Proved` reaches disk.
    pub fn put_obligation(&self, key: &str, verdict: &ProveVerdict) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.obligations
            .lock()
            .unwrap()
            .insert(key.to_string(), verdict.clone());
        if let (Some(store), Some(body)) = (&self.persist, encode_obligation(verdict)) {
            // Best-effort: a failed write leaves a miss, never a wrong entry.
            let _ = store.insert_proof(&store_key(key), body);
        }
    }

    /// Replays the FSMD verdict proved under `key`, if any.
    pub fn get_fsmd(&self, key: &str) -> Option<VerifyReport> {
        if let Some(r) = self.fsmd.lock().unwrap().get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(r.clone());
        }
        if let Some(store) = &self.persist {
            if let Some(body) = store.lookup_proof(&store_key(key)) {
                if let Some(r) = decode_fsmd(&body) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.persist_hits.fetch_add(1, Ordering::Relaxed);
                    self.fsmd.lock().unwrap().insert(key.to_string(), r.clone());
                    return Some(r);
                }
                self.downgrades.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records an FSMD verdict under `key`; only passing proofs
    /// ([`VerifyFinding::Proved`]) reach disk.
    pub fn put_fsmd(&self, key: &str, report: &VerifyReport) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.fsmd
            .lock()
            .unwrap()
            .insert(key.to_string(), report.clone());
        if let (Some(store), Some(body)) = (&self.persist, encode_fsmd(report)) {
            let _ = store.insert_proof(&store_key(key), body);
        }
    }

    /// Effectiveness counters and census.
    pub fn stats(&self) -> ProofCacheStats {
        ProofCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            persist_quarantined: self.persist.as_ref().map_or(0, |p| p.quarantined()),
            downgrades: self.downgrades.load(Ordering::Relaxed),
            obligation_entries: self.obligations.lock().unwrap().len() as u64,
            fsmd_entries: self.fsmd.lock().unwrap().len() as u64,
        }
    }
}

/// The store address of the verdict cached under proof key `key`: the
/// key itself is the preimage, so the store's preimage→digest check
/// covers proof entries too.
fn store_key(key: &str) -> RequestKey {
    RequestKey::for_preimage(key.to_string())
}

/// Encodes a verdict for the persistent tier. Returns `None` — meaning
/// "do not persist" — for anything but `Proved`; this is the soundness
/// choke point, not a serialization shortcut.
fn encode_obligation(verdict: &ProveVerdict) -> Option<Json> {
    let ProveVerdict::Proved {
        obligations,
        sym_nodes,
    } = verdict
    else {
        return None;
    };
    let items = obligations
        .iter()
        .map(|ob| match ob.method {
            ProofMethod::Canonical => vec![ob.name.clone(), "c".to_string()],
            ProofMethod::BitBlast { points } => {
                vec![ob.name.clone(), "b".to_string(), points.to_string()]
            }
        })
        .collect::<Vec<_>>();
    Some(Json::obj(vec![
        ("stage", "obligation".encode()),
        ("sym_nodes", sym_nodes.encode()),
        ("obligations", items.encode()),
    ]))
}

/// Total-but-unforgiving decoder: only ever constructs `Proved`
/// verdicts, and any malformation reads as a miss.
fn decode_obligation(body: &Json) -> Option<ProveVerdict> {
    if field::<String>(body, "proof", "stage").ok()? != "obligation" {
        return None;
    }
    let sym_nodes = field(body, "proof", "sym_nodes").ok()?;
    let mut obligations = Vec::new();
    for item in field::<Vec<Vec<String>>>(body, "proof", "obligations").ok()? {
        let method = match (item.get(1)?.as_str(), item.get(2)) {
            ("c", None) => ProofMethod::Canonical,
            ("b", Some(points)) if item.len() == 3 => ProofMethod::BitBlast {
                points: points.parse().ok()?,
            },
            _ => return None,
        };
        let name = item.into_iter().next()?;
        obligations.push(Obligation { name, method });
    }
    Some(ProveVerdict::Proved {
        obligations,
        sym_nodes,
    })
}

/// Encodes an FSMD verdict for the persistent tier; `None` for anything
/// but a passing proof.
fn encode_fsmd(report: &VerifyReport) -> Option<Json> {
    let VerifyFinding::Proved {
        obligations,
        bit_blasted,
        sym_nodes,
    } = &report.finding
    else {
        return None;
    };
    Some(Json::obj(vec![
        ("stage", "fsmd".encode()),
        ("obligations", obligations.encode()),
        ("bit_blasted", bit_blasted.encode()),
        ("sym_nodes", sym_nodes.encode()),
    ]))
}

/// Decoder for persisted FSMD verdicts: only constructs `Proved`.
fn decode_fsmd(body: &Json) -> Option<VerifyReport> {
    if field::<String>(body, "proof", "stage").ok()? != "fsmd" {
        return None;
    }
    Some(VerifyReport {
        finding: VerifyFinding::Proved {
            obligations: field(body, "proof", "obligations").ok()?,
            bit_blasted: field(body, "proof", "bit_blasted").ok()?,
            sym_nodes: field(body, "proof", "sym_nodes").ok()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::FuzzCex;
    use crate::fuzz::Stimulus;

    fn proved() -> ProveVerdict {
        ProveVerdict::Proved {
            obligations: vec![
                Obligation {
                    name: "out".into(),
                    method: ProofMethod::Canonical,
                },
                Obligation {
                    name: "acc".into(),
                    method: ProofMethod::BitBlast { points: 1024 },
                },
            ],
            sym_nodes: 77,
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hls-proofcache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn obligation_round_trip_and_counters() {
        let cache = ProofCache::in_memory();
        let key = stable_digest(b"ob-1");
        assert!(cache.get_obligation(&key).is_none());
        cache.put_obligation(&key, &proved());
        let hit = cache.get_obligation(&key).expect("hit");
        assert!(hit.is_proved());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.downgrades, 0);
    }

    #[test]
    fn only_proved_survives_reopen() {
        let root = tmp_root("persist");
        let config = ProofCacheConfig {
            persist_dir: Some(root.clone()),
        };
        let proved_key = stable_digest(b"proved");
        let unknown_key = stable_digest(b"unknown");
        let fuzzed_key = stable_digest(b"fuzzed");
        {
            let cache = ProofCache::new(&config);
            cache.put_obligation(&proved_key, &proved());
            cache.put_obligation(
                &unknown_key,
                &ProveVerdict::Unknown {
                    reason: "wide cone".into(),
                    proved: 0,
                    unproved: vec!["out".into()],
                },
            );
            cache.put_fsmd(
                &fuzzed_key,
                &VerifyReport {
                    finding: VerifyFinding::FuzzCounterexample(FuzzCex {
                        stimulus: Stimulus::default(),
                        failing_call: 0,
                        message: "mismatch".into(),
                    }),
                },
            );
        }
        let cache = ProofCache::new(&config);
        assert!(
            cache.get_obligation(&proved_key).is_some(),
            "proved verdicts survive a restart"
        );
        assert!(
            cache.get_obligation(&unknown_key).is_none(),
            "non-proved verdicts must not be persisted"
        );
        assert!(
            cache.get_fsmd(&fuzzed_key).is_none(),
            "counterexamples must not be persisted"
        );
        assert_eq!(cache.stats().persist_hits, 1);
        assert_eq!(cache.stats().downgrades, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    fn fsmd_for(body: &str) -> Fsmd {
        let src = format!("void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) {{ {body} }}");
        let func = hls_ir::parse_function(&src).unwrap();
        let lib = hls_core::TechLibrary::asic_100mhz();
        let r = hls_core::synthesize(&func, &hls_core::Directives::new(10.0), &lib).unwrap();
        Fsmd::from_synthesis(&r)
    }

    #[test]
    fn damaged_entries_quarantine_and_reprove() {
        use crate::pipeline::verify_equiv_cached;
        use std::fs;

        assert_eq!(hls_core::store::EntryKind::by_name("proof"), None);
        let root = tmp_root("integrity");
        let config = ProofCacheConfig {
            persist_dir: Some(root.clone()),
        };
        let entry = |f: &Fsmd| {
            let digest = store_key(&fsmd_key(f, DEFAULT_OPTIONS_TAG)).digest;
            root.join("proofs")
                .join(&digest[..2])
                .join(format!("{digest}.json"))
        };
        let a = fsmd_for("*y = x + x;");
        let b = fsmd_for("*y = x + x + x;");
        assert!(verify_equiv_cached(&a, &ProofCache::new(&config)).passed());
        let good = fs::read_to_string(entry(&a)).unwrap();

        // A torn write, a body edited under an unchanged digest, and a
        // verdict copied under another design's key.
        let torn = good[..good.len() / 2].to_string();
        let edited = good.replace("\"bit_blasted\":", "\"bit_blasted\":1");
        assert_ne!(edited, good);
        for (target, text) in [(&a, torn), (&a, edited), (&b, good)] {
            let path = entry(target);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
            let cache = ProofCache::new(&config);
            assert!(verify_equiv_cached(target, &cache).passed());
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1), "re-proved");
            assert_eq!((s.persist_quarantined, s.downgrades), (1, 0));
            // The re-proof repaired the entry for the next process.
            let cache = ProofCache::new(&config);
            assert!(verify_equiv_cached(target, &cache).passed());
            assert_eq!(cache.stats().persist_hits, 1);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn decoder_never_constructs_non_proved() {
        // Even a hand-forged body claiming to be a verdict decodes to
        // Proved or nothing — there is no encoding for refutation.
        let forged = Json::obj(vec![
            ("stage", Json::str("obligation")),
            ("sym_nodes", Json::size(1)),
            ("obligations", Json::Arr(vec![Json::str("disproved")])),
        ]);
        assert!(decode_obligation(&forged).is_none());
        let forged = Json::obj(vec![("stage", Json::str("fsmd"))]);
        assert!(decode_fsmd(&forged).is_none());
    }
}
