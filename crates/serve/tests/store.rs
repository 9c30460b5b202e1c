//! Artifact-store integrity under concurrency, corruption and pressure:
//! the ISSUE's acceptance gauntlet for the content-addressed store.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, SystemTime};

use hls_core::{
    synthesize, ArrayMapping, DesignMetrics, Directives, InterfaceKind, MergePolicy, OpClass,
    OptLevel, TechLibrary, Unroll,
};
use hls_ir::{parse_function, stable_digest, Json};
use hls_serve::{
    ArtifactStore, CachedArtifact, EntryKind, NegativeEntry, RequestKey, StoreConfig, Verdict,
    STALE_LOCK,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hls-store-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A fabricated but well-formed key: digest always matches the preimage,
/// as the store requires.
fn key(tag: &str) -> RequestKey {
    let preimage = format!("store-test-preimage/{tag}");
    RequestKey {
        digest: stable_digest(preimage.as_bytes()),
        preimage,
    }
}

fn metrics() -> DesignMetrics {
    static ONCE: OnceLock<DesignMetrics> = OnceLock::new();
    ONCE.get_or_init(|| {
        let f = parse_function("void t(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }")
            .expect("parses");
        synthesize(&f, &Directives::new(10.0), &TechLibrary::asic_100mhz())
            .expect("synthesizes")
            .metrics
    })
    .clone()
}

fn artifact(tag: &str) -> CachedArtifact {
    CachedArtifact {
        design: tag.to_string(),
        verilog: format!("module {tag}();\nendmodule\n"),
        metrics: metrics(),
        trace: Json::Null,
        verdict: Some(Verdict {
            passed: true,
            detail: "proved".into(),
        }),
        diagnostics: Json::Arr(Vec::new()),
    }
}

#[test]
fn eight_writers_eight_readers_stress() {
    let root = scratch("stress");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    const WRITERS: usize = 8;
    const READERS: usize = 8;
    const PER_WRITER: usize = 24;
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        for w in 0..WRITERS {
            let store = &store;
            s.spawn(move || {
                for i in 0..PER_WRITER {
                    // Writers collide on half the key space on purpose.
                    let tag = format!("{}-{i}", w % 2);
                    store.insert(&key(&tag), &artifact(&tag)).expect("insert");
                }
            });
        }
        for _ in 0..READERS {
            let store = &store;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    for w in 0..2 {
                        for i in 0..PER_WRITER {
                            let tag = format!("{w}-{i}");
                            if let Some(a) = store.lookup(&key(&tag)) {
                                // A served entry is never torn.
                                assert_eq!(a.design, tag);
                                assert!(a.verilog.contains(&format!("module {tag}")));
                            }
                        }
                    }
                }
            });
        }
        // Writers are the first WRITERS handles; scope drops in reverse
        // order of spawn, so signal readers once everything is inserted.
        s.spawn(|| {
            // Poll until the full key space is present, then stop readers.
            loop {
                let all = (0..2).all(|w| {
                    (0..PER_WRITER).all(|i| store.lookup(&key(&format!("{w}-{i}"))).is_some())
                });
                if all {
                    done.store(true, Ordering::Relaxed);
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
    });

    let stats = store.stats();
    assert_eq!(stats.entries, 2 * PER_WRITER as u64);
    assert_eq!(stats.quarantined, 0, "no reader ever saw a torn entry");
    assert_eq!(stats.evictions, 0);
    // Every key is servable after the dust settles.
    for w in 0..2 {
        for i in 0..PER_WRITER {
            assert!(store.lookup(&key(&format!("{w}-{i}"))).is_some());
        }
    }
    // No stale locks or temp files left behind.
    assert_eq!(fs::read_dir(root.join("locks")).unwrap().count(), 0);
    assert_eq!(fs::read_dir(root.join("tmp")).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn truncated_entry_is_quarantined_and_recoverable() {
    let root = scratch("quarantine");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("victim");
    store.insert(&k, &artifact("victim")).unwrap();

    // Truncate the entry mid-document, as a crash or disk fault would.
    let path = root
        .join("objects")
        .join(&k.digest[..2])
        .join(format!("{}.json", k.digest));
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() / 2]).unwrap();

    // The load integrity-checks, quarantines, and reports a miss.
    assert!(store.lookup(&k).is_none());
    assert!(!path.exists(), "corrupt entry left the serving path");
    assert!(root
        .join("quarantine")
        .join(format!("{}.json", k.digest))
        .exists());
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.misses, 1);

    // Re-synthesis (a fresh insert) repopulates the same digest.
    store.insert(&k, &artifact("victim")).unwrap();
    let back = store.lookup(&k).expect("repopulated");
    assert_eq!(back.verilog, artifact("victim").verilog);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn tampered_body_fails_the_body_digest() {
    let root = scratch("tamper");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("tamper");
    store.insert(&k, &artifact("tamper")).unwrap();
    let path = root
        .join("objects")
        .join(&k.digest[..2])
        .join(format!("{}.json", k.digest));
    // Flip the Verilog inside an otherwise well-formed document.
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, text.replace("module tamper", "module mallory")).unwrap();
    assert!(
        store.lookup(&k).is_none(),
        "body digest must catch tampering"
    );
    assert_eq!(store.stats().quarantined, 1);
    let _ = fs::remove_dir_all(&root);
}

/// Builds a store with `n` entries whose modification times are pinned to
/// a deterministic ladder (entry `i` at epoch + `i` seconds).
fn pinned_store(root: &Path, n: usize, max_bytes: u64) -> ArtifactStore {
    let store = ArtifactStore::open(root, StoreConfig { max_bytes }).unwrap();
    for i in 0..n {
        let tag = format!("evict-{i}");
        store.insert(&key(&tag), &artifact(&tag)).unwrap();
        let k = key(&tag);
        let path = root
            .join("objects")
            .join(&k.digest[..2])
            .join(format!("{}.json", k.digest));
        let f = fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + i as u64))
            .unwrap();
    }
    store
}

#[test]
fn eviction_is_lru_and_deterministic() {
    // Two stores built identically evict identically.
    let size = {
        let root = scratch("evict-probe");
        let store = pinned_store(&root, 1, u64::MAX);
        let bytes = store.stats().bytes;
        let _ = fs::remove_dir_all(&root);
        bytes
    };
    let budget = size * 4 + size / 2; // room for 4 of the 10 entries
    let mut evicted_runs = Vec::new();
    for run in 0..2 {
        let root = scratch(&format!("evict-{run}"));
        // Populate (and pin mtimes) without pressure, then open a
        // size-bounded handle and trim once.
        pinned_store(&root, 10, u64::MAX);
        let store = ArtifactStore::open(&root, StoreConfig { max_bytes: budget }).unwrap();
        let evicted = store.enforce_budget().unwrap();
        // Survivors are exactly the most recently used entries.
        for i in 0..10 {
            let tag = format!("evict-{i}");
            let present = store.lookup(&key(&tag)).is_some();
            assert_eq!(present, i >= 6, "entry {i} survival under LRU");
        }
        assert!(store.stats().bytes <= budget);
        evicted_runs.push(evicted);
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(
        evicted_runs[0], evicted_runs[1],
        "eviction order is deterministic"
    );
    assert_eq!(evicted_runs[0].len(), 6);
}

#[test]
fn an_entry_touched_behind_the_handles_back_is_not_evicted_early() {
    let size = {
        let root = scratch("bumped-probe");
        let bytes = pinned_store(&root, 1, u64::MAX).stats().bytes;
        let _ = fs::remove_dir_all(&root);
        bytes
    };
    let root = scratch("bumped");
    pinned_store(&root, 10, u64::MAX);
    let store = ArtifactStore::open(
        &root,
        StoreConfig {
            max_bytes: size * 4 + size / 2,
        },
    )
    .unwrap();
    // Another process reads entry 0 after this handle indexed it as the
    // oldest: on disk it is now the most recently used.
    let k0 = key("evict-0");
    let path = root
        .join("objects")
        .join(&k0.digest[..2])
        .join(format!("{}.json", k0.digest));
    fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_100))
        .unwrap();
    let evicted = store.enforce_budget().unwrap();
    let expected: Vec<String> = (1..7).map(|i| key(&format!("evict-{i}")).digest).collect();
    assert_eq!(evicted, expected, "true LRU order, entry 0 re-keyed");
    assert!(store.lookup(&k0).is_some(), "the touched entry survives");
    let _ = fs::remove_dir_all(&root);
}

/// What a handle's size index says: the census fields of
/// [`ArtifactStore::stats`] and the eviction order.
type IndexView = ([u64; 6], Vec<(EntryKind, String)>);

fn index_view(store: &ArtifactStore) -> IndexView {
    let s = store.stats();
    (
        [
            s.entries,
            s.bytes,
            s.neg_entries,
            s.neg_bytes,
            s.proof_entries,
            s.proof_bytes,
        ],
        store.eviction_order(),
    )
}

fn kind_path(root: &Path, kind: EntryKind, digest: &str) -> PathBuf {
    let dir = match kind {
        EntryKind::Positive => "objects",
        EntryKind::Negative => "negative",
        EntryKind::Proof => "proofs",
    };
    root.join(dir)
        .join(&digest[..2])
        .join(format!("{digest}.json"))
}

#[test]
fn size_index_matches_a_fresh_scan_after_every_operation() {
    // Two handles on one root (as the service and the proof cache may
    // be) take a seeded mix of every mutating operation under a tight
    // budget; after each step both must agree with a handle that has
    // just scanned the disk.
    let root = scratch("index");
    let side_root = scratch("index-side");
    let side = ArtifactStore::open(&side_root, StoreConfig::default()).unwrap();
    side.insert(&key("probe"), &artifact("probe")).unwrap();
    let cfg = StoreConfig {
        max_bytes: side.stats().bytes * 6,
    };
    let handles = [
        ArtifactStore::open(&root, cfg).unwrap(),
        ArtifactStore::open(&root, cfg).unwrap(),
    ];
    let failure = NegativeEntry {
        design: "bad".into(),
        code: "infeasible-clock".into(),
        error: "operation cannot fit the clock".into(),
        diagnostics: Json::Arr(Vec::new()),
    };
    let mut state = 0x5eed_1dc5_u64;
    let mut draw = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    let mut inserted: Vec<(EntryKind, RequestKey)> = Vec::new();
    let mut max_proofs = 0;
    for step in 0..240u64 {
        let h = &handles[draw(2) as usize];
        let tag = format!("index-{step}");
        let k = key(&tag);
        match draw(7) {
            0 => {
                h.insert(&k, &artifact(&tag)).unwrap();
                inserted.push((EntryKind::Positive, k));
            }
            1 => {
                side.insert(&k, &artifact(&tag)).unwrap();
                let text = side.read_raw(EntryKind::Positive, &k.digest).unwrap();
                assert!(h.insert_raw(EntryKind::Positive, &k.digest, &text).unwrap());
                inserted.push((EntryKind::Positive, k));
            }
            2 => {
                h.insert_negative(&k, &failure).unwrap();
                inserted.push((EntryKind::Negative, k));
            }
            3 => {
                h.insert_proof(&k, Json::obj(vec![("step", Json::count(step))]))
                    .unwrap();
                inserted.push((EntryKind::Proof, k));
            }
            op @ (4 | 5) if !inserted.is_empty() => {
                let (kind, k) = &inserted[draw(inserted.len() as u64) as usize];
                let path = kind_path(&root, *kind, &k.digest);
                let corrupt = op == 5 && path.exists();
                if corrupt {
                    let text = fs::read_to_string(&path).unwrap();
                    fs::write(&path, &text[..text.len() / 2]).unwrap();
                }
                let found = match kind {
                    EntryKind::Positive => h.lookup(k).is_some(),
                    EntryKind::Negative => h.lookup_negative(k).is_some(),
                    EntryKind::Proof => h.lookup_proof(k).is_some(),
                };
                assert!(!(corrupt && found), "step {step}: a torn entry served");
            }
            _ => {
                h.enforce_budget().unwrap();
            }
        }
        let view = index_view(&handles[0]);
        assert_eq!(
            view,
            index_view(&handles[1]),
            "step {step}: handles disagree"
        );
        let fresh = ArtifactStore::open(&root, cfg).unwrap();
        assert_eq!(view, index_view(&fresh), "step {step}: index != disk");
        max_proofs = max_proofs.max(view.0[4]);
    }
    // Every path the index follows was exercised.
    let total = |f: fn(&hls_serve::StoreStats) -> u64| -> u64 {
        handles.iter().map(|h| f(&h.stats())).sum()
    };
    assert!(total(|s| s.evictions) > 0, "the budget never evicted");
    assert!(total(|s| s.quarantined) > 0, "nothing was quarantined");
    assert!(total(|s| s.hits) > 0, "no lookup touched an entry");
    assert!(max_proofs > 0, "the census never showed a proof entry");
    for r in [&root, &side_root] {
        let _ = fs::remove_dir_all(r);
    }
}

#[test]
fn request_digest_is_stable_across_processes() {
    // Golden constant: computed once in a separate process. If this test
    // fails, the canonical preimage changed — bump REQUEST_SCHEMA and
    // update the constant, because every existing store entry is invalid.
    let f = parse_function(
        "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
         sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
    )
    .unwrap();
    let k = hls_serve::request_key(
        &f,
        &Directives::new(10.0),
        &TechLibrary::asic_100mhz(),
        true,
    );
    assert_eq!(k.digest, "d6d8538784ccb0927f98255f2003719f");
}

#[test]
fn request_digest_pins_every_directive_field() {
    // Golden constants, like the one above, for a directive set with
    // every field away from its default: each unroll kind, a pipeline
    // II, `no_merge`, register and memory arrays, all four interface
    // kinds, an FU limit, netlist-opt `basic` and a stream shell.
    let f = parse_function(
        "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
         sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
    )
    .unwrap();
    let d = Directives::new(7.5)
        .merge_policy(MergePolicy::ExactOnly)
        .unroll("sum_loop", Unroll::Factor(2))
        .pipeline("sum_loop", 3)
        .unroll("full_loop", Unroll::Full)
        .unroll("rolled_loop", Unroll::None)
        .no_merge("rolled_loop")
        .map_array("x", ArrayMapping::Registers)
        .map_array(
            "taps",
            ArrayMapping::Memory {
                read_ports: 2,
                write_ports: 1,
            },
        )
        .interface("out", InterfaceKind::Wire)
        .interface("x", InterfaceKind::RegisterHandshake)
        .interface("taps", InterfaceKind::Memory)
        .interface("samples", InterfaceKind::Stream)
        .limit_fu(OpClass::Mul, 3)
        .netlist_opt_level(OptLevel::Basic)
        .stream_interface(4, true);
    assert_eq!(
        d.to_json().write(),
        r#"{"clock_period_ns":7.5,"merge_policy":"exact_only","loops":{"full_loop":{"unroll":"full","pipeline_ii":null,"no_merge":false},"rolled_loop":{"unroll":"none","pipeline_ii":null,"no_merge":true},"sum_loop":{"unroll":2,"pipeline_ii":3,"no_merge":false}},"arrays":{"taps":{"read_ports":2,"write_ports":1},"x":"registers"},"interfaces":{"out":"wire","samples":"stream","taps":"memory","x":"register_handshake"},"fu_limits":{"mul":3},"netlist_opt":{"level":"basic"},"stream":{"fifo_depth":4,"fall_through":true}}"#
    );
    let k = hls_serve::request_key(&f, &d, &TechLibrary::asic_100mhz(), false);
    assert_eq!(k.digest, r#"ac0efdcb5a642289c6e4b5374fdc429b"#);
}

#[test]
fn netlist_opt_levels_never_alias_in_the_digest() {
    // Opt-on and opt-off artifacts are different designs; their request
    // keys must be distinct or the cache would serve one for the other.
    let f = parse_function(
        "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
         sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
    )
    .unwrap();
    let lib = TechLibrary::asic_100mhz();
    let digest_at = |level: OptLevel| {
        let d = Directives::new(10.0).netlist_opt_level(level);
        hls_serve::request_key(&f, &d, &lib, true)
    };
    let on = digest_at(OptLevel::Full);
    let basic = digest_at(OptLevel::Basic);
    let off = digest_at(OptLevel::Off);
    assert_ne!(on.digest, off.digest);
    assert_ne!(on.digest, basic.digest);
    assert_ne!(basic.digest, off.digest);
    // The preimage names the level, so a cache miss is explainable.
    assert!(on.preimage.contains("\"netlist_opt\":{\"level\":\"full\"}"));
    assert!(off.preimage.contains("\"netlist_opt\":{\"level\":\"off\"}"));
    // Default directives are opt-on at Full: same key as the explicit one.
    let default = hls_serve::request_key(&f, &Directives::new(10.0), &lib, true);
    assert_eq!(default.digest, on.digest);
}

#[test]
fn abandoned_staging_files_are_swept_on_reopen() {
    let root = scratch("sweep");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("sweep");
    store.insert(&k, &artifact("sweep")).unwrap();

    // Simulate a writer that died between `write` and `rename`: its
    // staging file exists, the rename never happened.
    let stale = root
        .join("tmp")
        .join(format!("{}.positive.99999.tmp", k.digest));
    fs::write(&stale, "{\"half\":\"written").unwrap();
    let young = root.join("tmp").join("deadbeef.positive.99998.tmp");
    fs::write(&young, "{\"live\":\"writer").unwrap();
    // Age only the dead writer's file past the staleness horizon.
    fs::File::options()
        .write(true)
        .open(&stale)
        .unwrap()
        .set_modified(SystemTime::now() - STALE_LOCK - Duration::from_secs(60))
        .unwrap();

    drop(store);
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    assert!(!stale.exists(), "stale staging file must be swept");
    assert!(
        young.exists(),
        "young staging file may belong to a live writer"
    );
    // The committed entry is untouched by recovery.
    let back = store.lookup(&k).expect("committed entry still serves");
    assert_eq!(back.verilog, artifact("sweep").verilog);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn negative_entries_round_trip_and_torn_ones_are_rejected() {
    let root = scratch("negative");
    let store = ArtifactStore::open(&root, StoreConfig::default()).unwrap();
    let k = key("negative");
    let failure = NegativeEntry {
        design: "bad".into(),
        code: "infeasible-clock".into(),
        error: "operation cannot fit the clock".into(),
        diagnostics: Json::Arr(Vec::new()),
    };
    store.insert_negative(&k, &failure).unwrap();
    let back = store.lookup_negative(&k).expect("round-trips");
    assert_eq!(back.code, "infeasible-clock");
    assert_eq!(back.error, failure.error);
    assert_eq!(store.stats().neg_entries, 1);

    // Tear the body: the digest check must refuse and quarantine it.
    let path = root
        .join("negative")
        .join(&k.digest[..2])
        .join(format!("{}.json", k.digest));
    let text = fs::read_to_string(&path).unwrap();
    fs::write(&path, &text[..text.len() - 8]).unwrap();
    assert!(
        store.lookup_negative(&k).is_none(),
        "torn entry must not serve"
    );
    assert!(!path.exists(), "torn entry left the serving path");
    assert_eq!(store.stats().quarantined, 1);

    // Repopulation leaves a consistent store.
    store.insert_negative(&k, &failure).unwrap();
    assert!(store.lookup_negative(&k).is_some());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn foreign_raw_documents_are_reverified_before_admission() {
    let a_root = scratch("raw-a");
    let b_root = scratch("raw-b");
    let a = ArtifactStore::open(&a_root, StoreConfig::default()).unwrap();
    let b = ArtifactStore::open(&b_root, StoreConfig::default()).unwrap();
    let k = key("raw");
    a.insert(&k, &artifact("raw")).unwrap();
    let text = a
        .read_raw(EntryKind::Positive, &k.digest)
        .expect("raw read");

    // The genuine document is admitted and serves byte-identically.
    assert!(b.insert_raw(EntryKind::Positive, &k.digest, &text).unwrap());
    assert_eq!(
        b.read_raw(EntryKind::Positive, &k.digest).as_deref(),
        Some(text.as_str()),
        "admitted replica must be byte-identical"
    );
    assert_eq!(b.lookup(&k).unwrap().verilog, artifact("raw").verilog);

    // A tampered body is refused without error.
    let c_root = scratch("raw-c");
    let c = ArtifactStore::open(&c_root, StoreConfig::default()).unwrap();
    let tampered = text.replace("module raw", "module owned");
    assert!(!c
        .insert_raw(EntryKind::Positive, &k.digest, &tampered)
        .unwrap());
    assert!(c.lookup(&k).is_none());
    // A positive document cannot land on the negative side (schema).
    assert!(!c.insert_raw(EntryKind::Negative, &k.digest, &text).unwrap());
    assert_eq!(c.stats().neg_entries, 0);

    for root in [&a_root, &b_root, &c_root] {
        let _ = fs::remove_dir_all(root);
    }
}
