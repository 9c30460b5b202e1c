//! Byte goldens for what the service writes: the store entry and the
//! wire reply for the `merged` Table-1 design. Both files are the exact
//! bytes with the trace's wall times zeroed, so any change to how a
//! value becomes JSON shows up as a diff against them.

use std::fs;

use hls_ir::Json;
use hls_serve::{serve_batch, ArtifactStore, EntryKind, ServiceConfig, StoreConfig};
use hls_serve::{RequestOutcome, SynthesisRequest};
use qam_decoder::{table1_architectures, table1_library, QAM_DECODER_SOURCE};

/// Sets every `wall_ns` and `total_ns` in a trace document to 0.
fn zero_wall_times(v: &mut Json) {
    match v {
        Json::Obj(pairs) => {
            for (k, x) in pairs.iter_mut() {
                if k == "wall_ns" || k == "total_ns" {
                    *x = Json::Num(0.0);
                } else {
                    zero_wall_times(x);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(zero_wall_times),
        _ => {}
    }
}

#[test]
fn merged_entry_and_reply_bytes_are_pinned() {
    let arch = table1_architectures()
        .into_iter()
        .find(|a| a.name == "merged")
        .expect("the merged architecture");
    let request = SynthesisRequest {
        design: arch.name.to_string(),
        source: QAM_DECODER_SOURCE.to_string(),
        directives: arch.directives,
        library: table1_library(),
        verify: true,
    };
    let dir = std::env::temp_dir().join(format!("hls-golden-bytes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let served = ArtifactStore::open(&dir.join("served"), StoreConfig::default()).unwrap();
    let report = serve_batch(
        std::slice::from_ref(&request),
        &served,
        &ServiceConfig::default(),
    );
    let outcome: &RequestOutcome = &report.outcomes[0];
    let mut artifact = outcome.artifact.clone().expect("merged synthesizes");
    zero_wall_times(&mut artifact.trace);

    // The store entry: envelope and body, as a fresh store writes them.
    let pinned = ArtifactStore::open(&dir.join("pinned"), StoreConfig::default()).unwrap();
    let key = hls_serve::prepare_batch(std::slice::from_ref(&request))
        .pop()
        .unwrap()
        .unwrap()
        .1;
    pinned.insert(&key, &artifact).unwrap();
    let entry = pinned.read_raw(EntryKind::Positive, &key.digest).unwrap();
    assert!(
        entry == include_str!("golden/merged_entry.json"),
        "store entry bytes drifted from tests/golden/merged_entry.json"
    );

    // The reply envelope a client receives for the same artifact.
    let mut reply = outcome.clone();
    reply.artifact = Some(artifact);
    assert!(
        reply.to_json().write() == include_str!("golden/merged_reply.json"),
        "reply bytes drifted from tests/golden/merged_reply.json"
    );
    let _ = fs::remove_dir_all(&dir);
}
