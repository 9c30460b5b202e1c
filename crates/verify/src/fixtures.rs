//! Persisted counterexample fixtures: fuzzer-shrunk stimuli saved to disk
//! and replayed as regression checks.
//!
//! When [`crate::verify_equiv`] falls back to fuzzing and the fuzzer finds
//! (and shrinks) a mismatch, the minimal stimulus is the most valuable
//! artifact of the whole run — it reproduces the bug in microseconds,
//! forever. [`save_counterexample`] writes it in the same content-addressed
//! directory layout the [`hls_core::store`] uses
//! (`objects/<2-hex-prefix>/<digest>.json`, written atomically through
//! [`publish`]), and [`load_counterexamples`] reads every fixture back
//! for replay through [`crate::fuzz::replay_stimulus`].
//!
//! A fixture is self-describing JSON: every [`fixpt::Fixed`] travels as its raw
//! mantissa (a string — mantissas exceed `f64` precision) plus its full
//! format, so replay is bit-exact across processes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hls_core::store::publish;
use hls_ir::json::{field, stable_digest, Decode, Encode};
use hls_ir::Json;

use crate::fuzz::{FuzzCex, Stimulus};

/// Schema tag written into every fixture (bump on layout changes).
pub const CEX_SCHEMA: &str = "hls-verify-cex/v1";

/// A counterexample fixture loaded from disk.
#[derive(Debug, Clone)]
pub struct CexFixture {
    /// Name of the design (FSMD module name) the stimulus was shrunk on.
    pub design: String,
    /// Which call of the stimulus first diverged when it was recorded.
    pub failing_call: usize,
    /// The recorded mismatch description.
    pub message: String,
    /// The minimal failing stimulus.
    pub stimulus: Stimulus,
    /// Content digest (the fixture's on-disk identity).
    pub digest: String,
}

/// Serializes a stimulus (shared with `hls-serve` response envelopes):
/// one array per call of `{"var": index, "slot": value}` bindings.
pub fn stimulus_to_json(stim: &Stimulus) -> Json {
    Json::Arr(
        stim.iter()
            .map(|call| {
                Json::Arr(
                    call.iter()
                        .map(|(var, slot)| {
                            Json::obj(vec![("var", var.encode()), ("slot", slot.encode())])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Deserializes a stimulus written by [`stimulus_to_json`].
pub fn stimulus_from_json(v: &Json) -> Result<Stimulus, String> {
    let calls: Vec<Vec<Json>> = Decode::decode(v).map_err(|e| format!("fixture: {e}"))?;
    calls
        .iter()
        .map(|call| {
            call.iter()
                .map(|b| Ok((field(b, "fixture", "var")?, field(b, "fixture", "slot")?)))
                .collect()
        })
        .collect()
}

fn fixture_body(design: &str, cex: &FuzzCex) -> Json {
    Json::obj(vec![
        ("schema", CEX_SCHEMA.encode()),
        ("design", design.encode()),
        ("failing_call", cex.failing_call.encode()),
        ("message", cex.message.encode()),
        ("stimulus", stimulus_to_json(&cex.stimulus)),
    ])
}

/// Persists a shrunk counterexample under `root` in the content-addressed
/// store layout, returning the fixture's digest. Writing is atomic (temp
/// file in `root/tmp`, then rename), so concurrent writers and readers
/// never observe a torn fixture; saving the same counterexample twice is
/// idempotent.
pub fn save_counterexample(root: &Path, design: &str, cex: &FuzzCex) -> io::Result<String> {
    let text = fixture_body(design, cex).write();
    let digest = stable_digest(text.as_bytes());
    let dir = root.join("objects").join(&digest[..2]);
    fs::create_dir_all(&dir)?;
    let tmp_dir = root.join("tmp");
    fs::create_dir_all(&tmp_dir)?;
    let final_path = dir.join(format!("{digest}.json"));
    if final_path.exists() {
        return Ok(digest);
    }
    publish(&tmp_dir, &final_path, &text)?;
    Ok(digest)
}

/// Loads every fixture under `root`, skipping unreadable or corrupt files
/// (a regression suite should replay what it can, not die on one bad
/// entry). Results are sorted by digest for deterministic replay order.
pub fn load_counterexamples(root: &Path) -> Vec<CexFixture> {
    let mut out = Vec::new();
    let objects = root.join("objects");
    let mut files: Vec<PathBuf> = Vec::new();
    if let Ok(shards) = fs::read_dir(&objects) {
        for shard in shards.flatten() {
            if let Ok(entries) = fs::read_dir(shard.path()) {
                files.extend(entries.flatten().map(|e| e.path()));
            }
        }
    }
    files.sort();
    for path in files {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let Some(fixture) = parse_fixture(&text) else {
            continue;
        };
        out.push(fixture);
    }
    out
}

fn parse_fixture(text: &str) -> Option<CexFixture> {
    let v = Json::parse(text).ok()?;
    if field::<String>(&v, "fixture", "schema").ok()? != CEX_SCHEMA {
        return None;
    }
    Some(CexFixture {
        design: field(&v, "fixture", "design").ok()?,
        failing_call: field(&v, "fixture", "failing_call").ok()?,
        message: field(&v, "fixture", "message").ok()?,
        stimulus: stimulus_from_json(v.get("stimulus")?).ok()?,
        digest: stable_digest(text.as_bytes()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fixpt::{Fixed, Format};
    use hls_ir::{Slot, VarId};

    fn sample_cex() -> FuzzCex {
        let fmt = Format::signed(10, 2);
        FuzzCex {
            stimulus: vec![vec![
                (
                    VarId::from_raw(0),
                    Slot::Array(vec![Fixed::from_raw(-137, fmt).unwrap(); 2]),
                ),
                (
                    VarId::from_raw(1),
                    Slot::Scalar(Fixed::from_raw(255, fmt).unwrap()),
                ),
            ]],
            failing_call: 0,
            message: "data differs".into(),
        }
    }

    #[test]
    fn stimulus_round_trips_bit_exact() {
        let cex = sample_cex();
        let json = stimulus_to_json(&cex.stimulus);
        let back = stimulus_from_json(&Json::parse(&json.write()).unwrap()).unwrap();
        assert_eq!(back, cex.stimulus);
    }

    mod sampled {
        use super::*;
        use fixpt::{Signedness, MAX_WIDTH};
        use proptest::prelude::*;
        use proptest::prop::collection::vec;

        /// Any fixed-point value: every width, both signednesses, integer
        /// bits beyond the width, and raw mantissas across the range.
        fn fixed() -> BoxedStrategy<Fixed> {
            (
                1..=MAX_WIDTH,
                -70i32..70,
                any::<bool>(),
                any::<i64>(),
                any::<bool>(),
            )
                .prop_map(|(width, int_bits, signed, raw, wide)| {
                    let s = if signed {
                        Signedness::Signed
                    } else {
                        Signedness::Unsigned
                    };
                    let format = Format::new(width, int_bits, s).unwrap();
                    let raw = if wide { raw as i128 * 3 } else { raw as i128 };
                    Fixed::from_raw_wrapped(raw, format)
                })
        }

        fn slot() -> BoxedStrategy<Slot> {
            prop_oneof![
                fixed().prop_map(Slot::Scalar),
                vec(fixed(), 0..4).prop_map(Slot::Array),
            ]
        }

        fn stimulus() -> BoxedStrategy<Stimulus> {
            let binding = (any::<u32>(), slot()).prop_map(|(v, s)| (VarId::from_raw(v), s));
            vec(vec(binding, 0..3), 0..3)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn stimuli_round_trip_through_text(stim in stimulus()) {
                let text = stimulus_to_json(&stim).write();
                let back = stimulus_from_json(&Json::parse(&text).unwrap()).unwrap();
                prop_assert_eq!(&back, &stim);
                prop_assert_eq!(stimulus_to_json(&back).write(), text);
            }
        }
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("hls-cex-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cex = sample_cex();
        let digest = save_counterexample(&dir, "qam_decoder", &cex).unwrap();
        // Idempotent second save.
        assert_eq!(
            save_counterexample(&dir, "qam_decoder", &cex).unwrap(),
            digest
        );
        let loaded = load_counterexamples(&dir);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].design, "qam_decoder");
        assert_eq!(loaded[0].stimulus, cex.stimulus);
        assert_eq!(loaded[0].digest, digest);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fixture_is_skipped() {
        let dir = std::env::temp_dir().join(format!("hls-cex-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save_counterexample(&dir, "d", &sample_cex()).unwrap();
        fs::write(dir.join("objects").join("zz.json.broken"), "{").ok();
        let shard = fs::read_dir(dir.join("objects"))
            .unwrap()
            .flatten()
            .find(|e| e.path().is_dir())
            .unwrap();
        fs::write(shard.path().join("corrupt.json"), "{\"schema\": \"other\"}").unwrap();
        assert_eq!(load_counterexamples(&dir).len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
