//! The cluster wire protocol: versioned NDJSON frames.
//!
//! Every message is one JSON object on one line, carrying a `proto`
//! version tag and an `op`. The framing is deliberately the same as
//! `synthd`'s NDJSON daemon mode — one line in, one line out — so the
//! cluster speaks over anything that looks like a byte stream: Unix
//! sockets, TCP, or a pipe in a test. A line *without* a `proto` field
//! is not a cluster frame; servers treat it as a legacy plain batch
//! (the pre-cluster `synthd --socket` protocol) so old clients keep
//! working against new shards.
//!
//! Request frames:
//!
//! | op      | fields                    | meaning                              |
//! |---------|---------------------------|--------------------------------------|
//! | `batch` | `requests: [...]`         | client entry point; the shard routes |
//! | `synth` | `requests: [...]`         | owner-side sub-batch; never re-forwarded |
//! | `get`   | `digest`                  | raw entry fetch (positive, then negative) |
//! | `put`   | `entries: [{digest, kind, entry}]` | replicate raw entries in   |
//! | `ping`  |                           | liveness probe                       |
//! | `stats` |                           | store census + node counters         |
//!
//! Reply frames: `report` (per-request outcomes + counters + routing),
//! `entry`, `stored`, `pong`, `error`. A version mismatch is answered
//! with an `error` frame naming both versions — never silence.

use std::io::{self, BufRead, Write};

use hls_ir::json::{field, field_or, Encode};
use hls_ir::Json;
use hls_serve::EntryKind;

/// The protocol version tag carried by every frame. Bump on any change
/// to frame layout; mismatched peers refuse each other loudly.
pub const PROTO: &str = "hls-cluster/v1";

/// One raw store entry in flight between shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutEntry {
    /// The entry's content digest (its identity in every store).
    pub digest: String,
    /// Which side of the store it belongs to.
    pub kind: EntryKind,
    /// The exact on-disk document text; the receiver re-verifies the
    /// full integrity chain before admitting it.
    pub entry: String,
}

hls_ir::json_struct! {
    impl PutEntry as "put entry" { digest, kind, entry }
}

/// Refuses a kind with no wire form: proof entries stay in one store.
fn wire_kind(kind: EntryKind) -> Result<EntryKind, String> {
    match kind {
        EntryKind::Proof => Err("frame: proof entries never travel".to_string()),
        kind => Ok(kind),
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client entry point: a batch of synthesis requests to route.
    Batch {
        /// The batch, in [`hls_serve::parse_batch`]'s schema.
        requests: Json,
    },
    /// A forwarded sub-batch for this shard to serve as owner. Never
    /// re-forwarded — this is what makes routing loop-free.
    Synth {
        /// The sub-batch, same schema as `Batch`.
        requests: Json,
    },
    /// Fetch the raw entry for a digest (positive first, then negative).
    Get {
        /// The content digest to look up.
        digest: String,
    },
    /// Replicate raw entries into this shard's store.
    Put {
        /// The entries to admit (each re-verified on arrival).
        entries: Vec<PutEntry>,
    },
    /// Liveness probe.
    Ping,
    /// Store census + node counters.
    Stats,
    /// Reply: a routed batch report (outcomes, counters, routing).
    Report(
        /// The report document.
        Json,
    ),
    /// Reply to `Get`.
    Entry {
        /// Which side of the store the entry came from, with its raw
        /// text; `None` when the digest is unknown here.
        found: Option<(EntryKind, String)>,
    },
    /// Reply to `Put`: how many entries were admitted.
    Stored {
        /// Entries that passed integrity and landed (or already existed).
        stored: u64,
    },
    /// Reply to `Ping`.
    Pong {
        /// The replying shard's index in the member list.
        shard: u64,
    },
    /// Any failure the peer wants the caller to see.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl Frame {
    /// The frame's `op` tag on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Frame::Batch { .. } => "batch",
            Frame::Synth { .. } => "synth",
            Frame::Get { .. } => "get",
            Frame::Put { .. } => "put",
            Frame::Ping => "ping",
            Frame::Stats => "stats",
            Frame::Report(_) => "report",
            Frame::Entry { .. } => "entry",
            Frame::Stored { .. } => "stored",
            Frame::Pong { .. } => "pong",
            Frame::Error { .. } => "error",
        }
    }

    /// Serializes the frame as a single JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("proto", PROTO.encode()), ("op", self.op().encode())];
        match self {
            Frame::Batch { requests } | Frame::Synth { requests } => {
                fields.push(("requests", requests.encode()));
            }
            Frame::Get { digest } => fields.push(("digest", digest.encode())),
            Frame::Put { entries } => fields.push(("entries", entries.encode())),
            Frame::Ping | Frame::Stats => {}
            Frame::Report(v) => fields.push(("report", v.encode())),
            Frame::Entry { found } => {
                fields.push(("found", found.is_some().encode()));
                if let Some((kind, entry)) = found {
                    fields.push(("kind", kind.encode()));
                    fields.push(("entry", entry.encode()));
                }
            }
            Frame::Stored { stored } => fields.push(("stored", stored.encode())),
            Frame::Pong { shard } => fields.push(("shard", shard.encode())),
            Frame::Error { message } => fields.push(("error", message.encode())),
        }
        Json::obj(fields)
    }

    /// Parses a frame, checking the protocol version.
    pub fn from_json(v: &Json) -> Result<Frame, String> {
        const L: &str = "frame";
        let proto: String = field(v, L, "proto")?;
        if proto != PROTO {
            return Err(format!(
                "frame: protocol version mismatch (peer speaks `{proto}`, this shard `{PROTO}`)"
            ));
        }
        let op: String = field(v, L, "op")?;
        Ok(match op.as_str() {
            "batch" => Frame::Batch {
                requests: field(v, L, "requests")?,
            },
            "synth" => Frame::Synth {
                requests: field(v, L, "requests")?,
            },
            "get" => Frame::Get {
                digest: field(v, L, "digest")?,
            },
            "put" => {
                let entries: Vec<PutEntry> = field(v, L, "entries")?;
                for e in &entries {
                    wire_kind(e.kind)?;
                }
                Frame::Put { entries }
            }
            "ping" => Frame::Ping,
            "stats" => Frame::Stats,
            "report" => Frame::Report(field_or(v, L, "report", || Json::Null)?),
            "entry" if field_or(v, L, "found", || false)? => Frame::Entry {
                found: Some((wire_kind(field(v, L, "kind")?)?, field(v, L, "entry")?)),
            },
            "entry" => Frame::Entry { found: None },
            "stored" => Frame::Stored {
                stored: field_or(v, L, "stored", || 0)?,
            },
            "pong" => Frame::Pong {
                shard: field_or(v, L, "shard", || 0)?,
            },
            "error" => Frame::Error {
                message: field_or(v, L, "error", || "unspecified peer error".to_string())?,
            },
            other => return Err(format!("frame: unknown op `{other}`")),
        })
    }

    /// Writes the frame as one NDJSON line.
    pub fn write_line(&self, w: &mut impl Write) -> io::Result<()> {
        let mut line = self.to_json().write();
        line.push('\n');
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

/// One line read off a connection, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A well-formed cluster frame.
    Frame(Frame),
    /// Valid JSON without a `proto` tag: the legacy plain-batch
    /// protocol (the raw line, for `hls_serve::parse_batch`).
    Legacy(String),
    /// Unparseable JSON or a bad frame (version mismatch, unknown op);
    /// the server answers with an `error` frame carrying this message.
    Malformed(String),
}

/// Reads one NDJSON line and classifies it. `Ok(None)` is a clean EOF;
/// blank lines are skipped.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Incoming>> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if !line.trim().is_empty() {
            break;
        }
    }
    let classified = match Json::parse(&line) {
        Ok(v) if v.get("proto").is_none() => Incoming::Legacy(line.trim().to_string()),
        Ok(v) => match Frame::from_json(&v) {
            Ok(f) => Incoming::Frame(f),
            Err(e) => Incoming::Malformed(e),
        },
        Err(e) => Incoming::Malformed(format!("line is not valid JSON: {e}")),
    };
    Ok(Some(classified))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame per op (`entry` twice: found and not found).
    fn one_frame_per_op() -> Vec<Frame> {
        vec![
            Frame::Batch {
                requests: Json::Arr(vec![Json::obj(vec![("source", Json::str("void f() {}"))])]),
            },
            Frame::Synth {
                requests: Json::Arr(Vec::new()),
            },
            Frame::Get {
                digest: "ab".repeat(16),
            },
            Frame::Put {
                entries: vec![PutEntry {
                    digest: "cd".repeat(16),
                    kind: EntryKind::Negative,
                    entry: "{\"schema\":\"x\"}".into(),
                }],
            },
            Frame::Ping,
            Frame::Stats,
            Frame::Report(Json::obj(vec![("outcomes", Json::Arr(Vec::new()))])),
            Frame::Entry {
                found: Some((EntryKind::Positive, "{}".into())),
            },
            Frame::Entry { found: None },
            Frame::Stored { stored: 3 },
            Frame::Pong { shard: 2 },
            Frame::Error {
                message: "nope".into(),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for f in one_frame_per_op() {
            let back = Frame::from_json(&f.to_json()).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn frames_encode_to_pinned_bytes() {
        // The exact wire bytes of every op under `hls-cluster/v1`: a
        // peer built from another commit must read these unchanged.
        let expected = [
            r#"{"proto":"hls-cluster/v1","op":"batch","requests":[{"source":"void f() {}"}]}"#,
            r#"{"proto":"hls-cluster/v1","op":"synth","requests":[]}"#,
            r#"{"proto":"hls-cluster/v1","op":"get","digest":"abababababababababababababababab"}"#,
            r#"{"proto":"hls-cluster/v1","op":"put","entries":[{"digest":"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd","kind":"negative","entry":"{\"schema\":\"x\"}"}]}"#,
            r#"{"proto":"hls-cluster/v1","op":"ping"}"#,
            r#"{"proto":"hls-cluster/v1","op":"stats"}"#,
            r#"{"proto":"hls-cluster/v1","op":"report","report":{"outcomes":[]}}"#,
            r#"{"proto":"hls-cluster/v1","op":"entry","found":true,"kind":"positive","entry":"{}"}"#,
            r#"{"proto":"hls-cluster/v1","op":"entry","found":false}"#,
            r#"{"proto":"hls-cluster/v1","op":"stored","stored":3}"#,
            r#"{"proto":"hls-cluster/v1","op":"pong","shard":2}"#,
            r#"{"proto":"hls-cluster/v1","op":"error","error":"nope"}"#,
        ];
        let got: Vec<String> = one_frame_per_op()
            .iter()
            .map(|f| f.to_json().write())
            .collect();
        assert_eq!(got, expected);
    }

    mod sampled {
        use super::*;
        use proptest::prelude::*;
        use proptest::prop::collection::vec;
        use proptest::prop::option;
        use proptest::prop::sample::select;

        fn text() -> BoxedStrategy<String> {
            "[a-f0-9 \"\\\\\n{}:é]{0,16}".boxed()
        }

        fn json() -> BoxedStrategy<Json> {
            let leaf = prop_oneof![
                any::<bool>().prop_map(Json::Bool),
                (-1e6..1e6f64).prop_map(Json::Num),
                text().prop_map(Json::Str),
            ];
            leaf.prop_recursive(2, 8, 3, |inner| {
                prop_oneof![
                    vec(inner.clone(), 0..3).prop_map(Json::Arr),
                    vec(("[a-z]{1,6}", inner), 0..3).prop_map(Json::Obj),
                ]
            })
        }

        fn frame() -> BoxedStrategy<Frame> {
            let kind = select(vec![EntryKind::Positive, EntryKind::Negative]);
            let entry = (text(), kind.clone(), text()).prop_map(|(digest, kind, entry)| PutEntry {
                digest,
                kind,
                entry,
            });
            prop_oneof![
                json().prop_map(|requests| Frame::Batch { requests }),
                json().prop_map(|requests| Frame::Synth { requests }),
                text().prop_map(|digest| Frame::Get { digest }),
                vec(entry, 0..3).prop_map(|entries| Frame::Put { entries }),
                select(vec![Frame::Ping, Frame::Stats]),
                json().prop_map(Frame::Report),
                option::of((kind, text())).prop_map(|found| Frame::Entry { found }),
                (0u64..1 << 53).prop_map(|stored| Frame::Stored { stored }),
                (0u64..1 << 53).prop_map(|shard| Frame::Pong { shard }),
                text().prop_map(|message| Frame::Error { message }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn frames_round_trip_through_text(f in frame()) {
                let text = f.to_json().write();
                let back = Frame::from_json(&Json::parse(&text).unwrap()).unwrap();
                prop_assert_eq!(&back, &f);
                prop_assert_eq!(back.to_json().write(), text);
            }
        }
    }

    #[test]
    fn proof_entries_never_decode_off_the_wire() {
        for line in [
            r#"{"proto":"hls-cluster/v1","op":"put","entries":[{"digest":"ab","kind":"proof","entry":"{}"}]}"#,
            r#"{"proto":"hls-cluster/v1","op":"entry","found":true,"kind":"proof","entry":"{}"}"#,
        ] {
            let err = Frame::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(err.contains("proof"), "{err}");
        }
    }

    #[test]
    fn version_mismatch_is_loud() {
        let v = Json::obj(vec![
            ("proto", Json::str("hls-cluster/v0")),
            ("op", Json::str("ping")),
        ]);
        let err = Frame::from_json(&v).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        assert!(err.contains("hls-cluster/v0"), "{err}");
    }

    #[test]
    fn legacy_lines_fall_through() {
        let mut input = std::io::Cursor::new(b"{\"requests\": []}\n".to_vec());
        let got = read_frame(&mut input).unwrap().unwrap();
        assert_eq!(got, Incoming::Legacy("{\"requests\": []}".to_string()));
        // EOF after the single line.
        assert!(read_frame(&mut input).unwrap().is_none());
    }

    #[test]
    fn mismatched_and_malformed_lines_are_classified() {
        let mut input = std::io::Cursor::new(
            b"{\"proto\":\"hls-cluster/v0\",\"op\":\"ping\"}\nnot json\n".to_vec(),
        );
        let Some(Incoming::Malformed(e)) = read_frame(&mut input).unwrap() else {
            panic!("version mismatch must classify as malformed");
        };
        assert!(e.contains("version mismatch"), "{e}");
        let Some(Incoming::Malformed(e)) = read_frame(&mut input).unwrap() else {
            panic!("junk must classify as malformed");
        };
        assert!(e.contains("not valid JSON"), "{e}");
    }

    #[test]
    fn frame_lines_round_trip_through_a_stream() {
        let mut buf = Vec::new();
        Frame::Pong { shard: 1 }.write_line(&mut buf).unwrap();
        Frame::Ping.write_line(&mut buf).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            Incoming::Frame(Frame::Pong { shard: 1 })
        );
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            Incoming::Frame(Frame::Ping)
        );
        assert!(read_frame(&mut r).unwrap().is_none());
    }
}
