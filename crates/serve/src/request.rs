//! The wire schema of a synthesis request batch.
//!
//! A batch is a JSON object `{"requests": [...]}` (a bare array, or a
//! bare single request object, are accepted too). Each request:
//!
//! ```json
//! {
//!   "design": "sum",                  // optional label; defaults to the function name
//!   "source": "void sum(...) {...}",  // the C-subset source (hls_ir::parse_function)
//!   "directives": { "clock_period_ns": 10.0, "loops": {...}, ... },
//!   "library": "asic_100mhz",         // a built-in TechLibrary name
//!   "verify": true                    // run hls-verify on the result
//! }
//! ```
//!
//! `directives` follows [`Directives::to_json`]'s schema and may be
//! omitted (clock defaults to the library's nominal period). Parsing is
//! strict about what it understands and loud about what it does not:
//! every error names the request index and the offending field.

use hls_core::{Directives, TechLibrary};
use hls_ir::json::{field, field_or, Encode};
use hls_ir::{parse_function, Function, Json};

use std::collections::HashMap;

use crate::digest::{request_key_for_text, RequestKey};

/// One parsed synthesis request.
#[derive(Debug, Clone)]
pub struct SynthesisRequest {
    /// Client-facing label (defaults to the parsed function's name).
    pub design: String,
    /// The C-subset source text.
    pub source: String,
    /// Synthesis directives.
    pub directives: Directives,
    /// Technology library.
    pub library: TechLibrary,
    /// Whether to equivalence-check the result.
    pub verify: bool,
}

impl SynthesisRequest {
    /// A request for `source` with default directives on the paper's
    /// ASIC library.
    pub fn new(source: &str) -> SynthesisRequest {
        let library = TechLibrary::asic_100mhz();
        SynthesisRequest {
            design: String::new(),
            source: source.to_string(),
            directives: Directives::new(library.nominal_clock_ns()),
            library,
            verify: false,
        }
    }

    /// Parses one request object.
    pub fn from_json(v: &Json) -> Result<SynthesisRequest, String> {
        const L: &str = "request";
        let library: TechLibrary = field_or(v, L, "library", TechLibrary::asic_100mhz)?;
        Ok(SynthesisRequest {
            design: field_or(v, L, "design", String::new)?,
            source: field(v, L, "source")?,
            directives: field_or(v, L, "directives", || {
                Directives::new(library.nominal_clock_ns())
            })?,
            verify: field_or(v, L, "verify", || false)?,
            library,
        })
    }

    /// Serializes the request (the inverse of [`SynthesisRequest::from_json`]);
    /// an empty label is omitted.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        if !self.design.is_empty() {
            fields.push(("design", self.design.encode()));
        }
        fields.push(("source", self.source.encode()));
        fields.push(("directives", self.directives.encode()));
        fields.push(("library", self.library.encode()));
        fields.push(("verify", self.verify.encode()));
        Json::obj(fields)
    }

    /// The label to report for this request.
    pub fn label<'a>(&'a self, func: &'a Function) -> &'a str {
        if self.design.is_empty() {
            &func.name
        } else {
            &self.design
        }
    }
}

/// A request's parsed source and content address, or why it has none.
pub type Prepared = Result<(Function, RequestKey), String>;

/// Parses and keys every request, parsing each unique source text once —
/// sweeps reuse one design under many directive sets, and the front end
/// is pure in the source.
pub fn prepare_batch(requests: &[SynthesisRequest]) -> Vec<Prepared> {
    let mut parsed: HashMap<&str, Result<(Function, String), String>> = HashMap::new();
    requests
        .iter()
        .map(|r| {
            let (func, text) = parsed
                .entry(r.source.as_str())
                .or_insert_with(|| {
                    parse_function(&r.source)
                        .map(|f| {
                            let text = f.to_string();
                            (f, text)
                        })
                        .map_err(|e| format!("request source does not parse: {e}"))
                })
                .as_ref()
                .map_err(Clone::clone)?;
            let key = request_key_for_text(text, &r.directives, &r.library, r.verify);
            Ok((func.clone(), key))
        })
        .collect()
}

/// Serializes requests as a `{"requests": [...]}` batch — the wire form
/// [`parse_batch`] accepts, used when a cluster shard forwards a
/// sub-batch to the digest's owner.
pub fn batch_to_json(requests: &[SynthesisRequest]) -> Json {
    Json::obj(vec![(
        "requests",
        Json::Arr(requests.iter().map(SynthesisRequest::to_json).collect()),
    )])
}

/// Parses a batch: `{"requests": [...]}`, a bare array, or one object.
pub fn parse_batch(text: &str) -> Result<Vec<SynthesisRequest>, String> {
    let v = Json::parse(text).map_err(|e| format!("batch is not valid JSON: {e}"))?;
    batch_from_json(&v)
}

/// [`parse_batch`] for an already-parsed JSON value (the cluster wire
/// protocol embeds batches inside frames).
pub fn batch_from_json(v: &Json) -> Result<Vec<SynthesisRequest>, String> {
    let list: Vec<&Json> = match v {
        Json::Obj(_) if v.get("requests").is_some() => v
            .get("requests")
            .and_then(Json::as_arr)
            .ok_or("batch: `requests` is not an array")?
            .iter()
            .collect(),
        Json::Obj(_) => vec![&v],
        Json::Arr(items) => items.iter().collect(),
        _ => return Err("batch: expected an object or an array".to_string()),
    };
    list.iter()
        .enumerate()
        .map(|(i, r)| SynthesisRequest::from_json(r).map_err(|e| format!("request #{i}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }";

    #[test]
    fn batch_round_trips_through_json() {
        let mut req = SynthesisRequest::new(SRC);
        req.design = "twice".into();
        req.verify = true;
        let batch = Json::obj(vec![("requests", Json::Arr(vec![req.to_json()]))]).write();
        let parsed = parse_batch(&batch).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].design, "twice");
        assert!(parsed[0].verify);
        let mut prepared = prepare_batch(&[req.clone(), parsed[0].clone()]);
        let (_, k2) = prepared.pop().unwrap().unwrap();
        let (f1, k1) = prepared.pop().unwrap().unwrap();
        assert_eq!(k1, k2, "round-trip preserves the content address");
        assert_eq!(req.label(&f1), "twice");
    }

    #[test]
    fn bare_object_and_array_forms_parse() {
        let one = SynthesisRequest::new(SRC).to_json().write();
        assert_eq!(parse_batch(&one).unwrap().len(), 1);
        let arr = Json::Arr(vec![SynthesisRequest::new(SRC).to_json()]).write();
        assert_eq!(parse_batch(&arr).unwrap().len(), 1);
    }

    mod sampled {
        use super::*;
        use hls_core::Unroll;
        use proptest::prelude::*;
        use proptest::prop::sample::select;

        fn request() -> BoxedStrategy<SynthesisRequest> {
            let library = select(vec!["asic_100mhz", "fpga_slow"]);
            (
                ("[a-z_]{0,6}", "[a-z(){};= \"\\\\\n]{0,24}"),
                (1e-3..1e3f64, 0u32..5),
                (library, any::<bool>()),
            )
                .prop_map(|((design, source), (clock, unroll), (library, verify))| {
                    SynthesisRequest {
                        design,
                        source,
                        directives: Directives::new(clock).unroll("l", Unroll::Factor(unroll)),
                        library: TechLibrary::by_name(library).unwrap(),
                        verify,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn requests_round_trip_through_a_batch(req in request()) {
                let text = batch_to_json(std::slice::from_ref(&req)).write();
                let back = parse_batch(&text).unwrap().pop().unwrap();
                prop_assert_eq!(&back.design, &req.design);
                prop_assert_eq!(&back.source, &req.source);
                prop_assert_eq!(&back.directives, &req.directives);
                prop_assert_eq!(back.library.name(), req.library.name());
                prop_assert_eq!(back.verify, req.verify);
                prop_assert_eq!(batch_to_json(&[back]).write(), text);
            }
        }
    }

    #[test]
    fn errors_name_the_request_and_field() {
        let bad = r#"{"requests": [{"library": "asic_100mhz"}]}"#;
        let err = parse_batch(bad).unwrap_err();
        assert!(err.contains("request #0"), "{err}");
        assert!(err.contains("source"), "{err}");
        let unknown = r#"{"source": "void f() {}", "library": "tsmc7"}"#;
        assert!(parse_batch(unknown)
            .unwrap_err()
            .contains("unknown library"));
    }
}
