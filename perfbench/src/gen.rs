//! Seeded input generators. The seed arrives on the command line; the
//! program under test only ever sees the generated requests and stimuli.

use std::collections::HashSet;

use hls_core::{Directives, MergePolicy, TechLibrary, Unroll};
use hls_serve::SynthesisRequest;
use qam_decoder::QAM_DECODER_SOURCE;

/// SplitMix64: small, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A C source the serve workloads draw from, with its loop labels.
pub struct Source {
    pub name: &'static str,
    pub text: &'static str,
    pub loops: &'static [&'static str],
}

/// The QAM decoder plus the small kernels `synthd --example` ships.
pub const SOURCES: [Source; 3] = [
    Source {
        name: "qam",
        text: QAM_DECODER_SOURCE,
        loops: &[
            "ffe",
            "dfe",
            "ffe_adapt",
            "dfe_adapt",
            "ffe_shift",
            "dfe_shift",
        ],
    },
    Source {
        name: "sum8",
        text: "void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) { sc_fixed<16,8> acc = 0; \
               sum_loop: for (int k = 0; k < 8; k++) { acc += x[k]; } *out = acc; }",
        loops: &["sum_loop"],
    },
    Source {
        name: "twice",
        text: "void twice(sc_fixed<8,4> x, sc_fixed<10,6> *y) { *y = x + x; }",
        loops: &[],
    },
];

/// Probability of drawing each source (the kernels' design spaces are
/// small, so once exhausted their draws fall back to the decoder).
const SOURCE_WEIGHTS: [f64; 3] = [0.9, 0.05, 0.05];
pub const UNROLLS: [u32; 3] = [1, 2, 4];
pub const MERGES: [MergePolicy; 2] = [MergePolicy::Off, MergePolicy::AllowHazards];
/// The serve clock grid (ns); every point of it is feasible for every
/// source and directive set.
pub const CLOCKS: [f64; 6] = [5.0, 7.5, 10.0, 12.5, 15.0, 20.0];
/// Share of cold requests that are clock twins of an earlier point: same
/// source and directives, another clock, so the pass and proof caches
/// have upstream work to share.
pub const TWIN_SHARE: f64 = 0.25;
/// The clock of deliberately infeasible requests: no operator fits.
pub const INFEASIBLE_CLOCK: f64 = 0.5;
pub const INFEASIBLE_CODE: &str = "infeasible-clock";

/// One point of the serve design space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Point {
    pub source: usize,
    pub unroll: Vec<u32>,
    pub merge: usize,
    /// Index into [`CLOCKS`]; `None` for the infeasible clock.
    pub clock: Option<usize>,
}

impl Point {
    pub fn request(&self) -> SynthesisRequest {
        let src = &SOURCES[self.source];
        let clock = self.clock.map_or(INFEASIBLE_CLOCK, |c| CLOCKS[c]);
        let mut d = Directives::new(clock).merge_policy(MERGES[self.merge]);
        for (label, &u) in src.loops.iter().zip(&self.unroll) {
            if u > 1 {
                d = d.unroll(label, Unroll::Factor(u));
            }
        }
        let mut req = SynthesisRequest::new(src.text);
        req.design = format!("{}/u{:?}/m{}@{clock}ns", src.name, self.unroll, self.merge);
        req.directives = d;
        req.library = TechLibrary::asic_100mhz();
        req.verify = true;
        req
    }
}

/// Draws distinct design points: a seeded mix of fresh points and clock
/// twins of earlier ones, never repeating a point.
pub struct PointStream {
    rng: Rng,
    seen: HashSet<Point>,
    history: Vec<Point>,
}

impl PointStream {
    pub fn new(seed: u64) -> PointStream {
        PointStream {
            rng: Rng::new(seed),
            seen: HashSet::new(),
            history: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Point {
        let mut x = self.rng.unit();
        let mut source = 0;
        for (i, w) in SOURCE_WEIGHTS.iter().enumerate() {
            if x < *w {
                source = i;
                break;
            }
            x -= w;
        }
        // A few tries in the drawn source, then the decoder's large space.
        for attempt in 0.. {
            let s = if attempt < 8 { source } else { 0 };
            let p = Point {
                source: s,
                unroll: SOURCES[s]
                    .loops
                    .iter()
                    .map(|_| UNROLLS[self.rng.below(UNROLLS.len())])
                    .collect(),
                merge: self.rng.below(MERGES.len()),
                clock: Some(self.rng.below(CLOCKS.len())),
            };
            if !self.seen.contains(&p) {
                return p;
            }
        }
        unreachable!("the decoder's design space is never exhausted")
    }

    fn twin(&mut self) -> Option<Point> {
        if self.history.is_empty() {
            return None;
        }
        for _ in 0..4 {
            let mut p = self.history[self.rng.below(self.history.len())].clone();
            p.clock = Some(self.rng.below(CLOCKS.len()));
            if !self.seen.contains(&p) {
                return Some(p);
            }
        }
        None
    }

    pub fn next_point(&mut self) -> Point {
        let twin = if self.rng.unit() < TWIN_SHARE {
            self.twin()
        } else {
            None
        };
        let p = twin.unwrap_or_else(|| self.fresh());
        self.seen.insert(p.clone());
        self.history.push(p.clone());
        p
    }

    /// A decoder point at the infeasible clock, distinct from earlier ones.
    pub fn infeasible(&mut self) -> Point {
        loop {
            let p = Point {
                source: 0,
                unroll: SOURCES[0]
                    .loops
                    .iter()
                    .map(|_| UNROLLS[self.rng.below(UNROLLS.len())])
                    .collect(),
                merge: self.rng.below(MERGES.len()),
                clock: None,
            };
            if self.seen.insert(p.clone()) {
                return p;
            }
        }
    }
}

/// A Zipf(s) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_stream_is_deterministic_and_never_repeats() {
        let draw = |seed| {
            let mut s = PointStream::new(seed);
            (0..400).map(|_| s.next_point()).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        let distinct: HashSet<&Point> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
        // Some draws are clock twins of an earlier point.
        let twins = a
            .iter()
            .enumerate()
            .filter(|(i, p)| {
                a[..*i]
                    .iter()
                    .any(|q| q.source == p.source && q.unroll == p.unroll && q.merge == p.merge)
            })
            .count();
        assert!(twins > 40, "{twins} twins in 400 draws");
    }

    #[test]
    fn rng_and_zipf_are_deterministic() {
        let z = Zipf::new(100, 1.0);
        let run = |seed| {
            let mut r = Rng::new(seed);
            (0..50)
                .map(|_| (z.sample(&mut r), r.unit().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
        let mut r = Rng::new(1);
        let head = (0..10_000).filter(|_| z.sample(&mut r) == 0).count();
        // Rank 0 carries 1/H(100) ≈ 19% of the mass.
        assert!((1500..2400).contains(&head), "{head}");
    }

    #[test]
    fn infeasible_points_are_distinct_and_at_the_infeasible_clock() {
        let mut s = PointStream::new(5);
        let a = s.infeasible();
        let b = s.infeasible();
        assert_ne!(a, b);
        assert_eq!(a.request().directives.clock_period_ns, INFEASIBLE_CLOCK);
    }
}
