//! Deterministic inputs: every image, request and op order is a pure
//! function of `(seed, workload)`, so the subprocess run (`e2e`) and the
//! traced replay (`layers`) see the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use walrus_imagery::ppm::write_ppm;
use walrus_imagery::synth::dataset::{scene_for_class, ImageClass};

/// Every image is 128×96: a 36 878-byte P6 body.
pub const WIDTH: usize = 128;
pub const HEIGHT: usize = 96;
/// All queries ask for the top 10.
pub const K: usize = 10;
pub const QUERY_TARGET: &str = "/query?k=10";
/// Images per `POST /ingest` while the corpus is loaded.
pub const SETUP_BATCH: usize = 32;
/// Distinct cold query bodies: 3× the server's 256-entry result cache,
/// cycled in order, so an LRU cache never hits.
pub const COLD_BODIES: usize = 768;
/// Distinct hot query bodies, drawn Zipf(1).
pub const HOT_BODIES: usize = 32;
/// Distinct ingest bodies, cycled under fresh names.
pub const INGEST_BODIES: usize = 768;
/// Untimed requests sent before each timed phase.
pub const WARMUP_OPS: usize = 96;
/// Ops of each workload the traced replay (and the oracle check) covers:
/// 32 per image class.
pub const REPLAY_OPS: usize = 192;

/// The four independent image streams.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stream {
    Corpus = 1,
    Cold = 2,
    Ingest = 3,
    Hot = 4,
}

/// splitmix64 finalizer over the three coordinates of an image.
pub fn mix(seed: u64, stream: Stream, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(index as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// PPM bytes of image `index` of `stream`. Classes are interleaved
/// (`index % 6`) because per-class cost differs ~25× (a flower image has
/// ~95 regions), so any six consecutive ops cost the same on average.
///
/// Some scenes (an ocean without a boat) render identically under different
/// seeds, and the server's result cache is keyed by body bytes; so `index`
/// is written into the lowest bit of the last twelve samples, which makes
/// the bodies of a stream pairwise distinct and moves no sample by more
/// than 1/255.
pub fn body(seed: u64, stream: Stream, index: usize) -> Vec<u8> {
    let class = ImageClass::ALL[index % ImageClass::ALL.len()];
    let mut rng = StdRng::seed_from_u64(mix(seed, stream, index));
    let image = scene_for_class(class, &mut rng)
        .render(WIDTH, HEIGHT)
        .expect("synthetic scenes render at any nonzero size");
    let mut out = Vec::with_capacity(WIDTH * HEIGHT * 3 + 16);
    write_ppm(&image, &mut out).expect("writing to a Vec cannot fail");
    assert!(
        index < 1 << 12,
        "a stream holds at most 4096 distinct bodies"
    );
    for (bit, sample) in out.iter_mut().rev().take(12).enumerate() {
        *sample = (*sample & !1) | ((index >> bit) & 1) as u8;
    }
    out
}

/// The body `op` sends (what [`Bodies::of`] returns from its pools).
pub fn op_body(seed: u64, op: &Op) -> Vec<u8> {
    match op {
        Op::Query { stream, index } => body(seed, *stream, *index),
        Op::Ingest { index } => body(seed, Stream::Ingest, index % INGEST_BODIES),
    }
}

/// One workload: a corpus size, what the timed ops are, and how often
/// set-up is repeated inside one run so `setup_s` can be a median. Load is
/// always a closed loop: two clients, each sends its next op when the last
/// one returned (the server runs two workers, one per connection).
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Images batch-ingested during set-up.
    pub corpus: usize,
    /// Set-ups per run.
    pub setups: usize,
    /// What the timed ops are.
    pub mix: Mix,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Cold queries only.
    Cold,
    /// 90 % hot queries, 9.7 % cold queries, 0.3 % single-image ingests.
    HotMixed,
    /// Single-image durable ingests only.
    Ingest,
}

impl Mix {
    /// Whether the workload's own op, the one its latency metrics describe,
    /// is the query (else the ingest).
    pub fn times_queries(self) -> bool {
        self != Mix::Ingest
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "query_small",
        corpus: 256,
        setups: 5,
        mix: Mix::Cold,
    },
    Workload {
        name: "query_large",
        corpus: 2048,
        setups: 3,
        mix: Mix::Cold,
    },
    Workload {
        name: "mixed_hot",
        corpus: 1024,
        setups: 3,
        mix: Mix::HotMixed,
    },
    Workload {
        name: "ingest_single",
        corpus: 256,
        setups: 5,
        mix: Mix::Ingest,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query {
        stream: Stream,
        index: usize,
    },
    /// `index` names the image (`?name=ing-<index>`); the body is
    /// `index % INGEST_BODIES` of the ingest stream.
    Ingest {
        index: usize,
    },
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query { .. })
    }

    pub fn target(&self) -> String {
        match self {
            Op::Query { .. } => QUERY_TARGET.to_string(),
            Op::Ingest { index } => format!("/ingest?name=ing-{index}"),
        }
    }
}

/// The endless op sequence of a workload's timed phase.
pub struct Plan {
    mix: Mix,
    rng: StdRng,
    /// Cumulative Zipf(1) weights over the hot bodies.
    zipf_cdf: Vec<f64>,
    /// What is left of the current block of the hot mix, in order.
    block: std::vec::IntoIter<Kind>,
    next_cold: usize,
    next_ingest: usize,
}

#[derive(Clone, Copy)]
enum Kind {
    Hot,
    Cold,
    Ingest,
}

/// The hot mix is dealt in blocks of this many ops, each holding exactly
/// 900 hot queries, 97 cold queries and 3 ingests in a seeded order: every
/// run then offers the same mix, where independent draws would give one run
/// two cache-clearing ingests and the next one ten.
const HOT_BLOCK: usize = 1000;

pub fn plan(workload: &Workload, seed: u64) -> Plan {
    let weights: Vec<f64> = (1..=HOT_BODIES).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let zipf_cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    Plan {
        mix: workload.mix,
        rng: StdRng::seed_from_u64(mix(seed, Stream::Hot, usize::MAX)),
        zipf_cdf,
        block: Vec::new().into_iter(),
        next_cold: 0,
        // Warm-up took the first ingest names.
        next_ingest: WARMUP_OPS,
    }
}

impl Plan {
    fn cold(&mut self) -> Op {
        let index = self.next_cold % COLD_BODIES;
        self.next_cold += 1;
        Op::Query {
            stream: Stream::Cold,
            index,
        }
    }

    fn ingest(&mut self) -> Op {
        let index = self.next_ingest;
        self.next_ingest += 1;
        Op::Ingest { index }
    }

    fn hot(&mut self) -> Op {
        let z: f64 = self.rng.gen_range(0.0..1.0);
        let index = self
            .zipf_cdf
            .iter()
            .position(|c| z < *c)
            .unwrap_or(HOT_BODIES - 1);
        Op::Query {
            stream: Stream::Hot,
            index,
        }
    }

    fn next_kind(&mut self) -> Kind {
        if let Some(kind) = self.block.next() {
            return kind;
        }
        let mut block = vec![Kind::Hot; HOT_BLOCK];
        block[..97].fill(Kind::Cold);
        block[97..100].fill(Kind::Ingest);
        for i in (1..HOT_BLOCK).rev() {
            block.swap(i, self.rng.gen_range(0..=i));
        }
        self.block = block.into_iter();
        self.block.next().expect("a block is not empty")
    }
}

impl Iterator for Plan {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.mix {
            Mix::Cold => self.cold(),
            Mix::Ingest => self.ingest(),
            Mix::HotMixed => match self.next_kind() {
                Kind::Hot => self.hot(),
                Kind::Cold => self.cold(),
                Kind::Ingest => self.ingest(),
            },
        })
    }
}

/// The untimed warm-up ops. Cold workloads warm up on the *tail* of the
/// cold cycle, which the timed phase reaches only after 672 other distinct
/// bodies, so warm-up never plants a cache hit; the hot workload warms the
/// cache it is meant to run on; the ingest workload ingests.
pub fn warmup(workload: &Workload) -> Vec<Op> {
    (0..WARMUP_OPS)
        .map(|i| match workload.mix {
            Mix::Cold => Op::Query {
                stream: Stream::Cold,
                index: COLD_BODIES - WARMUP_OPS + i,
            },
            Mix::HotMixed => Op::Query {
                stream: Stream::Hot,
                index: i % HOT_BODIES,
            },
            Mix::Ingest => Op::Ingest { index: i },
        })
        .collect()
}

/// Every body a workload can send, generated once before anything is
/// timed so the load generator does no rendering during a run.
pub struct Bodies {
    cold: Vec<Vec<u8>>,
    hot: Vec<Vec<u8>>,
    ingest: Vec<Vec<u8>>,
}

impl Bodies {
    pub fn generate(seed: u64, workload: &Workload) -> Bodies {
        let stream = |s: Stream, n: usize| (0..n).map(|i| body(seed, s, i)).collect::<Vec<_>>();
        let (cold, hot, ingest) = match workload.mix {
            Mix::Cold => (COLD_BODIES, 0, 0),
            Mix::HotMixed => (COLD_BODIES, HOT_BODIES, INGEST_BODIES),
            Mix::Ingest => (0, 0, INGEST_BODIES),
        };
        Bodies {
            cold: stream(Stream::Cold, cold),
            hot: stream(Stream::Hot, hot),
            ingest: stream(Stream::Ingest, ingest),
        }
    }

    pub fn of(&self, op: &Op) -> &[u8] {
        match op {
            Op::Query {
                stream: Stream::Hot,
                index,
            } => &self.hot[*index],
            Op::Query { index, .. } => &self.cold[*index],
            Op::Ingest { index } => &self.ingest[index % INGEST_BODIES],
        }
    }
}

/// The exact bytes the load generator puts on the wire for one request
/// (and the bytes the replay hands to the server's parser).
pub fn raw_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = request_head(method, target, body.len()).into_bytes();
    out.extend_from_slice(body);
    out
}

pub fn request_head(method: &str, target: &str, body_len: usize) -> String {
    format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {body_len}\r\nConnection: keep-alive\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_depend_only_on_their_coordinates() {
        assert_eq!(body(7, Stream::Cold, 5), body(7, Stream::Cold, 5));
        assert_ne!(body(7, Stream::Cold, 5), body(8, Stream::Cold, 5));
        assert_ne!(body(7, Stream::Cold, 5), body(7, Stream::Hot, 5));
        assert_eq!(body(1, Stream::Corpus, 0).len(), 36_878);
    }

    #[test]
    fn plans_repeat_and_cold_plans_cycle_in_order() {
        let hot = workload("mixed_hot").unwrap();
        let a: Vec<Op> = plan(hot, 3).take(500).collect();
        let b: Vec<Op> = plan(hot, 3).take(500).collect();
        assert_eq!(a, b);
        let cold: Vec<Op> = plan(workload("query_small").unwrap(), 3)
            .take(COLD_BODIES + 1)
            .collect();
        assert_eq!(cold[0], cold[COLD_BODIES]);
        assert_eq!(
            cold[5],
            Op::Query {
                stream: Stream::Cold,
                index: 5
            }
        );
    }
}
