//! Workload definitions: every op a run issues is a pure function of the
//! seed and the op's index, so the cache occupancy, overlay size and WAL
//! length seen by op `i` never depend on how fast the host is.

use std::collections::BTreeSet;

use mmkgr_kg::{EntityId, MultiModalKG, RelationId, Triple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Keys answered once during answer-hot set-up and then repeated.
pub const HOT_KEYS: usize = 256;
/// The repeat set of rag-live (one answer per cycle comes from it).
pub const REPEAT_KEYS: usize = 64;
/// Distinct keys answered in answer-cold's warm pass.
pub const COLD_WARM_KEYS: usize = 64;
/// Keys rag-live's warm pass answers to fill the frontier cache to its
/// capacity, so cache occupancy (and with it the cost of a mutation's
/// invalidation scan) is at its steady state from the first timed op.
pub const FILL_KEYS: usize = 1024;
/// Triples the mutating ops toggle (each inserted in one cycle and
/// deleted in the next), so the overlay stops growing after one pass.
pub const POOL_TRIPLES: usize = 16;
/// Ops in one rag-live cycle.
pub const CYCLE: usize = 8;
/// Cycles of the route probe that follows the answer-only workloads.
pub const PROBE_CYCLES: usize = 384;

pub const BEAM: usize = 16;
pub const STEPS: usize = 4;
pub const TOP_K: usize = 10;
pub const RETRIEVE_HOPS: usize = 2;
pub const RETRIEVE_MAX_ENTITIES: usize = 64;
pub const RETRIEVE_MAX_PATHS: usize = 8;
pub const RETRIEVE_DIVERSITY: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AnswerCold,
    AnswerHot,
    RagLive,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::AnswerCold, Workload::AnswerHot, Workload::RagLive];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnswerCold => "answer-cold",
            Workload::AnswerHot => "answer-hot",
            Workload::RagLive => "rag-live",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the gated answer percentiles come from repeated keys
    /// (all hits) rather than fresh ones (all misses).
    pub fn gates_repeats(self) -> bool {
        self == Workload::AnswerHot
    }

    /// Whether the timed mix lacks retrieves and mutations, which a
    /// fixed route probe then measures after it.
    pub fn has_probe(self) -> bool {
        self != Workload::RagLive
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `repeat`: the key comes from a set the workload asks again and
    /// again (answer-hot's keys, rag-live's repeat set).
    Answer {
        source: u32,
        relation: u32,
        repeat: bool,
    },
    Retrieve {
        seed: u32,
    },
    Mutate {
        triple: Triple,
        insert: bool,
    },
}

impl Op {
    pub fn route(&self) -> Route {
        match self {
            Op::Answer { .. } => Route::Answer,
            Op::Retrieve { .. } => Route::Retrieve,
            Op::Mutate { .. } => Route::Mutate,
        }
    }

    /// The wire request body of this op.
    pub fn body(&self) -> String {
        match *self {
            Op::Answer {
                source, relation, ..
            } => format!(
                r#"{{"query": {{"source": "e{source}", "relation": "r{relation}", "top_k": {TOP_K}, "beam": {BEAM}, "steps": {STEPS}}}}}"#
            ),
            Op::Retrieve { seed } => format!(
                r#"{{"seeds": ["e{seed}"], "hops": {RETRIEVE_HOPS}, "max_entities": {RETRIEVE_MAX_ENTITIES}, "max_paths": {RETRIEVE_MAX_PATHS}, "diversity": {RETRIEVE_DIVERSITY}}}"#
            ),
            Op::Mutate { triple: t, insert } => format!(
                r#"{{"{}": [{{"s": "e{}", "r": "r{}", "o": "e{}"}}]}}"#,
                if insert { "insert" } else { "delete" },
                t.s.0,
                t.r.0,
                t.o.0
            ),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Answer,
    Retrieve,
    Mutate,
}

impl Route {
    pub fn path(self) -> &'static str {
        match self {
            Route::Answer => "/v1/answer",
            Route::Retrieve => "/v1/retrieve",
            Route::Mutate => "/v1/admin/mutate",
        }
    }
}

/// The seed-determined inputs of one workload.
pub struct Plan {
    pub workload: Workload,
    hot: Vec<(u32, u32)>,
    repeat: Vec<(u32, u32)>,
    warm: Vec<(u32, u32)>,
    fill: Vec<(u32, u32)>,
    stream: Vec<(u32, u32)>,
    seeds: Vec<u32>,
    pool: Vec<Triple>,
    phase0: f64,
}

impl Plan {
    pub fn new(workload: Workload, kg: &MultiModalKG, seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed);
        // Distinct (source, relation) keys of the training graph, in a
        // seeded order; disjoint slices feed each key role.
        let mut keys: Vec<(u32, u32)> = kg
            .split
            .train
            .iter()
            .map(|t| (t.s.0, t.r.0))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        keys.shuffle(&mut rng);
        // Small datasets (the smoke test's) shrink each role to a share
        // of the keys, leaving most of them for the fresh stream.
        let len = keys.len();
        let (hot, repeat, warm) = (
            HOT_KEYS.min(len / 8),
            REPEAT_KEYS.min(len / 16),
            COLD_WARM_KEYS.min(len / 32),
        );
        let mut stream = keys.split_off(hot + repeat + warm);
        let fill = match workload {
            Workload::RagLive => stream.split_off(stream.len() - FILL_KEYS.min(len / 4)),
            _ => Vec::new(),
        };
        let warm = keys.split_off(hot + repeat);
        let repeat = keys.split_off(hot);
        let hot = keys;

        let mut seeds: Vec<u32> = kg
            .split
            .train
            .iter()
            .map(|t| t.s.0)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        seeds.shuffle(&mut rng);

        let n = kg.num_entities() as u32;
        let base = kg.graph.relations().base() as u32;
        let mut pool: Vec<Triple> = Vec::with_capacity(POOL_TRIPLES);
        while pool.len() < POOL_TRIPLES {
            let t = Triple {
                s: EntityId(rng.gen_range(0..n)),
                r: RelationId(rng.gen_range(0..base)),
                o: EntityId(rng.gen_range(0..n)),
            };
            if t.s != t.o && !kg.graph.has_edge(t.s, t.r, t.o) && !pool.contains(&t) {
                pool.push(t);
            }
        }
        let phase0 = rng.gen_range(0.0..1.0);
        Plan {
            workload,
            hot,
            repeat,
            warm,
            fill,
            stream,
            seeds,
            pool,
            phase0,
        }
    }

    fn answer(key: (u32, u32), repeat: bool) -> Op {
        Op::Answer {
            source: key.0,
            relation: key.1,
            repeat,
        }
    }

    fn toggle(&self, cycle: usize) -> Op {
        Op::Mutate {
            triple: self.pool[(cycle / 2) % self.pool.len()],
            insert: cycle.is_multiple_of(2),
        }
    }

    fn seed(&self, i: usize) -> Op {
        Op::Retrieve {
            seed: self.seeds[i % self.seeds.len()],
        }
    }

    /// Timed op `i`.
    pub fn op(&self, i: usize) -> Op {
        match self.workload {
            Workload::AnswerCold => Self::answer(self.stream[i % self.stream.len()], false),
            Workload::AnswerHot => Self::answer(self.hot[i % self.hot.len()], true),
            Workload::RagLive => {
                let (c, p) = (i / CYCLE, i % CYCLE);
                match p {
                    0 => self.toggle(c),
                    1 | 2 => self.seed(2 * c + p - 1),
                    3..=6 => Self::answer(self.stream[(4 * c + p - 3) % self.stream.len()], false),
                    _ => Self::answer(self.repeat[c % self.repeat.len()], true),
                }
            }
        }
    }

    /// Answers that fill the cache before the warm ops (rag-live only).
    pub fn fill_ops(&self) -> Vec<Op> {
        self.fill.iter().map(|&k| Self::answer(k, false)).collect()
    }

    /// Untimed ops of the warm pass, run once per set-up.
    pub fn warm_ops(&self) -> Vec<Op> {
        match self.workload {
            Workload::AnswerCold => self.warm.iter().map(|&k| Self::answer(k, false)).collect(),
            Workload::AnswerHot => self.hot.iter().map(|&k| Self::answer(k, true)).collect(),
            Workload::RagLive => (0..2 * self.pool.len())
                .map(|c| self.toggle(c))
                .chain(self.repeat.iter().map(|&k| Self::answer(k, true)))
                .collect(),
        }
    }

    /// Op `i` of the route probe: cycles of one mutation and two
    /// retrieves over the same pool and seeds rag-live uses.
    pub fn probe_op(&self, i: usize) -> Op {
        let (c, p) = (i / 3, i % 3);
        match p {
            0 => self.toggle(c),
            _ => self.seed(2 * c + p - 1),
        }
    }

    /// Arrival phase in `[0, 1)` of the `k`-th mutation within one
    /// replication ship-poll period: a golden-ratio sequence, so the
    /// phases cover the period evenly instead of clustering.
    pub fn phase(&self, k: usize) -> f64 {
        (self.phase0 + k as f64 * 0.618_033_988_749_895).fract()
    }
}
