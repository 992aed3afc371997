//! Parity and behaviour tests for the zero-allocation beam engine and
//! the serving layers built on top of it:
//!
//! - Property tests pin `BeamEngine` bitwise to `beam_search_reference`
//!   — the retained naive implementation — across random graphs,
//!   random policies, and random search shapes: same entities, same
//!   log-probs, same relation paths, same tie-breaks.
//! - `evaluate_ranking` (now engine-backed with a dense best-score
//!   table) is bit-identical to the original HashMap-over-paths
//!   protocol recomputed from the reference search.
//! - The `PolicyReasoner` frontier cache returns byte-identical
//!   `Answer`s on repeated queries, and the `WorkerPool` matches
//!   sequential answering across repeated batches on one pool.

use std::collections::HashMap;
use std::sync::Arc;

use mmkgr::core::beam::{beam_search_reference, BeamConfig, BeamEngine};
use mmkgr::core::infer::{evaluate_ranking, BeamPath, RankingSummary, RolloutPolicy};
use mmkgr::core::mdp::RolloutQuery;
use mmkgr::core::serve::{KgReasoner, PolicyReasoner, Query, ServeConfig, WorkerPool};
use mmkgr::kg::{Edge, EntityId, KnowledgeGraph, RelationId, Triple};
use mmkgr::prelude::*;
use mmkgr::tensor::softmax_slice;
use proptest::prelude::*;

// ---------------------------------------------------------------- policy

/// A cheap, deterministic rollout policy for property tests: no training,
/// no parameters, but state-dependent enough that beams genuinely
/// diverge (the recurrent state feeds the action scores).
struct MixPolicy {
    ds: usize,
    salt: u64,
}

fn unit(x: u64) -> f32 {
    // Deterministic pseudo-random in [0, 1): splitmix64 finisher.
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z >> 40) as f32) / ((1u64 << 24) as f32)
}

impl RolloutPolicy for MixPolicy {
    fn hidden_dim(&self) -> usize {
        self.ds
    }

    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        (0..self.ds)
            .map(|k| {
                unit(
                    self.salt
                        ^ (u64::from(last_rel.0) << 32)
                        ^ u64::from(current.0)
                        ^ ((k as u64) << 17),
                ) - 0.5
            })
            .collect()
    }

    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        for k in 0..self.ds {
            c[k] = 0.7 * c[k] + 0.3 * x[k];
            h[k] = (h[k] * 0.5 + c[k]).tanh();
        }
    }

    fn action_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        let hsum: f32 = h.iter().sum();
        for a in actions {
            let base = unit(
                self.salt
                    ^ (u64::from(source.0) << 40)
                    ^ (u64::from(rq.0) << 28)
                    ^ (u64::from(a.relation.0) << 14)
                    ^ u64::from(a.target.0),
            );
            out.push(base + hsum * 0.1);
        }
        softmax_slice(out);
    }
}

fn graph_from(triples: &[Triple], entities: usize, relations: usize) -> KnowledgeGraph {
    KnowledgeGraph::from_triples(entities, relations, triples.to_vec(), None)
}

fn assert_paths_bitwise(got: &[BeamPath], want: &[BeamPath]) {
    assert_eq!(got.len(), want.len(), "frontier sizes differ");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.entity, w.entity);
        assert_eq!(g.hops, w.hops);
        assert_eq!(g.relations, w.relations, "relation paths differ");
        assert_eq!(
            g.logp.to_bits(),
            w.logp.to_bits(),
            "log-probs differ: {} vs {}",
            g.logp,
            w.logp
        );
    }
}

fn arb_triples(entities: u32, relations: u32) -> impl Strategy<Value = Vec<Triple>> {
    proptest::collection::vec(
        (0..entities, 0..relations, 0..entities).prop_map(|(s, r, o)| Triple::new(s, r, o)),
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_exact_matches_reference_on_random_graphs(
        triples in arb_triples(14, 4),
        source in 0u32..14,
        relation in 0u32..4,
        width in 1usize..10,
        steps in 0usize..5,
        salt in 0u64..1000,
    ) {
        let g = graph_from(&triples, 14, 4);
        let policy = MixPolicy { ds: 6, salt };
        let cfg = BeamConfig::new(width, steps);
        let want = beam_search_reference(&policy, &g, EntityId(source), RelationId(relation), &cfg);
        // One engine reused across all proptest cases would also work;
        // a fresh one per case keeps failures reproducible in isolation.
        let got = BeamEngine::new().search(&policy, &g, EntityId(source), RelationId(relation), &cfg);
        assert_paths_bitwise(&got, &want);
    }

    #[test]
    fn warm_engine_equals_cold_engine(
        triples in arb_triples(10, 3),
        salt in 0u64..500,
    ) {
        let g = graph_from(&triples, 10, 3);
        let policy = MixPolicy { ds: 5, salt };
        let cfg = BeamConfig::new(6, 4);
        let mut warm = BeamEngine::new();
        for s in 0..10u32 {
            warm.run(&policy, &g, EntityId(s), RelationId(1), &cfg);
        }
        let warm_paths = warm.search(&policy, &g, EntityId(3), RelationId(0), &cfg);
        let cold_paths = BeamEngine::new().search(&policy, &g, EntityId(3), RelationId(0), &cfg);
        assert_paths_bitwise(&warm_paths, &cold_paths);
    }
}

// ----------------------------------------------------- evaluate_ranking

/// The original (pre-engine) ranking protocol, recomputed from the
/// retained reference beam search: HashMap of best log-prob per entity,
/// optimistic tie-break, filtered protocol. `evaluate_ranking` must stay
/// bit-identical to this.
fn reference_ranking<P: RolloutPolicy>(
    policy: &P,
    graph: &KnowledgeGraph,
    queries: &[RolloutQuery],
    known: &mmkgr::kg::TripleSet,
    width: usize,
    steps: usize,
) -> RankingSummary {
    let mut s = RankingSummary {
        total: queries.len(),
        ..Default::default()
    };
    if queries.is_empty() {
        return s;
    }
    for q in queries {
        let paths = beam_search_reference(
            policy,
            graph,
            q.source,
            q.relation,
            &BeamConfig::new(width, steps),
        );
        let mut best: HashMap<EntityId, (f32, usize)> = HashMap::new();
        for p in &paths {
            let entry = best.entry(p.entity).or_insert((f32::NEG_INFINITY, 0));
            if p.logp > entry.0 {
                *entry = (p.logp, p.hops);
            }
        }
        let (rank, reached, hops) = match best.get(&q.answer) {
            None => (graph.num_entities().max(1), false, 0),
            Some(&(gold_score, gold_hops)) => {
                let rs = graph.relations();
                let mut rank = 1usize;
                for (&e, &(score, _)) in &best {
                    if e == q.answer || score <= gold_score {
                        continue;
                    }
                    let is_known = if rs.is_base(q.relation) {
                        known.contains(q.source, q.relation, e)
                    } else if rs.is_inverse(q.relation) {
                        known.contains(e, rs.inverse(q.relation), q.source)
                    } else {
                        false
                    };
                    if is_known {
                        continue;
                    }
                    rank += 1;
                }
                (rank, true, gold_hops)
            }
        };
        s.mrr += 1.0 / rank as f64;
        if rank <= 1 {
            s.hits1 += 1.0;
        }
        if rank <= 5 {
            s.hits5 += 1.0;
        }
        if rank <= 10 {
            s.hits10 += 1.0;
        }
        if reached && rank <= 1 {
            s.hop_counts[hops.min(4)] += 1;
        }
    }
    let n = queries.len() as f64;
    s.mrr /= n;
    s.hits1 /= n;
    s.hits5 /= n;
    s.hits10 /= n;
    s
}

#[test]
fn evaluate_ranking_is_bit_identical_to_reference_protocol() {
    let kg = mmkgr::datagen::generate(&mmkgr::datagen::GenConfig::tiny());
    let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
    let queries: Vec<RolloutQuery> = kg
        .split
        .test
        .iter()
        .take(12)
        .map(|t| RolloutQuery {
            source: t.s,
            relation: t.r,
            answer: t.o,
        })
        .collect();
    let known = kg.all_known();
    let got = evaluate_ranking(&model, &kg.graph, &queries, &known, 8, 4);
    let want = reference_ranking(&model, &kg.graph, &queries, &known, 8, 4);
    assert_eq!(got.total, want.total);
    assert_eq!(got.hop_counts, want.hop_counts);
    assert_eq!(
        got.mrr.to_bits(),
        want.mrr.to_bits(),
        "MRR must be bit-identical"
    );
    assert_eq!(got.hits1.to_bits(), want.hits1.to_bits());
    assert_eq!(got.hits5.to_bits(), want.hits5.to_bits());
    assert_eq!(got.hits10.to_bits(), want.hits10.to_bits());
}

// ----------------------------------------------------------- cache/pool

fn cached_reasoner(capacity: usize) -> (mmkgr::kg::MultiModalKG, PolicyReasoner<MmkgrModel>) {
    let kg = mmkgr::datagen::generate(&mmkgr::datagen::GenConfig::tiny());
    let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
    let reasoner = PolicyReasoner::new(
        "MMKGR",
        model,
        Arc::new(kg.graph.clone()),
        ServeConfig {
            beam_width: 8,
            max_steps: 3,
            ..ServeConfig::default()
        }
        .with_cache(capacity),
    );
    (kg, reasoner)
}

#[test]
fn cache_hit_returns_byte_identical_answer() {
    let (kg, reasoner) = cached_reasoner(64);
    let t = kg.split.test[0];
    let q = Query::new(t.s, t.r).with_top_k(0);
    let first = reasoner.answer(&q);
    let second = reasoner.answer(&q);
    assert_eq!(first, second, "cache hit must be byte-identical");
    let stats = reasoner.cache_stats().expect("cache enabled");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.entries, 1);
    // Different top_k shares the same frontier entry.
    let truncated = reasoner.answer(&Query::new(t.s, t.r).with_top_k(3));
    assert_eq!(truncated.ranked, first.ranked[..3.min(first.ranked.len())]);
    assert_eq!(reasoner.cache_stats().unwrap().hits, 2);
}

#[test]
fn cache_matches_uncached_reasoner() {
    let (kg, cached) = cached_reasoner(64);
    let uncached = PolicyReasoner::new(
        "MMKGR",
        MmkgrModel::new(&kg, MmkgrConfig::quick(), None),
        Arc::new(kg.graph.clone()),
        ServeConfig {
            beam_width: 8,
            max_steps: 3,
            ..ServeConfig::default()
        },
    );
    for t in kg.split.test.iter().take(6) {
        let q = Query::new(t.s, t.r);
        // Twice through the cache (miss, then hit), once without.
        assert_eq!(cached.answer(&q), uncached.answer(&q));
        assert_eq!(cached.answer(&q), uncached.answer(&q));
    }
}

#[test]
fn cache_evicts_at_capacity() {
    let (kg, reasoner) = cached_reasoner(2);
    let rels = kg.graph.relations().total() as u32;
    for i in 0..5u32 {
        reasoner.answer(&Query::new(EntityId(i), RelationId(i % rels)));
    }
    let stats = reasoner.cache_stats().unwrap();
    assert!(stats.entries <= 2, "LRU must respect capacity");
    assert_eq!(stats.misses, 5);
}

#[test]
fn worker_pool_matches_sequential_over_repeated_batches() {
    let kg = mmkgr::datagen::generate(&mmkgr::datagen::GenConfig::tiny());
    let reasoner: Arc<dyn KgReasoner + Send + Sync> = Arc::new(PolicyReasoner::new(
        "MMKGR",
        MmkgrModel::new(&kg, MmkgrConfig::quick(), None),
        Arc::new(kg.graph.clone()),
        ServeConfig::default(),
    ));
    let queries: Vec<Query> = kg
        .split
        .test
        .iter()
        .take(9)
        .map(|t| Query::new(t.s, t.r).with_beam(6).with_steps(3))
        .collect();
    let sequential: Vec<_> = queries.iter().map(|q| reasoner.answer(q)).collect();
    let pool = WorkerPool::new(Arc::clone(&reasoner), 3);
    assert_eq!(pool.workers(), 3);
    // The pool is persistent: several batches reuse the same workers.
    for _ in 0..3 {
        assert_eq!(pool.answer_batch(&queries), sequential);
    }
    assert!(pool.answer_batch(&[]).is_empty());
    // More workers than queries is fine (late receivers find no work).
    let wide = WorkerPool::new(reasoner, 8);
    assert_eq!(wide.answer_batch(&queries[..2]), sequential[..2]);
}
