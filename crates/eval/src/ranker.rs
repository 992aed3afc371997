//! Ranking protocols for the two model families, driven through the
//! unified serving surface (`mmkgr_core::serve`).
//!
//! Both families answer the same [`Query`]; their [`Answer`]s differ only
//! in [`Coverage`]:
//!
//! - **Scorer models** (TransE/DistMult/ComplEx/ConvE/MTRL/GAATs/NeuralLP)
//!   rank every candidate entity ([`Coverage::Exhaustive`]); ties rank at
//!   their expected position.
//! - **Policy models** (MMKGR, MINERVA, RLH, FIRE) rank the entities some
//!   beam reaches ([`Coverage::Reached`]); unreached entities rank
//!   pessimistically last and ties break optimistically — the MINERVA
//!   protocol the paper follows.
//!
//! [`eval_reasoner_entity`] is the single filtered-ranking driver; the
//! per-family entry points wrap a model in its reasoner and delegate, so
//! tables compare apples to apples by construction.

use std::sync::Arc;

use mmkgr_core::infer::{RankingSummary, RolloutPolicy};
use mmkgr_core::serve::{
    Answer, Coverage, KgReasoner, PolicyReasoner, Query, ScorerReasoner, ServeConfig,
};
use mmkgr_embed::TripleScorer;
use mmkgr_kg::{EntityId, KnowledgeGraph, RelationId, Triple, TripleSet};

use crate::metrics::{average_precision_single, filtered_rank, mean, RankAccum};

/// Uniform result row for entity link prediction.
#[derive(Clone, Debug, Default)]
pub struct LinkPredictionResult {
    pub mrr: f64,
    pub hits1: f64,
    pub hits5: f64,
    pub hits10: f64,
    pub queries: usize,
    /// Hop histogram (policy models only; zeros for scorers).
    pub hop_counts: [usize; 5],
}

impl From<RankingSummary> for LinkPredictionResult {
    fn from(s: RankingSummary) -> Self {
        LinkPredictionResult {
            mrr: s.mrr,
            hits1: s.hits1,
            hits5: s.hits5,
            hits10: s.hits10,
            queries: s.total,
            hop_counts: s.hop_counts,
        }
    }
}

/// The gold answer's filtered rank within one [`Answer`], under the
/// coverage-appropriate protocol (see module docs). Returns the rank and,
/// when the reasoner attached path evidence to the gold candidate, its
/// hop count.
fn gold_rank(
    answer: &Answer,
    gold: EntityId,
    num_entities: usize,
    is_filtered: impl Fn(EntityId) -> bool,
) -> (usize, Option<usize>) {
    let Some(g) = answer.candidate(gold) else {
        debug_assert_eq!(
            answer.coverage,
            Coverage::Reached,
            "exhaustive answers must rank every entity"
        );
        return (num_entities.max(1), None);
    };
    let mut better = 0usize;
    let mut ties = 0usize;
    for c in &answer.ranked {
        if c.entity == gold || is_filtered(c.entity) {
            continue;
        }
        if c.score > g.score {
            better += 1;
        } else if c.score == g.score {
            ties += 1;
        }
    }
    let rank = match answer.coverage {
        // Expected-position tie-break (matches `metrics::filtered_rank`).
        Coverage::Exhaustive => 1 + better + ties / 2,
        // Optimistic tie-break over reached entities (matches
        // `infer::rank_query`).
        Coverage::Reached => 1 + better,
    };
    (rank, g.evidence.as_ref().map(|e| e.hops))
}

/// Entity link prediction over the unified serving surface: tail + head
/// queries per test triple, filtered ranking, hop histogram from path
/// evidence. Works identically for both reasoner families.
pub fn eval_reasoner_entity(
    reasoner: &dyn KgReasoner,
    test: &[Triple],
    known: &TripleSet,
) -> LinkPredictionResult {
    let n = reasoner.num_entities();
    let rs = reasoner.relations();
    let mut accum = RankAccum::default();
    let mut hop_counts = [0usize; 5];
    let mut record = |answer: &Answer, gold: EntityId, filt: &dyn Fn(EntityId) -> bool| {
        let (rank, hops) = gold_rank(answer, gold, n, filt);
        accum.push(rank);
        if rank <= 1 {
            if let Some(h) = hops {
                hop_counts[h.min(4)] += 1;
            }
        }
    };
    for t in test {
        // tail query (s, r, ?)
        let tail = reasoner.answer(&Query::new(t.s, t.r).with_top_k(0));
        record(&tail, t.o, &|e| e != t.o && known.contains(t.s, t.r, e));
        // head query (?, r, o) via the inverse relation
        let head = reasoner.answer(&Query::new(t.o, rs.inverse(t.r)).with_top_k(0));
        record(&head, t.s, &|e| e != t.s && known.contains(e, t.r, t.o));
    }
    LinkPredictionResult {
        mrr: accum.mrr(),
        hits1: accum.hits(1),
        hits5: accum.hits(5),
        hits10: accum.hits(10),
        queries: accum.len(),
        hop_counts,
    }
}

/// Entity link prediction for a scorer model: wraps it in a
/// [`ScorerReasoner`] and drives the unified protocol.
pub fn eval_scorer_entity(
    scorer: &impl TripleScorer,
    graph: &KnowledgeGraph,
    test: &[Triple],
    known: &TripleSet,
) -> LinkPredictionResult {
    let reasoner = ScorerReasoner::for_graph("scorer", scorer, graph);
    eval_reasoner_entity(&reasoner, test, known)
}

/// Entity link prediction for a policy model: wraps it in a
/// [`PolicyReasoner`] and drives the unified protocol.
pub fn eval_policy_entity(
    policy: &impl RolloutPolicy,
    graph: &KnowledgeGraph,
    test: &[Triple],
    known: &TripleSet,
    beam: usize,
    steps: usize,
) -> LinkPredictionResult {
    let reasoner = PolicyReasoner::new(
        "policy",
        policy,
        Arc::new(graph.clone()),
        ServeConfig {
            beam_width: beam,
            max_steps: steps,
            ..ServeConfig::default()
        },
    );
    eval_reasoner_entity(&reasoner, test, known)
}

/// Relation link prediction (Table IV): per-relation and overall MAP.
#[derive(Clone, Debug, Default)]
pub struct RelationMapResult {
    /// `(relation, MAP, #queries)` sorted by relation id.
    pub per_relation: Vec<(RelationId, f64, usize)>,
    pub overall: f64,
    pub queries: usize,
}

/// MAP for a scorer model: rank the true relation among `candidates` by
/// `score(s, r, o)`.
pub fn eval_scorer_relation_map(
    scorer: &impl TripleScorer,
    test: &[Triple],
    candidates: &[RelationId],
) -> RelationMapResult {
    relation_map_impl(test, candidates, |t, cands| {
        cands.iter().map(|&r| scorer.score(t.s, r, t.o)).collect()
    })
}

/// MAP for a policy model: rank the true relation by the best beam
/// probability of reaching `o` from `s` under each candidate relation.
pub fn eval_policy_relation_map(
    policy: &impl RolloutPolicy,
    graph: &KnowledgeGraph,
    test: &[Triple],
    candidates: &[RelationId],
    beam: usize,
    steps: usize,
) -> RelationMapResult {
    relation_map_impl(test, candidates, |t, cands| {
        mmkgr_core::infer::relation_scores(policy, graph, t.s, t.o, cands, beam, steps)
    })
}

fn relation_map_impl(
    test: &[Triple],
    candidates: &[RelationId],
    score_fn: impl Fn(&Triple, &[RelationId]) -> Vec<f32>,
) -> RelationMapResult {
    use std::collections::BTreeMap;
    let mut per_rel: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    for t in test {
        // candidate set always contains the true relation
        let mut cands: Vec<RelationId> = candidates.to_vec();
        if !cands.contains(&t.r) {
            cands.push(t.r);
        }
        let scores = score_fn(t, &cands);
        let gold_idx = cands.iter().position(|&r| r == t.r).unwrap();
        let rank = filtered_rank(&scores, gold_idx, &vec![false; cands.len()]);
        per_rel
            .entry(t.r.0)
            .or_default()
            .push(average_precision_single(rank));
    }
    let mut per_relation = Vec::with_capacity(per_rel.len());
    let mut all: Vec<f64> = Vec::new();
    for (r, aps) in per_rel {
        per_relation.push((RelationId(r), mean(&aps), aps.len()));
        all.extend(aps);
    }
    RelationMapResult {
        per_relation,
        overall: mean(&all),
        queries: all.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_embed::{KgeTrainConfig, TransE};

    #[test]
    fn scorer_eval_produces_sane_metrics() {
        let kg = generate(&GenConfig::tiny());
        let known = kg.all_known();
        let mut model = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0);
        model.train(&kg.split.train, &known, &KgeTrainConfig::quick());
        let r = eval_scorer_entity(&model, &kg.graph, &kg.split.test, &known);
        assert_eq!(r.queries, 2 * kg.split.test.len());
        assert!((0.0..=1.0).contains(&r.mrr));
        assert!(r.hits1 <= r.hits5 && r.hits5 <= r.hits10);
    }

    #[test]
    fn trained_scorer_beats_untrained() {
        let kg = generate(&GenConfig::tiny());
        let known = kg.all_known();
        let untrained = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0);
        let r0 = eval_scorer_entity(&untrained, &kg.graph, &kg.split.test, &known);
        let mut trained = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0);
        trained.train(
            &kg.split.train,
            &known,
            &KgeTrainConfig::default().with_epochs(25),
        );
        let r1 = eval_scorer_entity(&trained, &kg.graph, &kg.split.test, &known);
        assert!(
            r1.mrr > r0.mrr,
            "training must help: {:.3} !> {:.3}",
            r1.mrr,
            r0.mrr
        );
    }

    #[test]
    fn relation_map_includes_every_gold_relation() {
        let kg = generate(&GenConfig::tiny());
        let known = kg.all_known();
        let mut model = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 1);
        model.train(&kg.split.train, &known, &KgeTrainConfig::quick());
        let cands: Vec<RelationId> = (0..kg.num_base_relations() as u32)
            .map(RelationId)
            .collect();
        let m = eval_scorer_relation_map(&model, &kg.split.test, &cands);
        assert_eq!(m.queries, kg.split.test.len());
        assert!((0.0..=1.0).contains(&m.overall));
        for (_, map, n) in &m.per_relation {
            assert!((0.0..=1.0).contains(map));
            assert!(*n > 0);
        }
    }
}
