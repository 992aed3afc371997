//! Beam-search inference and ranking evaluation.
//!
//! RL reasoners rank candidates by the best path log-probability that
//! reaches them within `T` steps (the MINERVA evaluation protocol the
//! paper follows). Entities no beam reaches rank pessimistically last.
//!
//! Every entry point here is a thin wrapper over a thread-local
//! [`BeamEngine`](crate::beam::BeamEngine): the outputs are bit-identical
//! to the original per-call search, but repeated calls no longer
//! allocate.

use mmkgr_kg::{Edge, EntityId, KnowledgeGraph, RelationId, TripleSet};

use crate::beam::{with_thread_engine, BeamConfig};
use crate::mdp::RolloutQuery;
use crate::model::MmkgrModel;

/// The raw (tape-free) interface beam search drives. [`MmkgrModel`]
/// implements it; the `mmkgr-baselines` RL walkers (MINERVA, RLH, FIRE)
/// implement it too, so every multi-hop model shares one evaluation
/// protocol.
pub trait RolloutPolicy {
    /// Width of the recurrent history state.
    fn hidden_dim(&self) -> usize;

    /// Build the recurrent input for a step.
    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32>;

    /// Advance the recurrent state in place.
    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]);

    /// Action distribution for one state (must sum to 1).
    fn action_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    );

    /// Precompute whatever of the policy forward depends only on the
    /// action set (for MMKGR: modal gathers/projections and the gate's
    /// `X`-side). The beam engine memoizes the returned box per entity
    /// for the lifetime of one query and passes it back into
    /// [`Self::action_probs_group_prepared`] — an entity revisited at a
    /// later step pays the action-dependent work only once. Policies
    /// with nothing to share return the default `()`.
    fn prepare_actions(&self, actions: &[Edge]) -> Box<dyn std::any::Any> {
        let _ = actions;
        Box::new(())
    }

    /// Action distributions for `states` agent states standing at the
    /// same entity (rows of `hs`, `hidden_dim()` apart), sharing one
    /// action set and its memoized [`Self::prepare_actions`] context.
    /// `out` is cleared and receives `states × actions.len()`
    /// probabilities, row-major. The beam engine calls only this form.
    /// Overrides must be bitwise-identical to [`Self::action_probs`] per
    /// state; the default calls it per state and ignores the context.
    #[allow(clippy::too_many_arguments)]
    fn action_probs_group_prepared(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        prepared: &dyn std::any::Any,
        out: &mut Vec<f32>,
    ) {
        let _ = prepared;
        out.clear();
        let ds = self.hidden_dim();
        let mut row: Vec<f32> = Vec::with_capacity(actions.len());
        for s in 0..states {
            self.action_probs(source, &hs[s * ds..(s + 1) * ds], rq, actions, &mut row);
            out.extend_from_slice(&row);
        }
    }

    /// Precompute the input-dependent half of one recurrent step — for
    /// an LSTM, `bias + x·Wx` — which is a pure function of `(last_rel,
    /// current)`. The beam engine memoizes it per pair for one query:
    /// beams traversing the same edge at any step share it. Policies
    /// with nothing to share return the default `()`.
    fn prepare_step(&self, last_rel: RelationId, current: EntityId) -> Box<dyn std::any::Any> {
        let _ = (last_rel, current);
        Box::new(())
    }

    /// [`Self::lstm_step`] with a memoized [`Self::prepare_step`]
    /// context. Overrides must be bitwise-identical to the unprepared
    /// path; the default rebuilds the input and ignores the context.
    fn lstm_step_prepared(
        &self,
        last_rel: RelationId,
        current: EntityId,
        prepared: &dyn std::any::Any,
        h: &mut [f32],
        c: &mut [f32],
    ) {
        let _ = prepared;
        let x = self.lstm_input(last_rel, current);
        self.lstm_step(&x, h, c)
    }
}

impl<P: RolloutPolicy + ?Sized> RolloutPolicy for &P {
    fn hidden_dim(&self) -> usize {
        (**self).hidden_dim()
    }

    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        (**self).lstm_input(last_rel, current)
    }

    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        (**self).lstm_step(x, h, c)
    }

    fn action_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        (**self).action_probs(source, h, rq, actions, out)
    }

    fn prepare_actions(&self, actions: &[Edge]) -> Box<dyn std::any::Any> {
        (**self).prepare_actions(actions)
    }

    fn action_probs_group_prepared(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        prepared: &dyn std::any::Any,
        out: &mut Vec<f32>,
    ) {
        (**self).action_probs_group_prepared(source, hs, states, rq, actions, prepared, out)
    }

    fn prepare_step(&self, last_rel: RelationId, current: EntityId) -> Box<dyn std::any::Any> {
        (**self).prepare_step(last_rel, current)
    }

    fn lstm_step_prepared(
        &self,
        last_rel: RelationId,
        current: EntityId,
        prepared: &dyn std::any::Any,
        h: &mut [f32],
        c: &mut [f32],
    ) {
        (**self).lstm_step_prepared(last_rel, current, prepared, h, c)
    }
}

impl RolloutPolicy for MmkgrModel {
    fn hidden_dim(&self) -> usize {
        self.cfg.struct_dim
    }

    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        self.raw_lstm_input(last_rel, current)
    }

    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        self.raw_lstm_step(x, h, c)
    }

    fn action_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        self.raw_state_probs(source, h, rq, actions, out)
    }

    fn prepare_actions(&self, actions: &[Edge]) -> Box<dyn std::any::Any> {
        Box::new(self.raw_prepare_actions(actions))
    }

    fn action_probs_group_prepared(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        prepared: &dyn std::any::Any,
        out: &mut Vec<f32>,
    ) {
        let prep = prepared
            .downcast_ref::<crate::model::PreparedActions>()
            .expect("context from MmkgrModel::prepare_actions");
        self.raw_state_probs_group_prepared(source, hs, states, rq, actions, prep, out)
    }

    fn prepare_step(&self, last_rel: RelationId, current: EntityId) -> Box<dyn std::any::Any> {
        Box::new(self.raw_prepare_step(last_rel, current))
    }

    fn lstm_step_prepared(
        &self,
        _last_rel: RelationId,
        _current: EntityId,
        prepared: &dyn std::any::Any,
        h: &mut [f32],
        c: &mut [f32],
    ) {
        let prep = prepared
            .downcast_ref::<crate::model::PreparedStep>()
            .expect("context from MmkgrModel::prepare_step");
        self.raw_lstm_step_prepared(prep, h, c)
    }
}

/// A completed beam: where it ended and how it got there.
#[derive(Clone, Debug, PartialEq)]
pub struct BeamPath {
    pub entity: EntityId,
    pub logp: f32,
    /// Non-NO_OP hops.
    pub hops: usize,
    pub relations: Vec<RelationId>,
}

/// Beam search from `(source, relation)` for `steps` steps.
///
/// Wraps the thread-local [`BeamEngine`](crate::beam::BeamEngine): output
/// is bit-identical to the original per-call
/// implementation (retained as [`crate::beam::beam_search_reference`]),
/// but after the first call on a thread only the returned paths allocate.
pub fn beam_search<P: RolloutPolicy + ?Sized>(
    model: &P,
    graph: &KnowledgeGraph,
    source: EntityId,
    relation: RelationId,
    width: usize,
    steps: usize,
) -> Vec<BeamPath> {
    with_thread_engine(|engine| {
        engine.search(
            model,
            graph,
            source,
            relation,
            &BeamConfig::new(width, steps),
        )
    })
}

/// Outcome of ranking one query.
#[derive(Copy, Clone, Debug)]
pub struct RankOutcome {
    /// 1-based filtered rank of the gold answer.
    pub rank: usize,
    /// Did any beam reach the gold answer?
    pub reached: bool,
    /// Hops of the best-scoring path to the gold answer (0 if unreached).
    pub hops: usize,
}

/// Reusable dense best-score table for [`rank_query`]: per-entity best
/// log-prob and its hop count, with an epoch stamp instead of an O(N)
/// clear between queries. Replaces the per-query `HashMap` the MINERVA
/// protocol used to rebuild for every ranked triple.
#[derive(Default)]
struct RankScratch {
    best: Vec<f32>,
    hops: Vec<u32>,
    stamp: Vec<u64>,
    touched: Vec<u32>,
    epoch: u64,
}

impl RankScratch {
    fn begin(&mut self, num_entities: usize) {
        if self.best.len() < num_entities {
            self.best.resize(num_entities, f32::NEG_INFINITY);
            self.hops.resize(num_entities, 0);
            self.stamp.resize(num_entities, 0);
        }
        self.epoch += 1;
        self.touched.clear();
    }

    fn observe(&mut self, entity: EntityId, logp: f32, hops: usize) {
        let e = entity.index();
        if self.stamp[e] != self.epoch {
            self.stamp[e] = self.epoch;
            self.best[e] = logp;
            self.hops[e] = hops as u32;
            self.touched.push(e as u32);
        } else if logp > self.best[e] {
            self.best[e] = logp;
            self.hops[e] = hops as u32;
        }
    }

    fn get(&self, entity: EntityId) -> Option<(f32, usize)> {
        let e = entity.index();
        (self.stamp.get(e) == Some(&self.epoch)).then(|| (self.best[e], self.hops[e] as usize))
    }
}

/// Rank the gold answer of `q` against all entities using beam scores.
/// `known` enables filtered ranking (other true answers are skipped).
pub fn rank_query<P: RolloutPolicy + ?Sized>(
    model: &P,
    graph: &KnowledgeGraph,
    q: &RolloutQuery,
    known: Option<&TripleSet>,
    width: usize,
    steps: usize,
) -> RankOutcome {
    thread_local! {
        static SCRATCH: std::cell::RefCell<RankScratch> =
            std::cell::RefCell::new(RankScratch::default());
    }
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        with_thread_engine(|engine| {
            engine.run(
                model,
                graph,
                q.source,
                q.relation,
                &BeamConfig::new(width, steps),
            );
            scratch.begin(graph.num_entities());
            for b in engine.frontier() {
                scratch.observe(b.entity, b.logp, b.hops);
            }
        });
        let Some((gold_score, gold_hops)) = scratch.get(q.answer) else {
            return RankOutcome {
                rank: graph.num_entities().max(1),
                reached: false,
                hops: 0,
            };
        };
        let rs = graph.relations();
        let mut rank = 1usize;
        for &e in &scratch.touched {
            let e = EntityId(e);
            let score = scratch.best[e.index()];
            if e == q.answer || score <= gold_score {
                continue;
            }
            // Filtered protocol: skip candidates that are themselves true.
            if let Some(known) = known {
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
            }
            rank += 1;
        }
        RankOutcome {
            rank,
            reached: true,
            hops: gold_hops,
        }
    })
}

/// Aggregate link-prediction metrics (the columns of Tables III/V/VIII).
#[derive(Clone, Debug, Default)]
pub struct RankingSummary {
    pub mrr: f64,
    pub hits1: f64,
    pub hits5: f64,
    pub hits10: f64,
    /// Successful inferences by hop count: index = hops (0..=4, last
    /// bucket collects ≥4) — the Fig. 6/7 histogram.
    pub hop_counts: [usize; 5],
    pub total: usize,
}

impl RankingSummary {
    /// Proportion of successes at exactly `hops` (Fig. 6/7 pie slices).
    pub fn hop_fraction(&self, hops: usize) -> f64 {
        let total: usize = self.hop_counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.hop_counts[hops.min(4)] as f64 / total as f64
        }
    }
}

/// Evaluate a query set with filtered ranking.
pub fn evaluate_ranking<P: RolloutPolicy + ?Sized>(
    model: &P,
    graph: &KnowledgeGraph,
    queries: &[RolloutQuery],
    known: &TripleSet,
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
        let o = rank_query(model, graph, q, Some(known), width, steps);
        s.mrr += 1.0 / o.rank as f64;
        if o.rank <= 1 {
            s.hits1 += 1.0;
        }
        if o.rank <= 5 {
            s.hits5 += 1.0;
        }
        if o.rank <= 10 {
            s.hits10 += 1.0;
        }
        if o.reached && o.rank <= 1 {
            s.hop_counts[o.hops.min(4)] += 1;
        }
    }
    let n = queries.len() as f64;
    s.mrr /= n;
    s.hits1 /= n;
    s.hits5 /= n;
    s.hits10 /= n;
    s
}

/// Score each candidate relation for a `(e_s, ?, e_d)` query: the best
/// beam log-probability that reaches `e_d` under that relation (−∞ if
/// unreached). Used by the Table IV relation-link-prediction MAP.
pub fn relation_scores<P: RolloutPolicy + ?Sized>(
    model: &P,
    graph: &KnowledgeGraph,
    source: EntityId,
    destination: EntityId,
    candidates: &[RelationId],
    width: usize,
    steps: usize,
) -> Vec<f32> {
    // One warm engine across all candidate relations — no per-relation
    // cold start, and no path materialization (only the frontier's best
    // log-prob to `destination` is needed).
    let cfg = BeamConfig::new(width, steps);
    with_thread_engine(|engine| {
        candidates
            .iter()
            .map(|&r| {
                engine.run(model, graph, source, r, &cfg);
                engine.best_logp_to(destination)
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MmkgrConfig;
    use crate::model::MmkgrModel;
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_kg::Triple;

    fn tiny() -> (mmkgr_kg::MultiModalKG, MmkgrModel) {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        (kg, model)
    }

    #[test]
    fn beam_search_returns_at_most_width() {
        let (kg, model) = tiny();
        let paths = beam_search(&model, &kg.graph, EntityId(0), RelationId(0), 4, 3);
        assert!(!paths.is_empty());
        assert!(paths.len() <= 4);
        for p in &paths {
            assert!(p.logp <= 0.0, "log-probabilities are non-positive");
            assert_eq!(p.relations.len(), p.hops);
        }
    }

    #[test]
    fn beams_end_at_reachable_entities() {
        let (kg, model) = tiny();
        let paths = beam_search(&model, &kg.graph, EntityId(1), RelationId(0), 8, 4);
        for p in &paths {
            assert!(p.hops <= 4, "a 4-step beam cannot take more than 4 hops");
            // end entity must be within `hops` of the start
            if p.hops > 0 {
                let d = mmkgr_kg::hop_distance(&kg.graph, EntityId(1), p.entity, 4);
                assert!(d.is_some(), "beam ended at unreachable entity");
            }
        }
    }

    #[test]
    fn rank_query_finds_trivial_self_answer() {
        // Query whose answer is the source: beams that never move (all
        // NO_OP) stay there, so it must be reached.
        let (kg, model) = tiny();
        let q = RolloutQuery {
            source: EntityId(0),
            relation: RelationId(0),
            answer: EntityId(0),
        };
        // Width must exceed the source's action count so the NO_OP edge
        // cannot be pruned; an untrained policy gives it no score edge.
        let o = rank_query(&model, &kg.graph, &q, None, 512, 1);
        assert!(o.reached, "staying put must keep the source reachable");
        assert_eq!(o.hops, 0);
    }

    #[test]
    fn unreachable_answer_ranks_last() {
        let (kg, model) = tiny();
        // An isolated fake answer: entity far outside beam reach is very
        // unlikely to be hit with width 1 and 1 step unless adjacent.
        let q = RolloutQuery {
            source: EntityId(0),
            relation: RelationId(0),
            answer: EntityId((kg.num_entities() - 1) as u32),
        };
        let o = rank_query(&model, &kg.graph, &q, None, 1, 1);
        if !o.reached {
            assert_eq!(o.rank, kg.num_entities());
        }
    }

    #[test]
    fn evaluate_ranking_bounds() {
        let (kg, model) = tiny();
        let queries: Vec<RolloutQuery> = kg.split.test[..8.min(kg.split.test.len())]
            .iter()
            .map(|t| RolloutQuery {
                source: t.s,
                relation: t.r,
                answer: t.o,
            })
            .collect();
        let known = kg.all_known();
        let s = evaluate_ranking(&model, &kg.graph, &queries, &known, 8, 4);
        assert!((0.0..=1.0).contains(&s.mrr));
        assert!(s.hits1 <= s.hits5 && s.hits5 <= s.hits10);
        assert_eq!(s.total, queries.len());
    }

    #[test]
    fn filtered_rank_never_worse_than_raw() {
        let (kg, model) = tiny();
        let known = kg.all_known();
        let t: &Triple = &kg.split.test[0];
        let q = RolloutQuery {
            source: t.s,
            relation: t.r,
            answer: t.o,
        };
        let raw = rank_query(&model, &kg.graph, &q, None, 8, 4);
        let filt = rank_query(&model, &kg.graph, &q, Some(&known), 8, 4);
        assert!(filt.rank <= raw.rank);
    }

    #[test]
    fn relation_scores_prefer_connecting_relation() {
        let (kg, model) = tiny();
        // take a train triple; its relation should score better than a
        // random one *sometimes* — we only check the shape contract here.
        let t = &kg.split.train[0];
        let rels: Vec<RelationId> = (0..kg.num_base_relations() as u32)
            .map(RelationId)
            .collect();
        let scores = relation_scores(&model, &kg.graph, t.s, t.o, &rels, 8, 3);
        assert_eq!(scores.len(), rels.len());
        assert!(
            scores.iter().any(|s| s.is_finite()),
            "some relation must reach"
        );
    }

    #[test]
    fn hop_fraction_sums_to_one_when_successes_exist() {
        let s = RankingSummary {
            hop_counts: [0, 2, 5, 3, 0],
            ..RankingSummary::default()
        };
        let total: f64 = (0..5).map(|h| s.hop_fraction(h)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
