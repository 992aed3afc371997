//! Complementary feature-aware REINFORCE training (paper Eqs. 18–19).
//!
//! Each batch rolls out `B` queries for exactly `T` steps on a shared tape
//! (the LSTM history update is batched across queries; the gate-attention
//! and policy evaluations are per-query because action spaces vary). The
//! terminal 3D reward weights the accumulated log-probabilities, with a
//! moving-average baseline and an optional entropy bonus.

use mmkgr_embed::TripleScorer;
use mmkgr_kg::{Edge, MultiModalKG, RelationSpace, Triple};
use mmkgr_nn::{clip_grad_norm, Adam, Ctx};
use mmkgr_tensor::init::seeded_rng;
use mmkgr_tensor::{Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::infer::{evaluate_ranking, RankingSummary};
use crate::mdp::{Env, RolloutQuery, RolloutState};
use crate::model::MmkgrModel;
use crate::reward::RewardEngine;

/// Per-epoch training diagnostics (Fig. 9's convergence traces read the
/// `valid_mrr` column).
#[derive(Clone, Debug)]
pub struct EpochStats {
    pub epoch: usize,
    pub mean_reward: f32,
    pub mean_loss: f32,
    pub success_rate: f32,
    pub valid_mrr: Option<f64>,
}

#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    pub epochs: Vec<EpochStats>,
}

/// Tail queries (and head queries via inverse relations) from triples —
/// the standard training-query construction.
pub fn queries_from_triples(
    triples: &[Triple],
    relations: RelationSpace,
    both_directions: bool,
) -> Vec<RolloutQuery> {
    let mut out = Vec::with_capacity(triples.len() * if both_directions { 2 } else { 1 });
    for t in triples {
        out.push(RolloutQuery {
            source: t.s,
            relation: t.r,
            answer: t.o,
        });
        if both_directions {
            out.push(RolloutQuery {
                source: t.o,
                relation: relations.inverse(t.r),
                answer: t.s,
            });
        }
    }
    out
}

/// Shortest demonstration path from `query.source` to `query.answer`
/// within `max_hops`, under the training protocol's edge masking (the
/// direct `(source, r_q, answer)` edge is invisible while standing on the
/// source). Returns the edge sequence, or `None` when the answer is
/// unreachable under these constraints.
///
/// Used by the warm-start phase (see [`Trainer::train`]): at reproduction
/// scale (CPU, 10–50× fewer parameters and epochs than the paper) pure
/// REINFORCE finds the answer in <5% of rollouts and learns from almost
/// no positive signal. Behaviour cloning on BFS demonstrations is the
/// standard remedy in this family — DeepPath (Xiong et al., EMNLP 2017)
/// ships exactly this supervised pre-phase — and it is applied to *all*
/// RL reasoners here (MMKGR and the baseline walkers alike) so relative
/// comparisons stay meaningful. DESIGN.md records the deviation.
pub fn demonstration_path(
    graph: &mmkgr_kg::KnowledgeGraph,
    query: &RolloutQuery,
    max_hops: usize,
) -> Option<Vec<Edge>> {
    use std::collections::VecDeque;
    if query.source == query.answer {
        return Some(Vec::new());
    }
    let n = graph.num_entities();
    // parent[e] = (predecessor entity, edge taken)
    let mut parent: Vec<Option<(u32, Edge)>> = vec![None; n];
    let mut depth = vec![u32::MAX; n];
    depth[query.source.index()] = 0;
    let mut frontier = VecDeque::from([query.source]);
    while let Some(cur) = frontier.pop_front() {
        let d = depth[cur.index()];
        if d as usize >= max_hops {
            continue;
        }
        let masking = cur == query.source;
        for &e in graph.neighbors(cur) {
            if masking && e.relation == query.relation && e.target == query.answer {
                continue;
            }
            if depth[e.target.index()] != u32::MAX {
                continue;
            }
            depth[e.target.index()] = d + 1;
            parent[e.target.index()] = Some((cur.0, e));
            if e.target == query.answer {
                // reconstruct
                let mut path = Vec::with_capacity((d + 1) as usize);
                let mut at = e.target;
                while at != query.source {
                    let (prev, edge) = parent[at.index()].expect("parent chain");
                    path.push(edge);
                    at = mmkgr_kg::EntityId(prev);
                }
                path.reverse();
                return Some(path);
            }
            frontier.push_back(e.target);
        }
    }
    None
}

pub struct Trainer<S: TripleScorer> {
    pub model: MmkgrModel,
    pub engine: RewardEngine<S>,
    opt: Adam,
    baseline: f32,
    rng: StdRng,
}

struct BatchStats {
    loss: f32,
    mean_reward: f32,
    successes: usize,
    queries: usize,
}

impl<S: TripleScorer> Trainer<S> {
    pub fn new(model: MmkgrModel, engine: RewardEngine<S>) -> Self {
        let lr = model.cfg.lr;
        let seed = model.cfg.seed;
        Trainer {
            model,
            engine,
            opt: Adam::new(lr),
            baseline: 0.0,
            rng: seeded_rng(seed ^ 0x5EED),
        }
    }

    /// Behaviour-cloning warm start: `epochs` passes of cross-entropy on
    /// BFS demonstration paths (padded with NO_OP "stay" steps to the
    /// horizon, which also teaches the STOP behaviour). Returns the
    /// number of queries that had a demonstration.
    pub fn warm_start(&mut self, kg: &MultiModalKG, epochs: usize) -> usize {
        let queries = queries_from_triples(&kg.split.train, kg.graph.relations(), true);
        let max_steps = self.model.cfg.max_steps;
        let demos: Vec<(RolloutQuery, Vec<Edge>)> = queries
            .into_iter()
            .filter_map(|q| demonstration_path(&kg.graph, &q, max_steps).map(|p| (q, p)))
            .collect();
        if demos.is_empty() {
            return 0;
        }
        let batch = self.model.cfg.batch_size;
        let mut order: Vec<usize> = (0..demos.len()).collect();
        for _epoch in 0..epochs {
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(batch) {
                let batch_demos: Vec<&(RolloutQuery, Vec<Edge>)> =
                    chunk.iter().map(|&i| &demos[i]).collect();
                self.clone_batch(kg, &batch_demos);
            }
        }
        demos.len()
    }

    /// One behaviour-cloning batch: follow each demonstration, maximizing
    /// the log-probability of its action at every step.
    fn clone_batch(&mut self, kg: &MultiModalKG, batch: &[&(RolloutQuery, Vec<Edge>)]) {
        let cfg = self.model.cfg.clone();
        let env = Env::new(&kg.graph, true);
        let no_op = env.no_op();
        let b = batch.len();
        let tape = Tape::new();
        let mut picked: Vec<Var> = Vec::with_capacity(b * cfg.max_steps);
        let mut states: Vec<RolloutState> = batch
            .iter()
            .map(|(q, _)| RolloutState::new(*q, no_op))
            .collect();
        {
            let ctx = Ctx::new(&tape, self.model.params());
            let src_idx: Vec<usize> = batch.iter().map(|(q, _)| q.source.index()).collect();
            let rq_idx: Vec<usize> = batch.iter().map(|(q, _)| q.relation.index()).collect();
            let es_all = tape.gather_rows(ctx.p(self.model.ent.table), &src_idx);
            let rq_all = tape.gather_rows(ctx.p(self.model.rel.table), &rq_idx);
            let (mut h, mut c) = self.model.history.zero_state(&ctx, b);
            let mut action_buf: Vec<Edge> = Vec::new();
            for step in 0..cfg.max_steps {
                let last_rels: Vec<usize> =
                    states.iter().map(|s| s.last_relation.index()).collect();
                let currents: Vec<usize> = states.iter().map(|s| s.current.index()).collect();
                let r_in = tape.gather_rows(ctx.p(self.model.rel.table), &last_rels);
                let e_in = tape.gather_rows(ctx.p(self.model.ent.table), &currents);
                let x = tape.concat_cols(r_in, e_in);
                let (h2, c2) = self.model.history.forward(&ctx, x, h, c);
                h = h2;
                c = c2;
                for (i, state) in states.iter_mut().enumerate() {
                    let demo = &batch[i].1;
                    let target_edge = demo.get(step).copied().unwrap_or(Edge {
                        relation: no_op,
                        target: state.current,
                    });
                    env.fill_actions(state, &mut action_buf);
                    let chosen = action_buf
                        .iter()
                        .position(|e| *e == target_edge)
                        .expect("demonstration edges exist in the masked action space");
                    let es_i = tape.gather_rows(es_all, &[i]);
                    let rq_i = tape.gather_rows(rq_all, &[i]);
                    let h_i = tape.gather_rows(h, &[i]);
                    let logits = self.model.state_logits(&ctx, es_i, h_i, rq_i, &action_buf);
                    let logp = tape.log_softmax_rows(logits);
                    picked.push(tape.pick_per_row(logp, &[chosen]));
                    state.step(target_edge, no_op);
                }
            }
            let mut loss: Option<Var> = None;
            for &p in &picked {
                let term = tape.neg(p);
                loss = Some(match loss {
                    Some(l) => tape.add(l, term),
                    None => term,
                });
            }
            let loss = tape.scale(loss.expect("non-empty batch"), 1.0 / b as f32);
            let grads = tape.backward(loss);
            ctx.into_leases()
                .accumulate(self.model.params_mut(), &grads);
        }
        clip_grad_norm(self.model.params_mut(), 5.0);
        self.opt.step(self.model.params_mut());
        self.model.params_mut().zero_grads();
    }

    /// Train on the dataset's train split. `valid_sample` (if nonzero)
    /// evaluates MRR on that many sampled validation queries per epoch —
    /// the trace Fig. 9/10 plot.
    ///
    /// When `cfg.warmstart_epochs > 0`, a behaviour-cloning phase on BFS
    /// demonstrations runs first (see [`demonstration_path`]).
    pub fn train(&mut self, kg: &MultiModalKG, valid_sample: usize) -> TrainReport {
        if self.model.cfg.warmstart_epochs > 0 {
            self.warm_start(kg, self.model.cfg.warmstart_epochs);
        }
        let mut queries = queries_from_triples(&kg.split.train, kg.graph.relations(), true);
        // Rollout multiplicity: each query appears k times per epoch so the
        // sampler explores several paths per query.
        let k = self.model.cfg.rollouts_per_query.max(1);
        if k > 1 {
            let base = queries.clone();
            for _ in 1..k {
                queries.extend_from_slice(&base);
            }
        }
        let valid_queries = queries_from_triples(&kg.split.valid, kg.graph.relations(), false);
        let known = kg.all_known();
        let mut report = TrainReport::default();
        let epochs = self.model.cfg.epochs;
        let batch = self.model.cfg.batch_size;
        let mut order: Vec<usize> = (0..queries.len()).collect();

        for epoch in 0..epochs {
            order.shuffle(&mut self.rng);
            let mut loss_acc = 0.0f32;
            let mut reward_acc = 0.0f32;
            let mut success = 0usize;
            let mut count = 0usize;
            for chunk in order.chunks(batch) {
                let batch_queries: Vec<RolloutQuery> = chunk.iter().map(|&i| queries[i]).collect();
                let stats = self.train_batch(kg, &batch_queries);
                loss_acc += stats.loss;
                reward_acc += stats.mean_reward * stats.queries as f32;
                success += stats.successes;
                count += stats.queries;
            }
            let valid_mrr = if valid_sample > 0 && !valid_queries.is_empty() {
                let n = valid_sample.min(valid_queries.len());
                let sample: Vec<RolloutQuery> = valid_queries
                    .choose_multiple(&mut self.rng, n)
                    .copied()
                    .collect();
                let summary: RankingSummary = evaluate_ranking(
                    &self.model,
                    &kg.graph,
                    &sample,
                    &known,
                    self.model.cfg.beam_width,
                    self.model.cfg.max_steps,
                );
                Some(summary.mrr)
            } else {
                None
            };
            report.epochs.push(EpochStats {
                epoch,
                mean_reward: reward_acc / count.max(1) as f32,
                mean_loss: loss_acc / (queries.len().div_ceil(batch)).max(1) as f32,
                success_rate: success as f32 / count.max(1) as f32,
                valid_mrr,
            });
        }
        report
    }

    fn train_batch(&mut self, kg: &MultiModalKG, batch: &[RolloutQuery]) -> BatchStats {
        let cfg = self.model.cfg.clone();
        let env = Env::new(&kg.graph, true);
        let no_op = env.no_op();
        let b = batch.len();

        let tape = Tape::new();
        let mut picked: Vec<(Var, usize)> = Vec::with_capacity(b * cfg.max_steps);
        let mut entropies: Vec<Var> = Vec::new();
        let mut states: Vec<RolloutState> =
            batch.iter().map(|&q| RolloutState::new(q, no_op)).collect();

        let leases = {
            let ctx = Ctx::new(&tape, self.model.params());
            // Per-query constant embeddings (source entity, query relation).
            let src_idx: Vec<usize> = batch.iter().map(|q| q.source.index()).collect();
            let rq_idx: Vec<usize> = batch.iter().map(|q| q.relation.index()).collect();
            let es_all = tape.gather_rows(ctx.p(self.model.ent.table), &src_idx);
            let rq_all = tape.gather_rows(ctx.p(self.model.rel.table), &rq_idx);

            let (mut h, mut c) = self.model.history.zero_state(&ctx, b);
            let mut action_buf: Vec<Edge> = Vec::new();

            for _step in 0..cfg.max_steps {
                // Batched LSTM history update: input [r_{t-1}; e_t].
                let last_rels: Vec<usize> =
                    states.iter().map(|s| s.last_relation.index()).collect();
                let currents: Vec<usize> = states.iter().map(|s| s.current.index()).collect();
                let r_in = tape.gather_rows(ctx.p(self.model.rel.table), &last_rels);
                let e_in = tape.gather_rows(ctx.p(self.model.ent.table), &currents);
                let x = tape.concat_cols(r_in, e_in);
                let (h2, c2) = self.model.history.forward(&ctx, x, h, c);
                h = h2;
                c = c2;

                for (i, state) in states.iter_mut().enumerate() {
                    env.fill_actions(state, &mut action_buf);
                    let es_i = tape.gather_rows(es_all, &[i]);
                    let rq_i = tape.gather_rows(rq_all, &[i]);
                    let h_i = tape.gather_rows(h, &[i]);
                    let logits = self.model.state_logits(&ctx, es_i, h_i, rq_i, &action_buf);
                    let logp = tape.log_softmax_rows(logits);

                    // Sample from the ε-mixed behaviour distribution.
                    // Forced-exploration steps are excluded from the loss:
                    // REINFORCE on an off-policy action with negative
                    // advantage drives its log-probability to −∞ (verified
                    // empirically — the loss diverges within epochs).
                    let forced = cfg.epsilon > 0.0 && self.rng.gen_range(0.0..1.0f32) < cfg.epsilon;
                    let chosen = if forced {
                        self.rng.gen_range(0..action_buf.len())
                    } else {
                        let v = tape.value(logp);
                        sample_categorical(v.row(0), &mut self.rng)
                    };
                    if !forced {
                        let pick = tape.pick_per_row(logp, &[chosen]);
                        picked.push((pick, i));
                    }

                    if cfg.entropy_weight > 0.0 {
                        let p = tape.exp(logp);
                        let plogp = tape.mul(p, logp);
                        entropies.push(tape.neg(tape.sum(plogp)));
                    }

                    state.step(action_buf[chosen], no_op);
                }
            }

            // ---- rewards --------------------------------------------------
            let mut rewards = Vec::with_capacity(b);
            let mut successes = 0usize;
            for state in &states {
                let path_emb = if cfg.reward.diversity {
                    self.model.path_embedding(&state.relation_path(no_op))
                } else {
                    Vec::new()
                };
                let breakdown = self.engine.total(state, &path_emb);
                rewards.push(breakdown.total);
                if state.at_answer() {
                    successes += 1;
                    if cfg.reward.diversity {
                        let emb = self.model.path_embedding(&state.relation_path(no_op));
                        self.engine.remember(state.query.relation, emb);
                    }
                }
            }
            let mean_reward: f32 = rewards.iter().sum::<f32>() / b.max(1) as f32;

            // ---- REINFORCE loss (Eq. 19) ---------------------------------
            let mut loss: Option<Var> = None;
            for &(pick, qi) in &picked {
                let advantage = rewards[qi] - self.baseline;
                let term = tape.scale(pick, -advantage);
                loss = Some(match loss {
                    Some(l) => tape.add(l, term),
                    None => term,
                });
            }
            let mut loss = loss.expect("non-empty batch");
            if cfg.entropy_weight > 0.0 {
                for &e in &entropies {
                    let bonus = tape.scale(e, -cfg.entropy_weight);
                    loss = tape.add(loss, bonus);
                }
            }
            loss = tape.scale(loss, 1.0 / b as f32);

            let loss_value = tape.scalar(loss);
            let grads = tape.backward(loss);
            let leases = ctx.into_leases();
            leases.accumulate(self.model.params_mut(), &grads);

            // moving-average baseline update
            let d = cfg.baseline_decay;
            self.baseline = d * self.baseline + (1.0 - d) * mean_reward;

            (leases, loss_value, mean_reward, successes)
        };
        let (_, loss_value, mean_reward, successes) = leases;

        clip_grad_norm(self.model.params_mut(), 5.0);
        self.opt.step(self.model.params_mut());
        self.model.params_mut().zero_grads();

        BatchStats {
            loss: loss_value,
            mean_reward,
            successes,
            queries: b,
        }
    }
}

/// Sample an index from a log-probability row.
fn sample_categorical(logp: &[f32], rng: &mut StdRng) -> usize {
    let u: f32 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0f32;
    for (i, &lp) in logp.iter().enumerate() {
        acc += lp.exp();
        if u < acc {
            return i;
        }
    }
    logp.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MmkgrConfig, Variant};
    use crate::model::MmkgrModel;
    use crate::reward::{NoShaper, RewardEngine};
    use mmkgr_datagen::{generate, GenConfig};

    fn quick_trainer(variant: Variant) -> (mmkgr_kg::MultiModalKG, Trainer<NoShaper>) {
        let kg = generate(&GenConfig::tiny());
        let mut cfg = MmkgrConfig::quick().variant(variant);
        cfg.epochs = 2;
        cfg.batch_size = 16;
        let engine = RewardEngine::new(&cfg, Some(NoShaper));
        let model = MmkgrModel::new(&kg, cfg, None);
        (kg, Trainer::new(model, engine))
    }

    #[test]
    fn queries_double_with_inverses() {
        let triples = vec![Triple::new(0, 0, 1), Triple::new(1, 1, 2)];
        let rs = RelationSpace::new(2);
        let q1 = queries_from_triples(&triples, rs, false);
        assert_eq!(q1.len(), 2);
        let q2 = queries_from_triples(&triples, rs, true);
        assert_eq!(q2.len(), 4);
        // inverse query walks backwards
        assert_eq!(q2[1].source, mmkgr_kg::EntityId(1));
        assert_eq!(q2[1].relation, rs.inverse(mmkgr_kg::RelationId(0)));
        assert_eq!(q2[1].answer, mmkgr_kg::EntityId(0));
    }

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = seeded_rng(0);
        // ~one-hot distribution: index 2 has p ≈ 1
        let logp = [(-30.0f32), -30.0, -0.0001, -30.0];
        for _ in 0..50 {
            assert_eq!(sample_categorical(&logp, &mut rng), 2);
        }
    }

    #[test]
    fn training_runs_and_reports() {
        let (kg, mut trainer) = quick_trainer(Variant::Full);
        let report = trainer.train(&kg, 0);
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert!(e.mean_loss.is_finite());
            assert!(e.mean_reward.is_finite());
            assert!((0.0..=1.0).contains(&e.success_rate));
        }
    }

    #[test]
    fn training_improves_reward_on_tiny_graph() {
        let kg = generate(&GenConfig::tiny());
        let mut cfg = MmkgrConfig::quick();
        cfg.epochs = 8;
        cfg.batch_size = 32;
        let engine = RewardEngine::new(&cfg, Some(NoShaper));
        let model = MmkgrModel::new(&kg, cfg, None);
        let mut trainer = Trainer::new(model, engine);
        let report = trainer.train(&kg, 0);
        let first = report.epochs.first().unwrap().mean_reward;
        let last = report.epochs.last().unwrap().mean_reward;
        assert!(last.is_finite() && first.is_finite());
        assert!(
            last > first - 0.15,
            "reward should not collapse: first {first}, last {last}"
        );
    }

    #[test]
    fn structure_only_variant_trains() {
        let (kg, mut trainer) = quick_trainer(Variant::Oskgr);
        let report = trainer.train(&kg, 0);
        assert!(report.epochs.iter().all(|e| e.mean_loss.is_finite()));
    }

    #[test]
    fn valid_mrr_traced_when_requested() {
        let (kg, mut trainer) = quick_trainer(Variant::Full);
        let report = trainer.train(&kg, 10);
        assert!(report.epochs.iter().all(|e| e.valid_mrr.is_some()));
        let mrr = report.epochs[0].valid_mrr.unwrap();
        assert!((0.0..=1.0).contains(&mrr));
    }

    #[test]
    fn demonstration_path_respects_masking() {
        use mmkgr_kg::{EntityId, KnowledgeGraph, RelationId};
        // 0 -r0-> 1 (the gold edge, masked), 0 -r1-> 2 -r0-> 1 (detour)
        let g = KnowledgeGraph::from_triples(
            3,
            2,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(0, 1, 2),
                Triple::new(2, 0, 1),
            ],
            None,
        );
        let q = RolloutQuery {
            source: EntityId(0),
            relation: RelationId(0),
            answer: EntityId(1),
        };
        let path = demonstration_path(&g, &q, 4).expect("detour exists");
        assert_eq!(
            path.len(),
            2,
            "must take the 2-hop detour, not the gold edge"
        );
        assert_eq!(path[0].target, EntityId(2));
        assert_eq!(path[1].target, EntityId(1));
        // With a 1-hop budget the masked gold edge is the only route: None.
        assert!(demonstration_path(&g, &q, 1).is_none());
    }

    #[test]
    fn demonstration_path_trivial_and_unreachable_cases() {
        use mmkgr_kg::{EntityId, KnowledgeGraph, RelationId};
        let g = KnowledgeGraph::from_triples(4, 1, vec![Triple::new(0, 0, 1)], None);
        let same = RolloutQuery {
            source: EntityId(2),
            relation: RelationId(0),
            answer: EntityId(2),
        };
        assert_eq!(demonstration_path(&g, &same, 4), Some(Vec::new()));
        let unreachable = RolloutQuery {
            source: EntityId(2),
            relation: RelationId(0),
            answer: EntityId(3),
        };
        assert!(demonstration_path(&g, &unreachable, 4).is_none());
    }

    #[test]
    fn warm_start_raises_training_success_rate() {
        let kg = generate(&GenConfig::tiny());
        let run = |warm: usize| {
            let mut cfg = MmkgrConfig::quick();
            cfg.epochs = 2;
            cfg.batch_size = 32;
            cfg.warmstart_epochs = warm;
            let engine = RewardEngine::new(&cfg, Some(NoShaper));
            let model = MmkgrModel::new(&kg, cfg, None);
            let mut trainer = Trainer::new(model, engine);
            let report = trainer.train(&kg, 0);
            report.epochs[0].success_rate
        };
        let cold = run(0);
        let warm = run(10);
        assert!(
            warm > cold,
            "behaviour cloning should raise first-epoch success: cold {cold}, warm {warm}"
        );
    }

    #[test]
    fn warm_start_counts_demonstrations() {
        let (kg, mut trainer) = quick_trainer(Variant::Full);
        let n = trainer.warm_start(&kg, 1);
        // Most training queries have a demonstration within T=4 hops on
        // the rule-planted tiny graph.
        let total = kg.split.train.len() * 2;
        assert!(n > total / 2, "{n} of {total} queries had demos");
    }
}
