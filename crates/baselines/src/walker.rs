//! The unified RL-walker baseline: MINERVA, RLH and FIRE share one
//! skeleton (LSTM history + MLP policy over `[e_t; h_t; r_q]`, REINFORCE
//! with the 0/1 terminal reward) and differ in one mechanism each:
//!
//! - **MINERVA** (Das et al., ICLR 2018): the plain walker.
//! - **RLH** (Wan et al., IJCAI 2020): hierarchical decisions — a
//!   high-level policy picks a relation *cluster*, a low-level policy
//!   picks the edge within it. We cluster relations by embedding k-means
//!   (the original clusters sub-relation semantics with a hierarchical
//!   policy; the two-level decision structure is what matters for the
//!   comparison and is preserved).
//! - **FIRE** (Zhang et al., EMNLP 2020): prunes the action space with an
//!   embedding-consistency heuristic (a frozen TransE scores each
//!   candidate against the query; only the top-K stay). FIRE's few-shot
//!   meta-learning apparatus is out of scope — the pruned-walk behaviour
//!   is what the paper's tables exercise.

use mmkgr_core::infer::RolloutPolicy;
use mmkgr_core::mdp::{Env, RolloutQuery, RolloutState};
use mmkgr_embed::{TransE, TripleScorer};
use mmkgr_kg::{Edge, EntityId, MultiModalKG, RelationId};
use mmkgr_nn::{clip_grad_norm, Adam, Ctx, Embedding, Linear, LstmCell, Params};
use mmkgr_tensor::init::seeded_rng;
use mmkgr_tensor::{softmax_slice, Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Which baseline behaviour the walker exhibits.
pub enum WalkerKind {
    Minerva,
    /// Relation-cluster hierarchy: `cluster_of[rel] = cluster id`.
    Rlh {
        cluster_of: Vec<u32>,
        num_clusters: usize,
    },
    /// Keep only the `keep` most TransE-consistent actions.
    Fire {
        transe: TransE,
        keep: usize,
    },
}

impl WalkerKind {
    pub fn name(&self) -> &'static str {
        match self {
            WalkerKind::Minerva => "MINERVA",
            WalkerKind::Rlh { .. } => "RLH",
            WalkerKind::Fire { .. } => "FIRE",
        }
    }
}

#[derive(Clone, Debug)]
pub struct WalkerConfig {
    pub struct_dim: usize,
    pub hidden: usize,
    pub max_steps: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub entropy_weight: f32,
    pub epsilon: f32,
    pub baseline_decay: f32,
    pub rollouts_per_query: usize,
    pub beam_width: usize,
    /// Behaviour-cloning epochs on BFS demonstrations before REINFORCE —
    /// the reproduction-scale protocol shared with MMKGR so comparisons
    /// stay apples-to-apples (DESIGN.md deviation list).
    pub warmstart_epochs: usize,
    pub seed: u64,
}

impl Default for WalkerConfig {
    fn default() -> Self {
        WalkerConfig {
            struct_dim: 32,
            hidden: 64,
            max_steps: 4,
            epochs: 30,
            batch_size: 128,
            lr: 1e-3,
            entropy_weight: 0.02,
            epsilon: 0.0,
            baseline_decay: 0.95,
            rollouts_per_query: 2,
            beam_width: 16,
            warmstart_epochs: 0,
            seed: 11,
        }
    }
}

pub struct RlWalker {
    pub kind: WalkerKind,
    pub cfg: WalkerConfig,
    pub params: Params,
    pub ent: Embedding,
    pub rel: Embedding,
    lstm: LstmCell,
    l1: Linear,
    l2: Linear,
    /// RLH only: cluster embedding table + high-level head.
    cluster_emb: Option<Embedding>,
    hi_head: Option<Linear>,
    baseline: f32,
}

impl RlWalker {
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        kind: WalkerKind,
        cfg: WalkerConfig,
    ) -> Self {
        let mut params = Params::new();
        let mut rng = seeded_rng(cfg.seed);
        let ds = cfg.struct_dim;
        let ent = Embedding::new(&mut params, &mut rng, "walker.ent", num_entities, ds);
        let rel = Embedding::new(&mut params, &mut rng, "walker.rel", num_relations, ds);
        let lstm = LstmCell::new(&mut params, &mut rng, "walker.lstm", 2 * ds, ds);
        let l1 = Linear::new(&mut params, &mut rng, "walker.l1", 3 * ds, cfg.hidden, true);
        let l2 = Linear::new(&mut params, &mut rng, "walker.l2", cfg.hidden, 2 * ds, true);
        let (cluster_emb, hi_head) = match &kind {
            WalkerKind::Rlh { num_clusters, .. } => {
                let ce = Embedding::new(&mut params, &mut rng, "walker.cluster", *num_clusters, ds);
                let hh = Linear::new(&mut params, &mut rng, "walker.hi", cfg.hidden, ds, true);
                (Some(ce), Some(hh))
            }
            _ => (None, None),
        };
        RlWalker {
            kind,
            cfg,
            params,
            ent,
            rel,
            lstm,
            l1,
            l2,
            cluster_emb,
            hi_head,
            baseline: 0.0,
        }
    }

    /// k-means relation clustering for RLH from a (TransE-initialized)
    /// relation table.
    pub fn cluster_relations(table: &Matrix, k: usize, seed: u64) -> Vec<u32> {
        let n = table.rows();
        let k = k.min(n.max(1));
        let mut rng = seeded_rng(seed);
        let mut centroids: Vec<Vec<f32>> = (0..k)
            .map(|_| table.row(rng.gen_range(0..n)).to_vec())
            .collect();
        let mut assign = vec![0u32; n];
        for _iter in 0..10 {
            for (i, slot) in assign.iter_mut().enumerate() {
                let row = table.row(i);
                let mut best = 0usize;
                let mut best_d = f32::MAX;
                for (c, cen) in centroids.iter().enumerate() {
                    let d: f32 = row.iter().zip(cen).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                *slot = best as u32;
            }
            // recompute centroids
            for (c, cen) in centroids.iter_mut().enumerate() {
                let members: Vec<usize> = (0..n).filter(|&i| assign[i] == c as u32).collect();
                if members.is_empty() {
                    continue;
                }
                cen.iter_mut().for_each(|v| *v = 0.0);
                for &m in &members {
                    for (acc, &v) in cen.iter_mut().zip(table.row(m)) {
                        *acc += v;
                    }
                }
                let inv = 1.0 / members.len() as f32;
                cen.iter_mut().for_each(|v| *v *= inv);
            }
        }
        assign
    }

    /// FIRE's action pruning: indices of the `keep` most consistent
    /// actions under the frozen TransE (always keeps index 0 = NO_OP).
    fn pruned_actions(&self, q: &RolloutQuery, actions: &[Edge]) -> Vec<usize> {
        let WalkerKind::Fire { transe, keep } = &self.kind else {
            return (0..actions.len()).collect();
        };
        if actions.len() <= *keep {
            return (0..actions.len()).collect();
        }
        let mut scored: Vec<(f32, usize)> = actions
            .iter()
            .enumerate()
            .skip(1) // NO_OP survives unconditionally
            .map(|(i, a)| (transe.score(q.source, q.relation, a.target), i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut kept: Vec<usize> = vec![0];
        kept.extend(scored.iter().take(keep.saturating_sub(1)).map(|&(_, i)| i));
        kept.sort_unstable();
        kept
    }

    /// Tape forward: log-probabilities (`1×m`) over `actions`.
    fn state_logp(
        &self,
        ctx: &Ctx<'_>,
        q: &RolloutQuery,
        h_i: Var,
        actions: &[Edge],
    ) -> (Var, Vec<usize>) {
        let t = ctx.tape;
        let keep = self.pruned_actions(q, actions);
        let e_cur = t.gather_rows(ctx.p(self.ent.table), &[q.source.index()]);
        let rq = t.gather_rows(ctx.p(self.rel.table), &[q.relation.index()]);
        let state = t.concat_cols(t.concat_cols(e_cur, h_i), rq); // 1×3ds
        let hid = t.relu(self.l1.forward(ctx, state)); // 1×hidden
        let w = self.l2.forward(ctx, hid); // 1×2ds

        let r_idx: Vec<usize> = keep.iter().map(|&i| actions[i].relation.index()).collect();
        let e_idx: Vec<usize> = keep.iter().map(|&i| actions[i].target.index()).collect();
        let r = t.gather_rows(ctx.p(self.rel.table), &r_idx);
        let e = t.gather_rows(ctx.p(self.ent.table), &e_idx);
        let at = t.concat_cols(r, e); // m×2ds
        let mut scores = t.transpose(t.matmul(at, t.transpose(w))); // 1×m

        // RLH: add the high-level cluster scores to each action's logit —
        // log π(a) = log π_hi(cluster(a)) + log π_lo(a | cluster), which
        // for score-based softmaxes is an additive decomposition.
        if let (WalkerKind::Rlh { cluster_of, .. }, Some(ce), Some(hh)) =
            (&self.kind, &self.cluster_emb, &self.hi_head)
        {
            let wc = hh.forward(ctx, hid); // 1×ds
            let c_idx: Vec<usize> = keep
                .iter()
                .map(|&i| cluster_of[actions[i].relation.index()] as usize)
                .collect();
            let cmat = t.gather_rows(ctx.p(ce.table), &c_idx); // m×ds
            let hi_scores = t.transpose(t.matmul(cmat, t.transpose(wc))); // 1×m
            scores = t.add(scores, hi_scores);
        }
        (t.log_softmax_rows(scores), keep)
    }

    /// Behaviour-cloning warm start on BFS demonstrations (same protocol
    /// as `mmkgr-core`'s Trainer). FIRE note: when its pruning drops the
    /// demonstrated action, the step contributes no loss but the rollout
    /// still follows the demonstration.
    pub fn warm_start(&mut self, kg: &MultiModalKG, epochs: usize, opt: &mut Adam) -> usize {
        let queries =
            mmkgr_core::rollout::queries_from_triples(&kg.split.train, kg.graph.relations(), true);
        let max_steps = self.cfg.max_steps;
        let demos: Vec<(RolloutQuery, Vec<Edge>)> = queries
            .into_iter()
            .filter_map(|q| {
                mmkgr_core::rollout::demonstration_path(&kg.graph, &q, max_steps).map(|p| (q, p))
            })
            .collect();
        if demos.is_empty() {
            return 0;
        }
        let mut rng = seeded_rng(self.cfg.seed ^ 0xDE40);
        let mut order: Vec<usize> = (0..demos.len()).collect();
        for _epoch in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch_size) {
                let batch: Vec<&(RolloutQuery, Vec<Edge>)> =
                    chunk.iter().map(|&i| &demos[i]).collect();
                self.clone_batch(kg, &batch, opt);
            }
        }
        demos.len()
    }

    fn clone_batch(
        &mut self,
        kg: &MultiModalKG,
        batch: &[&(RolloutQuery, Vec<Edge>)],
        opt: &mut Adam,
    ) {
        let env = Env::new(&kg.graph, true);
        let no_op = env.no_op();
        let b = batch.len();
        let tape = Tape::new();
        let mut picked: Vec<Var> = Vec::new();
        let mut states: Vec<RolloutState> = batch
            .iter()
            .map(|(q, _)| RolloutState::new(*q, no_op))
            .collect();
        {
            let ctx = Ctx::new(&tape, &self.params);
            let (mut h, mut c) = self.lstm.zero_state(&ctx, b);
            let mut action_buf: Vec<Edge> = Vec::new();
            for step in 0..self.cfg.max_steps {
                let last_rels: Vec<usize> =
                    states.iter().map(|s| s.last_relation.index()).collect();
                let currents: Vec<usize> = states.iter().map(|s| s.current.index()).collect();
                let r_in = tape.gather_rows(ctx.p(self.rel.table), &last_rels);
                let e_in = tape.gather_rows(ctx.p(self.ent.table), &currents);
                let x = tape.concat_cols(r_in, e_in);
                let (h2, c2) = self.lstm.forward(&ctx, x, h, c);
                h = h2;
                c = c2;
                for (i, state) in states.iter_mut().enumerate() {
                    let demo = &batch[i].1;
                    let target_edge = demo.get(step).copied().unwrap_or(Edge {
                        relation: no_op,
                        target: state.current,
                    });
                    env.fill_actions(state, &mut action_buf);
                    let h_i = tape.gather_rows(h, &[i]);
                    let (logp, keep) = self.state_logp(&ctx, &state.query, h_i, &action_buf);
                    let demo_idx = action_buf
                        .iter()
                        .position(|e| *e == target_edge)
                        .expect("demonstration edges exist in the masked action space");
                    if let Some(slot) = keep.iter().position(|&k| k == demo_idx) {
                        picked.push(tape.pick_per_row(logp, &[slot]));
                    }
                    state.step(target_edge, no_op);
                }
            }
            if picked.is_empty() {
                return;
            }
            let mut loss: Option<Var> = None;
            for &p in &picked {
                let term = tape.neg(p);
                loss = Some(match loss {
                    Some(l) => tape.add(l, term),
                    None => term,
                });
            }
            let loss = tape.scale(loss.expect("non-empty picks"), 1.0 / b as f32);
            let grads = tape.backward(loss);
            ctx.into_leases().accumulate(&mut self.params, &grads);
        }
        clip_grad_norm(&mut self.params, 5.0);
        opt.step(&mut self.params);
        self.params.zero_grads();
    }

    /// REINFORCE training with the 0/1 terminal reward (the baseline
    /// methods' reward; no shaping, no distance, no diversity).
    ///
    /// Runs the shared warm-start phase first when
    /// `cfg.warmstart_epochs > 0`.
    pub fn train(&mut self, kg: &MultiModalKG) -> Vec<f32> {
        let mut queries =
            mmkgr_core::rollout::queries_from_triples(&kg.split.train, kg.graph.relations(), true);
        let mult = self.cfg.rollouts_per_query.max(1);
        if mult > 1 {
            let base = queries.clone();
            for _ in 1..mult {
                queries.extend_from_slice(&base);
            }
        }
        let mut rng = seeded_rng(self.cfg.seed ^ 0xABCD);
        let mut opt = Adam::new(self.cfg.lr);
        if self.cfg.warmstart_epochs > 0 {
            self.warm_start(kg, self.cfg.warmstart_epochs, &mut opt);
        }
        let mut rewards_trace = Vec::with_capacity(self.cfg.epochs);
        let mut order: Vec<usize> = (0..queries.len()).collect();
        for _epoch in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_reward = 0.0f32;
            let mut count = 0usize;
            let batches: Vec<Vec<usize>> = order
                .chunks(self.cfg.batch_size)
                .map(|c| c.to_vec())
                .collect();
            for chunk in batches {
                let batch: Vec<RolloutQuery> = chunk.iter().map(|&i| queries[i]).collect();
                let r = self.train_batch(kg, &batch, &mut opt, &mut rng);
                epoch_reward += r * batch.len() as f32;
                count += batch.len();
            }
            rewards_trace.push(epoch_reward / count.max(1) as f32);
        }
        rewards_trace
    }

    fn train_batch(
        &mut self,
        kg: &MultiModalKG,
        batch: &[RolloutQuery],
        opt: &mut Adam,
        rng: &mut StdRng,
    ) -> f32 {
        let env = Env::new(&kg.graph, true);
        let no_op = env.no_op();
        let b = batch.len();
        let tape = Tape::new();
        let mut states: Vec<RolloutState> =
            batch.iter().map(|&q| RolloutState::new(q, no_op)).collect();
        let mut picked: Vec<(Var, usize)> = Vec::with_capacity(b * self.cfg.max_steps);
        let mut entropies: Vec<Var> = Vec::new();

        let (mean_reward, loss_done) = {
            let ctx = Ctx::new(&tape, &self.params);
            let (mut h, mut c) = self.lstm.zero_state(&ctx, b);
            let mut action_buf: Vec<Edge> = Vec::new();
            for _step in 0..self.cfg.max_steps {
                let last_rels: Vec<usize> =
                    states.iter().map(|s| s.last_relation.index()).collect();
                let currents: Vec<usize> = states.iter().map(|s| s.current.index()).collect();
                let r_in = tape.gather_rows(ctx.p(self.rel.table), &last_rels);
                let e_in = tape.gather_rows(ctx.p(self.ent.table), &currents);
                let x = tape.concat_cols(r_in, e_in);
                let (h2, c2) = self.lstm.forward(&ctx, x, h, c);
                h = h2;
                c = c2;
                for (i, state) in states.iter_mut().enumerate() {
                    env.fill_actions(state, &mut action_buf);
                    let h_i = tape.gather_rows(h, &[i]);
                    let (logp, keep) = self.state_logp(&ctx, &state.query, h_i, &action_buf);
                    // Forced-exploration steps carry no gradient (see
                    // mmkgr-core::rollout for why off-policy REINFORCE
                    // terms diverge).
                    let forced =
                        self.cfg.epsilon > 0.0 && rng.gen_range(0.0..1.0f32) < self.cfg.epsilon;
                    let chosen = if forced {
                        rng.gen_range(0..keep.len())
                    } else {
                        let v = tape.value(logp);
                        sample_categorical(v.row(0), rng)
                    };
                    if !forced {
                        picked.push((tape.pick_per_row(logp, &[chosen]), i));
                    }
                    if self.cfg.entropy_weight > 0.0 {
                        let p = tape.exp(logp);
                        let plogp = tape.mul(p, logp);
                        entropies.push(tape.neg(tape.sum(plogp)));
                    }
                    state.step(action_buf[keep[chosen]], no_op);
                }
            }
            // 0/1 terminal reward
            let rewards: Vec<f32> = states
                .iter()
                .map(|s| if s.at_answer() { 1.0 } else { 0.0 })
                .collect();
            let mean_reward: f32 = rewards.iter().sum::<f32>() / b.max(1) as f32;
            let mut loss: Option<Var> = None;
            for &(pick, qi) in &picked {
                let term = tape.scale(pick, -(rewards[qi] - self.baseline));
                loss = Some(match loss {
                    Some(l) => tape.add(l, term),
                    None => term,
                });
            }
            let mut loss = loss.expect("non-empty batch");
            for &e in &entropies {
                loss = tape.add(loss, tape.scale(e, -self.cfg.entropy_weight));
            }
            loss = tape.scale(loss, 1.0 / b as f32);
            let grads = tape.backward(loss);
            ctx.into_leases().accumulate(&mut self.params, &grads);
            let d = self.cfg.baseline_decay;
            self.baseline = d * self.baseline + (1.0 - d) * mean_reward;
            (mean_reward, true)
        };
        debug_assert!(loss_done);
        clip_grad_norm(&mut self.params, 5.0);
        opt.step(&mut self.params);
        self.params.zero_grads();
        mean_reward
    }
}

impl RolloutPolicy for RlWalker {
    fn hidden_dim(&self) -> usize {
        self.cfg.struct_dim
    }

    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        let mut x = Vec::with_capacity(2 * self.cfg.struct_dim);
        x.extend_from_slice(self.rel.row(&self.params, last_rel.index()));
        x.extend_from_slice(self.ent.row(&self.params, current.index()));
        x
    }

    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        let ds = self.cfg.struct_dim;
        let wx = self.params.value(self.lstm.wx);
        let wh = self.params.value(self.lstm.wh);
        let bias = self.params.value(self.lstm.b);
        let mut gates = bias.row(0).to_vec();
        for (i, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            for (g, &w) in gates.iter_mut().zip(wx.row(i)) {
                *g += xv * w;
            }
        }
        for (i, &hv) in h.iter().enumerate() {
            if hv == 0.0 {
                continue;
            }
            for (g, &w) in gates.iter_mut().zip(wh.row(i)) {
                *g += hv * w;
            }
        }
        for k in 0..ds {
            let i_g = sigmoid(gates[k]);
            let f_g = sigmoid(gates[ds + k]);
            let g_g = gates[2 * ds + k].tanh();
            let o_g = sigmoid(gates[3 * ds + k]);
            c[k] = f_g * c[k] + i_g * g_g;
            h[k] = o_g * c[k].tanh();
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
        // state = [e_src; h; r_q] → hidden → w; score_i = A_i · w (+ RLH hi)
        let q = RolloutQuery {
            source,
            relation: rq,
            answer: source,
        };
        let keep = self.pruned_actions(&q, actions);
        let ds = self.cfg.struct_dim;
        let e_cur = self.ent.row(&self.params, source.index());
        let rq_e = self.rel.row(&self.params, rq.index());
        let mut state = Vec::with_capacity(3 * ds);
        state.extend_from_slice(e_cur);
        state.extend_from_slice(h);
        state.extend_from_slice(rq_e);
        let sm = Matrix::row_vector(&state);
        let mut hid = sm.matmul(self.params.value(self.l1.w));
        if let Some(b) = self.l1.b {
            for (v, &bv) in hid.row_mut(0).iter_mut().zip(self.params.value(b).row(0)) {
                *v += bv;
            }
        }
        hid.map_inplace(|v| v.max(0.0));
        let mut w = hid.matmul(self.params.value(self.l2.w));
        if let Some(b) = self.l2.b {
            for (v, &bv) in w.row_mut(0).iter_mut().zip(self.params.value(b).row(0)) {
                *v += bv;
            }
        }
        let w = w.row(0);
        let rel_t = self.params.value(self.rel.table);
        let ent_t = self.params.value(self.ent.table);

        // Optional RLH high-level scores.
        let hi: Option<(Vec<f32>, &Vec<u32>)> = match (&self.kind, &self.cluster_emb, &self.hi_head)
        {
            (WalkerKind::Rlh { cluster_of, .. }, Some(ce), Some(hh)) => {
                let mut wc = hid.matmul(self.params.value(hh.w));
                if let Some(b) = hh.b {
                    for (v, &bv) in wc.row_mut(0).iter_mut().zip(self.params.value(b).row(0)) {
                        *v += bv;
                    }
                }
                let table = self.params.value(ce.table);
                let scores: Vec<f32> = (0..table.rows())
                    .map(|ci| {
                        table
                            .row(ci)
                            .iter()
                            .zip(wc.row(0))
                            .map(|(a, b)| a * b)
                            .sum()
                    })
                    .collect();
                Some((scores, cluster_of))
            }
            _ => None,
        };

        let mut kept_scores: Vec<f32> = Vec::with_capacity(keep.len());
        for &i in &keep {
            let a = &actions[i];
            let r_emb = rel_t.row(a.relation.index());
            let e_emb = ent_t.row(a.target.index());
            let mut s = 0.0f32;
            for k in 0..ds {
                s += w[k] * r_emb[k] + w[ds + k] * e_emb[k];
            }
            if let Some((hi_scores, cluster_of)) = &hi {
                s += hi_scores[cluster_of[a.relation.index()] as usize];
            }
            kept_scores.push(s);
        }
        softmax_slice(&mut kept_scores);
        out.clear();
        out.resize(actions.len(), 0.0);
        for (slot, &i) in keep.iter().enumerate() {
            out[i] = kept_scores[slot];
        }
    }
}

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

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmkgr_core::infer::{evaluate_ranking, RolloutPolicy};
    use mmkgr_datagen::{generate, GenConfig};

    fn quick_cfg() -> WalkerConfig {
        WalkerConfig {
            epochs: 2,
            batch_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn minerva_trains_and_evaluates() {
        let kg = generate(&GenConfig::tiny());
        let mut w = RlWalker::new(
            kg.num_entities(),
            kg.graph.relations().total(),
            WalkerKind::Minerva,
            quick_cfg(),
        );
        let trace = w.train(&kg);
        assert_eq!(trace.len(), 2);
        let queries =
            mmkgr_core::rollout::queries_from_triples(&kg.split.test, kg.graph.relations(), false);
        let known = kg.all_known();
        let s = evaluate_ranking(
            &w,
            &kg.graph,
            &queries[..8.min(queries.len())],
            &known,
            8,
            4,
        );
        assert!((0.0..=1.0).contains(&s.mrr));
    }

    #[test]
    fn rlh_cluster_assignment_covers_all_relations() {
        let kg = generate(&GenConfig::tiny());
        let r_total = kg.graph.relations().total();
        let table = mmkgr_tensor::init::xavier(&mut seeded_rng(0), r_total, 8);
        let clusters = RlWalker::cluster_relations(&table, 4, 1);
        assert_eq!(clusters.len(), r_total);
        assert!(clusters.iter().all(|&c| c < 4));
    }

    #[test]
    fn rlh_walker_probs_are_distribution() {
        let kg = generate(&GenConfig::tiny());
        let r_total = kg.graph.relations().total();
        let table = mmkgr_tensor::init::xavier(&mut seeded_rng(0), r_total, 32);
        let cluster_of = RlWalker::cluster_relations(&table, 4, 2);
        let w = RlWalker::new(
            kg.num_entities(),
            r_total,
            WalkerKind::Rlh {
                cluster_of,
                num_clusters: 4,
            },
            quick_cfg(),
        );
        let mut actions = vec![Edge {
            relation: kg.graph.relations().no_op(),
            target: EntityId(0),
        }];
        actions.extend_from_slice(kg.graph.neighbors(EntityId(0)));
        let h = vec![0.0f32; w.hidden_dim()];
        let mut probs = Vec::new();
        w.action_probs(EntityId(0), &h, RelationId(0), &actions, &mut probs);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
    }

    #[test]
    fn fire_pruning_keeps_no_op_and_caps_actions() {
        let kg = generate(&GenConfig::tiny());
        let r_total = kg.graph.relations().total();
        let transe = TransE::new(kg.num_entities(), r_total, 16, 0);
        let w = RlWalker::new(
            kg.num_entities(),
            r_total,
            WalkerKind::Fire { transe, keep: 3 },
            quick_cfg(),
        );
        // find a busy entity
        let busy = (0..kg.num_entities() as u32)
            .max_by_key(|&e| kg.graph.out_degree(EntityId(e)))
            .unwrap();
        let mut actions = vec![Edge {
            relation: kg.graph.relations().no_op(),
            target: EntityId(busy),
        }];
        actions.extend_from_slice(kg.graph.neighbors(EntityId(busy)));
        let q = RolloutQuery {
            source: EntityId(busy),
            relation: RelationId(0),
            answer: EntityId(busy),
        };
        let kept = w.pruned_actions(&q, &actions);
        assert!(kept.len() <= 3);
        assert_eq!(kept[0], 0, "NO_OP survives pruning");
        // pruned actions get zero probability
        let h = vec![0.0f32; w.hidden_dim()];
        let mut probs = Vec::new();
        w.action_probs(EntityId(busy), &h, RelationId(0), &actions, &mut probs);
        let nonzero = probs.iter().filter(|&&p| p > 0.0).count();
        assert!(nonzero <= 3);
    }

    #[test]
    fn warm_start_raises_first_epoch_reward() {
        let kg = generate(&GenConfig::tiny());
        let run = |warm: usize| {
            let mut cfg = quick_cfg();
            cfg.warmstart_epochs = warm;
            let mut w = RlWalker::new(
                kg.num_entities(),
                kg.graph.relations().total(),
                WalkerKind::Minerva,
                cfg,
            );
            w.train(&kg)[0]
        };
        let cold = run(0);
        let warm = run(4);
        assert!(
            warm > cold,
            "cloning should raise first-epoch reward: cold {cold}, warm {warm}"
        );
    }

    #[test]
    fn fire_warm_start_survives_pruned_demos() {
        // FIRE may prune the demonstrated action out of the kept set; the
        // warm start must skip those steps without panicking.
        let kg = generate(&GenConfig::tiny());
        let transe = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0);
        let mut cfg = quick_cfg();
        cfg.warmstart_epochs = 2;
        let mut w = RlWalker::new(
            kg.num_entities(),
            kg.graph.relations().total(),
            WalkerKind::Fire { transe, keep: 2 },
            cfg,
        );
        let trace = w.train(&kg);
        assert!(trace.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn training_reward_trace_is_finite() {
        let kg = generate(&GenConfig::tiny());
        let mut w = RlWalker::new(
            kg.num_entities(),
            kg.graph.relations().total(),
            WalkerKind::Minerva,
            quick_cfg(),
        );
        let trace = w.train(&kg);
        assert!(trace
            .iter()
            .all(|r| r.is_finite() && (0.0..=1.0).contains(r)));
    }
}
