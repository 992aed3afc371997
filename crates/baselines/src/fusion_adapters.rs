//! Naive multi-modal fusion adapters (paper Table VII).
//!
//! The paper's Table VII bolts the two fusion strategies of prior
//! *single-hop* MKG methods — feature **Concatenation** (MTRL-style) and
//! conventional **Attention** — onto existing multi-hop reasoners, and
//! shows that both *hurt*: the un-gated modal features inject noise that
//! the sparse-reward RL signal cannot learn around.
//!
//! [`FusedWalker`] is a MINERVA-style walker whose entity representations
//! are augmented with projected modal features:
//!
//! - `Concat`: `e' = [e_emb ; P_t·f_t ; P_i·f_i]`
//! - `Attention`: `e' = [e_emb ; α_t·(P_t·f_t) + α_i·(P_i·f_i)]` with a
//!   learned global mixture `α = softmax(w)` (the "conventional attention"
//!   of the single-hop literature, which cannot gate per-feature noise).
//!
//! The projections `P` are fixed random maps of the raw features, exactly
//! like the frozen VGG/word2vec features prior work concatenates.

use mmkgr_core::infer::RolloutPolicy;
use mmkgr_core::mdp::{Env, RolloutQuery, RolloutState};
use mmkgr_kg::{Edge, EntityId, MultiModalKG, RelationId};
use mmkgr_nn::{clip_grad_norm, Adam, Ctx, Embedding, Linear, LstmCell, ParamId, Params};
use mmkgr_tensor::init::{normal, seeded_rng};
use mmkgr_tensor::{softmax_slice, Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::walker::WalkerConfig;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NaiveFusion {
    Concatenation,
    Attention,
}

impl NaiveFusion {
    pub fn name(&self) -> &'static str {
        match self {
            NaiveFusion::Concatenation => "Concatenation",
            NaiveFusion::Attention => "Attention",
        }
    }
}

pub struct FusedWalker {
    pub fusion: NaiveFusion,
    pub cfg: WalkerConfig,
    pub params: Params,
    ent: Embedding,
    rel: Embedding,
    lstm: LstmCell,
    l1: Linear,
    l2: Linear,
    /// Attention variant: 1×2 mixture logits.
    mix: Option<ParamId>,
    /// Precomputed fixed modal projections, `N×proj` each.
    txt_proj: Matrix,
    img_proj: Matrix,
    proj: usize,
    baseline: f32,
}

impl FusedWalker {
    pub fn new(kg: &MultiModalKG, fusion: NaiveFusion, proj: usize, cfg: WalkerConfig) -> Self {
        let mut params = Params::new();
        let mut rng = seeded_rng(cfg.seed);
        let ds = cfg.struct_dim;
        let n = kg.num_entities();
        let r_total = kg.graph.relations().total();
        let ent = Embedding::new(&mut params, &mut rng, "fused.ent", n, ds);
        let rel = Embedding::new(&mut params, &mut rng, "fused.rel", r_total, ds);
        let lstm = LstmCell::new(&mut params, &mut rng, "fused.lstm", 2 * ds, ds);

        // Fixed random projections of the raw modal features.
        let dt = kg.modal.text_dim().max(1);
        let di = kg.modal.image_dim().max(1);
        let pt = normal(&mut rng, dt, proj, 1.0 / (dt as f32).sqrt());
        let pi = normal(&mut rng, di, proj, 1.0 / (di as f32).sqrt());
        let txt_proj = kg.modal.texts().matmul(&pt);
        let img_proj = kg.modal.mean_images().matmul(&pi);

        let modal_w = match fusion {
            NaiveFusion::Concatenation => 2 * proj,
            NaiveFusion::Attention => proj,
        };
        let l1 = Linear::new(
            &mut params,
            &mut rng,
            "fused.l1",
            3 * ds + modal_w,
            cfg.hidden,
            true,
        );
        let l2 = Linear::new(
            &mut params,
            &mut rng,
            "fused.l2",
            cfg.hidden,
            2 * ds + modal_w,
            true,
        );
        let mix = matches!(fusion, NaiveFusion::Attention)
            .then(|| params.add("fused.mix", Matrix::zeros(1, 2)));
        FusedWalker {
            fusion,
            cfg,
            params,
            ent,
            rel,
            lstm,
            l1,
            l2,
            mix,
            txt_proj,
            img_proj,
            proj,
            baseline: 0.0,
        }
    }

    fn modal_width(&self) -> usize {
        match self.fusion {
            NaiveFusion::Concatenation => 2 * self.proj,
            NaiveFusion::Attention => self.proj,
        }
    }

    /// Current attention mixture (raw path).
    fn mixture(&self) -> (f32, f32) {
        match self.mix {
            Some(id) => {
                let m = self.params.value(id);
                let mut a = [m.get(0, 0), m.get(0, 1)];
                softmax_slice(&mut a);
                (a[0], a[1])
            }
            None => (1.0, 1.0),
        }
    }

    /// Raw fused modal vector for one entity.
    fn modal_vec(&self, e: usize, out: &mut Vec<f32>) {
        match self.fusion {
            NaiveFusion::Concatenation => {
                out.extend_from_slice(self.txt_proj.row(e));
                out.extend_from_slice(self.img_proj.row(e));
            }
            NaiveFusion::Attention => {
                let (at, ai) = self.mixture();
                for (t, i) in self.txt_proj.row(e).iter().zip(self.img_proj.row(e)) {
                    out.push(at * t + ai * i);
                }
            }
        }
    }

    /// Tape: fused modal rows for a set of entities (`m×modal_width`).
    fn modal_rows(&self, ctx: &Ctx<'_>, entities: &[usize]) -> Var {
        let t = ctx.tape;
        let txt = ctx.input(self.txt_proj.gather_rows(entities));
        let img = ctx.input(self.img_proj.gather_rows(entities));
        match (self.fusion, self.mix) {
            (NaiveFusion::Concatenation, _) => t.concat_cols(txt, img),
            (NaiveFusion::Attention, Some(mix)) => {
                let alpha = t.softmax_rows(ctx.p(mix)); // 1×2
                let a0 = t.slice_cols(alpha, 0, 1); // 1×1
                let a1 = t.slice_cols(alpha, 1, 2);
                let reps = vec![0usize; entities.len()];
                let a0m = t.gather_rows(a0, &reps); // m×1
                let a1m = t.gather_rows(a1, &reps);
                let tw = t.mul_col_broadcast(txt, a0m);
                let iw = t.mul_col_broadcast(img, a1m);
                t.add(tw, iw)
            }
            (NaiveFusion::Attention, None) => unreachable!("attention requires mix"),
        }
    }

    fn state_logp(&self, ctx: &Ctx<'_>, q: &RolloutQuery, h_i: Var, actions: &[Edge]) -> Var {
        let t = ctx.tape;
        let ds = self.cfg.struct_dim;
        let e_cur = t.gather_rows(ctx.p(self.ent.table), &[q.source.index()]);
        let rq = t.gather_rows(ctx.p(self.rel.table), &[q.relation.index()]);
        let m_src = self.modal_rows(ctx, &[q.source.index()]);
        let state = t.concat_cols(t.concat_cols(t.concat_cols(e_cur, m_src), h_i), rq);
        let hid = t.relu(self.l1.forward(ctx, state));
        let w = self.l2.forward(ctx, hid); // 1×(2ds+mw)

        let r_idx: Vec<usize> = actions.iter().map(|e| e.relation.index()).collect();
        let e_idx: Vec<usize> = actions.iter().map(|e| e.target.index()).collect();
        let r = t.gather_rows(ctx.p(self.rel.table), &r_idx);
        let e = t.gather_rows(ctx.p(self.ent.table), &e_idx);
        let m_tgt = self.modal_rows(ctx, &e_idx);
        let at = t.concat_cols(t.concat_cols(r, e), m_tgt); // m×(2ds+mw)
        let scores = t.transpose(t.matmul(at, t.transpose(w)));
        let _ = ds;
        t.log_softmax_rows(scores)
    }

    /// 0/1-reward REINFORCE, mirroring the plain walker. Returns the
    /// per-epoch mean-reward trace (Table VII's "Rewards" column).
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
        let mut rng = seeded_rng(self.cfg.seed ^ 0xF0F0);
        let mut opt = Adam::new(self.cfg.lr);
        if self.cfg.warmstart_epochs > 0 {
            self.warm_start(kg, self.cfg.warmstart_epochs, &mut opt);
        }
        let mut trace = Vec::with_capacity(self.cfg.epochs);
        let mut order: Vec<usize> = (0..queries.len()).collect();
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_reward = 0.0f32;
            let mut count = 0usize;
            let chunks: Vec<Vec<usize>> = order
                .chunks(self.cfg.batch_size)
                .map(|c| c.to_vec())
                .collect();
            for chunk in chunks {
                let batch: Vec<RolloutQuery> = chunk.iter().map(|&i| queries[i]).collect();
                let r = self.train_batch(kg, &batch, &mut opt, &mut rng);
                epoch_reward += r * batch.len() as f32;
                count += batch.len();
            }
            trace.push(epoch_reward / count.max(1) as f32);
        }
        trace
    }

    /// Shared behaviour-cloning warm start (same protocol as the plain
    /// walker and `mmkgr-core`'s Trainer — Table VII's deltas require a
    /// uniform training protocol across the fused/unfused pairs).
    pub fn warm_start(&mut self, kg: &MultiModalKG, epochs: usize, opt: &mut Adam) -> usize {
        let queries =
            mmkgr_core::rollout::queries_from_triples(&kg.split.train, kg.graph.relations(), true);
        let demos: Vec<(RolloutQuery, Vec<Edge>)> = queries
            .into_iter()
            .filter_map(|q| {
                mmkgr_core::rollout::demonstration_path(&kg.graph, &q, self.cfg.max_steps)
                    .map(|p| (q, p))
            })
            .collect();
        if demos.is_empty() {
            return 0;
        }
        let mut rng = seeded_rng(self.cfg.seed ^ 0xDE41);
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
                    let chosen = action_buf
                        .iter()
                        .position(|e| *e == target_edge)
                        .expect("demonstration edges exist in the masked action space");
                    let h_i = tape.gather_rows(h, &[i]);
                    let logp = self.state_logp(&ctx, &state.query, h_i, &action_buf);
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
            ctx.into_leases().accumulate(&mut self.params, &grads);
        }
        clip_grad_norm(&mut self.params, 5.0);
        opt.step(&mut self.params);
        self.params.zero_grads();
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
        let mut picked = Vec::with_capacity(b * self.cfg.max_steps);

        let mean_reward = {
            let ctx = Ctx::new(&tape, &self.params);
            let (mut h, mut c) = self.lstm.zero_state(&ctx, b);
            let mut action_buf: Vec<Edge> = Vec::new();
            for _ in 0..self.cfg.max_steps {
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
                    let logp = self.state_logp(&ctx, &state.query, h_i, &action_buf);
                    let chosen = {
                        let v = tape.value(logp);
                        sample_categorical(v.row(0), rng)
                    };
                    picked.push((tape.pick_per_row(logp, &[chosen]), i));
                    state.step(action_buf[chosen], no_op);
                }
            }
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
            let loss = tape.scale(loss.expect("non-empty batch"), 1.0 / b as f32);
            let grads = tape.backward(loss);
            ctx.into_leases().accumulate(&mut self.params, &grads);
            let d = self.cfg.baseline_decay;
            self.baseline = d * self.baseline + (1.0 - d) * mean_reward;
            mean_reward
        };
        clip_grad_norm(&mut self.params, 5.0);
        opt.step(&mut self.params);
        self.params.zero_grads();
        mean_reward
    }
}

impl RolloutPolicy for FusedWalker {
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
            if xv != 0.0 {
                for (g, &w) in gates.iter_mut().zip(wx.row(i)) {
                    *g += xv * w;
                }
            }
        }
        for (i, &hv) in h.iter().enumerate() {
            if hv != 0.0 {
                for (g, &w) in gates.iter_mut().zip(wh.row(i)) {
                    *g += hv * w;
                }
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
        let ds = self.cfg.struct_dim;
        let mut state = Vec::with_capacity(3 * ds + self.modal_width());
        state.extend_from_slice(self.ent.row(&self.params, source.index()));
        self.modal_vec(source.index(), &mut state);
        state.extend_from_slice(h);
        state.extend_from_slice(self.rel.row(&self.params, rq.index()));
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
        out.clear();
        let mut modal = Vec::with_capacity(self.modal_width());
        for a in actions {
            let r_emb = rel_t.row(a.relation.index());
            let e_emb = ent_t.row(a.target.index());
            modal.clear();
            self.modal_vec(a.target.index(), &mut modal);
            let mut s = 0.0f32;
            for k in 0..ds {
                s += w[k] * r_emb[k] + w[ds + k] * e_emb[k];
            }
            for (k, &mv) in modal.iter().enumerate() {
                s += w[2 * ds + k] * mv;
            }
            out.push(s);
        }
        softmax_slice(out);
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
    use mmkgr_core::infer::evaluate_ranking;
    use mmkgr_datagen::{generate, GenConfig};

    fn quick_cfg() -> WalkerConfig {
        WalkerConfig {
            epochs: 2,
            batch_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn concat_walker_trains() {
        let kg = generate(&GenConfig::tiny());
        let mut w = FusedWalker::new(&kg, NaiveFusion::Concatenation, 8, quick_cfg());
        let trace = w.train(&kg);
        assert_eq!(trace.len(), 2);
        assert!(trace.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn warm_start_raises_first_epoch_reward() {
        let kg = generate(&GenConfig::tiny());
        let run = |warm: usize| {
            let mut cfg = quick_cfg();
            cfg.warmstart_epochs = warm;
            let mut w = FusedWalker::new(&kg, NaiveFusion::Concatenation, 8, cfg);
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
    fn attention_walker_trains_and_evaluates() {
        let kg = generate(&GenConfig::tiny());
        let mut w = FusedWalker::new(&kg, NaiveFusion::Attention, 8, quick_cfg());
        w.train(&kg);
        let queries =
            mmkgr_core::rollout::queries_from_triples(&kg.split.test, kg.graph.relations(), false);
        let known = kg.all_known();
        let s = evaluate_ranking(
            &w,
            &kg.graph,
            &queries[..6.min(queries.len())],
            &known,
            8,
            4,
        );
        assert!((0.0..=1.0).contains(&s.mrr));
    }

    #[test]
    fn attention_mixture_is_softmax() {
        let kg = generate(&GenConfig::tiny());
        let w = FusedWalker::new(&kg, NaiveFusion::Attention, 8, quick_cfg());
        let (a, b) = w.mixture();
        assert!((a + b - 1.0).abs() < 1e-5);
    }

    #[test]
    fn modal_vec_widths() {
        let kg = generate(&GenConfig::tiny());
        let wc = FusedWalker::new(&kg, NaiveFusion::Concatenation, 8, quick_cfg());
        let wa = FusedWalker::new(&kg, NaiveFusion::Attention, 8, quick_cfg());
        let mut v = Vec::new();
        wc.modal_vec(0, &mut v);
        assert_eq!(v.len(), 16);
        v.clear();
        wa.modal_vec(0, &mut v);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn probs_sum_to_one() {
        let kg = generate(&GenConfig::tiny());
        let w = FusedWalker::new(&kg, NaiveFusion::Concatenation, 8, quick_cfg());
        let mut actions = vec![Edge {
            relation: kg.graph.relations().no_op(),
            target: EntityId(0),
        }];
        actions.extend_from_slice(kg.graph.neighbors(EntityId(0)));
        let h = vec![0.0f32; w.hidden_dim()];
        let mut probs = Vec::new();
        w.action_probs(EntityId(0), &h, RelationId(0), &actions, &mut probs);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }
}

/// Naive *late* fusion for non-RL baselines (GAATs, NeuralLP in Table
/// VII): the structural score is perturbed by raw modal similarity
/// between source and candidate. `Concatenation` sums both modality
/// similarities; `Attention` takes the stronger one (a degenerate
/// conventional attention). Neither can gate noise — which is the point
/// of the paper's Table VII.
pub struct ModalLateFusion<S> {
    pub inner: S,
    texts: Matrix,
    images: Matrix,
    pub weight: f32,
    pub fusion: NaiveFusion,
}

impl<S> ModalLateFusion<S> {
    pub fn new(inner: S, kg: &MultiModalKG, fusion: NaiveFusion, weight: f32) -> Self {
        let mut texts = kg.modal.texts().clone();
        let mut images = kg.modal.mean_images().clone();
        texts.l2_normalize_rows();
        images.l2_normalize_rows();
        ModalLateFusion {
            inner,
            texts,
            images,
            weight,
            fusion,
        }
    }

    fn modal_similarity(&self, a: EntityId, b: EntityId) -> f32 {
        let cos = |m: &Matrix| -> f32 {
            m.row(a.index())
                .iter()
                .zip(m.row(b.index()))
                .map(|(x, y)| x * y)
                .sum()
        };
        let (st, si) = (cos(&self.texts), cos(&self.images));
        match self.fusion {
            NaiveFusion::Concatenation => st + si,
            NaiveFusion::Attention => st.max(si),
        }
    }
}

impl<S: mmkgr_embed::TripleScorer> mmkgr_embed::TripleScorer for ModalLateFusion<S> {
    fn score(&self, s: EntityId, r: RelationId, o: EntityId) -> f32 {
        self.inner.score(s, r, o) + self.weight * self.modal_similarity(s, o)
    }

    fn score_all_objects(&self, s: EntityId, r: RelationId, n: usize, out: &mut Vec<f32>) {
        self.inner.score_all_objects(s, r, n, out);
        for (o, v) in out.iter_mut().enumerate() {
            *v += self.weight * self.modal_similarity(s, EntityId(o as u32));
        }
    }
}

#[cfg(test)]
mod late_fusion_tests {
    use super::*;
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_embed::{KgeTrainConfig, TransE, TripleScorer};

    #[test]
    fn late_fusion_shifts_scores() {
        let kg = generate(&GenConfig::tiny());
        let known = kg.all_known();
        let mut base = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0);
        base.train(&kg.split.train, &known, &KgeTrainConfig::quick());
        let plain = base.score(EntityId(0), RelationId(0), EntityId(1));
        let fused = ModalLateFusion::new(base, &kg, NaiveFusion::Concatenation, 0.5);
        let shifted = fused.score(EntityId(0), RelationId(0), EntityId(1));
        assert_ne!(plain, shifted);
    }

    #[test]
    fn vectorized_matches_pointwise_after_fusion() {
        let kg = generate(&GenConfig::tiny());
        let base = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 1);
        let fused = ModalLateFusion::new(base, &kg, NaiveFusion::Attention, 0.3);
        let mut out = Vec::new();
        fused.score_all_objects(EntityId(2), RelationId(0), 10, &mut out);
        for (o, &v) in out.iter().enumerate() {
            let p = fused.score(EntityId(2), RelationId(0), EntityId(o as u32));
            assert!((v - p).abs() < 1e-4);
        }
    }
}
