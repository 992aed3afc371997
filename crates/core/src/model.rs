//! The complete MMKGR model: feature extraction (Eqs. 1–4), the unified
//! gate-attention network, and the policy network (Eq. 17).
//!
//! Two forward paths exist:
//! - the **tape path** used during REINFORCE training, and
//! - the **raw path** (plain matrix math) used by beam-search inference,
//!   where gradient bookkeeping would be wasted work.
//!
//! Their agreement is enforced by unit tests.

use mmkgr_embed::TransE;
use mmkgr_kg::{Edge, EntityId, MultiModalKG, RelationId};
use mmkgr_nn::{Ctx, Embedding, GruCell, LstmCell, ParamId, Params};
use mmkgr_tensor::init::{seeded_rng, xavier};
use mmkgr_tensor::{softmax_slice, Matrix, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

use crate::config::{HistoryEncoder, MmkgrConfig};
use crate::fusion::{GateAttention, PreparedX};

/// The path-history encoder of Eq. (1), parameterized by
/// [`HistoryEncoder`]. All cells share the `(h, c)` state signature; GRU
/// and EMA carry `c` through untouched so rollout code stays uniform.
#[derive(Serialize, Deserialize)]
pub enum HistoryCell {
    Lstm(LstmCell),
    Gru(GruCell),
    /// `h' = (1−α)·h + α·tanh(x·W)` with fixed α = 0.5.
    Ema {
        w: ParamId,
        in_dim: usize,
        hidden: usize,
    },
}

impl HistoryCell {
    const EMA_ALPHA: f32 = 0.5;

    pub fn new(
        params: &mut Params,
        rng: &mut StdRng,
        kind: HistoryEncoder,
        in_dim: usize,
        hidden: usize,
    ) -> Self {
        match kind {
            HistoryEncoder::Lstm => {
                HistoryCell::Lstm(LstmCell::new(params, rng, "mmkgr.lstm", in_dim, hidden))
            }
            HistoryEncoder::Gru => {
                HistoryCell::Gru(GruCell::new(params, rng, "mmkgr.gru", in_dim, hidden))
            }
            HistoryEncoder::Ema => HistoryCell::Ema {
                w: params.add("mmkgr.ema.w", xavier(rng, in_dim, hidden)),
                in_dim,
                hidden,
            },
        }
    }

    pub fn hidden(&self) -> usize {
        match self {
            HistoryCell::Lstm(c) => c.hidden,
            HistoryCell::Gru(c) => c.hidden,
            HistoryCell::Ema { hidden, .. } => *hidden,
        }
    }

    /// Zero `(h, c)` state for a batch (`c` is a dummy for GRU/EMA).
    pub fn zero_state(&self, ctx: &Ctx<'_>, batch: usize) -> (Var, Var) {
        let h = ctx.input(Matrix::zeros(batch, self.hidden()));
        let c = ctx.input(Matrix::zeros(batch, self.hidden()));
        (h, c)
    }

    /// One tape step.
    pub fn forward(&self, ctx: &Ctx<'_>, x: Var, h: Var, c: Var) -> (Var, Var) {
        match self {
            HistoryCell::Lstm(cell) => cell.forward(ctx, x, h, c),
            HistoryCell::Gru(cell) => (cell.forward(ctx, x, h), c),
            HistoryCell::Ema { w, .. } => {
                let t = ctx.tape;
                let proj = t.tanh(t.matmul(x, ctx.p(*w)));
                let blended = t.add(
                    t.scale(h, 1.0 - Self::EMA_ALPHA),
                    t.scale(proj, Self::EMA_ALPHA),
                );
                (blended, c)
            }
        }
    }
}

#[derive(Serialize, Deserialize)]
pub struct MmkgrModel {
    /// Hyper-parameters. Read-only once [`MmkgrModel::new`] returns: the
    /// per-entity `X` table is built from the modality switches here and
    /// is not rebuilt if they change.
    pub cfg: MmkgrConfig,
    /// Read through [`MmkgrModel::params`]; written only through
    /// [`MmkgrModel::params_mut`], which drops the `X` table.
    params: Params,
    /// Structural entity embeddings (TransE-initialized, Eq. 1 context).
    pub ent: Embedding,
    /// Structural relation embeddings over the full relation space.
    pub rel: Embedding,
    /// Path-history encoder (`h_t`, Eq. 1) — LSTM in the paper, GRU/EMA
    /// for the `ablation_history` bench.
    pub history: HistoryCell,
    /// Text projection `W_t` (Eq. 3).
    w_txt: ParamId,
    /// Image projection `W_i` (Eq. 3).
    w_img: ParamId,
    pub gate: GateAttention,
    /// Policy weight `W_2` (Eq. 17): `j × d_a`.
    w2: ParamId,
    /// Per-entity raw text features (`N×d_t`), copied from the modal bank.
    texts: Matrix,
    /// Per-entity mean image features (`N×d_i`).
    images: Matrix,
    /// One row `[q | q·W_lq | q·W_rq]` per entity (`N × (d + 2j)`): the
    /// gate's `X`-side projections of that entity as an action target.
    /// Built on the first raw forward ([`MmkgrModel::raw_prepare_actions`])
    /// and dropped by [`MmkgrModel::params_mut`]. Holds `None` when every
    /// modality is ablated (OSKGR). Never serialized, so checkpoints keep
    /// their bytes.
    #[serde(skip)]
    x_table: OnceLock<Option<Matrix>>,
}

impl MmkgrModel {
    /// Build the model for a dataset. If `transe` is given, its tables
    /// initialize the structural embeddings (the paper's initialization).
    pub fn new(kg: &MultiModalKG, cfg: MmkgrConfig, transe: Option<&TransE>) -> Self {
        cfg.validate().expect("invalid MmkgrConfig");
        let mut params = Params::new();
        let mut rng = seeded_rng(cfg.seed);
        let n = kg.num_entities();
        let r_total = kg.graph.relations().total();
        let ds = cfg.struct_dim;

        let ent = match transe {
            Some(t) if t.dim == ds && t.entity_matrix().rows() == n => {
                Embedding::from_matrix(&mut params, "mmkgr.ent", t.entity_matrix().clone())
            }
            _ => Embedding::new(&mut params, &mut rng, "mmkgr.ent", n, ds),
        };
        let rel = match transe {
            Some(t) if t.dim == ds && t.relation_matrix().rows() == r_total => {
                Embedding::from_matrix(&mut params, "mmkgr.rel", t.relation_matrix().clone())
            }
            _ => Embedding::new(&mut params, &mut rng, "mmkgr.rel", r_total, ds),
        };

        let history = HistoryCell::new(&mut params, &mut rng, cfg.history, 2 * ds, ds);
        let dt = kg.modal.text_dim().max(1);
        let di = kg.modal.image_dim().max(1);
        let w_txt = params.add("mmkgr.w_txt", xavier(&mut rng, dt, cfg.modal_proj_dim));
        let w_img = params.add("mmkgr.w_img", xavier(&mut rng, di, cfg.modal_proj_dim));

        let dy = cfg.struct_row_dim();
        let dx = cfg.modal_row_dim();
        let gate = GateAttention::new(&mut params, &mut rng, dy, dx, cfg.fusion_dim, cfg.mlb_dim);
        let w2 = params.add("mmkgr.w2", xavier(&mut rng, cfg.mlb_dim, cfg.action_dim()));

        MmkgrModel {
            cfg,
            params,
            ent,
            rel,
            history,
            w_txt,
            w_img,
            gate,
            w2,
            texts: kg.modal.texts().clone(),
            images: kg.modal.mean_images().clone(),
            x_table: OnceLock::new(),
        }
    }

    /// The parameter arena.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Mutable parameters, for training. Drops the per-entity `X` table,
    /// so the next raw forward rebuilds it from the new weights.
    pub fn params_mut(&mut self) -> &mut Params {
        self.x_table.take();
        &mut self.params
    }

    // ======================= tape path (training) =======================

    /// Multi-modal auxiliary features `X` for candidate target entities
    /// (Eq. 3–4): `x = [f_t·W_t ; f_i·W_i]`, `m×d_x`. `None` when all
    /// modalities are ablated (OSKGR).
    pub fn modal_x(&self, ctx: &Ctx<'_>, targets: &[usize]) -> Option<Var> {
        let t = ctx.tape;
        let mut parts: Vec<Var> = Vec::with_capacity(2);
        if self.cfg.use_text {
            let raw = ctx.input(self.texts.gather_rows(targets));
            parts.push(t.matmul(raw, ctx.p(self.w_txt)));
        }
        if self.cfg.use_image {
            let raw = ctx.input(self.images.gather_rows(targets));
            parts.push(t.matmul(raw, ctx.p(self.w_img)));
        }
        match parts.len() {
            0 => None,
            1 => Some(parts[0]),
            _ => Some(t.concat_cols(parts[0], parts[1])),
        }
    }

    /// Structural feature row `y = [e_s; h_t; r_q]` (Eq. 1), `1×d_y`.
    pub fn y_row(&self, ctx: &Ctx<'_>, es: Var, h: Var, rq: Var) -> Var {
        let t = ctx.tape;
        t.concat_cols(t.concat_cols(es, h), rq)
    }

    /// Stacked action embeddings `A_t` (`[r; e]` per action), `m×d_a`.
    pub fn action_matrix(&self, ctx: &Ctx<'_>, actions: &[Edge]) -> Var {
        let t = ctx.tape;
        let r_idx: Vec<usize> = actions.iter().map(|e| e.relation.index()).collect();
        let e_idx: Vec<usize> = actions.iter().map(|e| e.target.index()).collect();
        let r = t.gather_rows(ctx.p(self.rel.table), &r_idx);
        let e = t.gather_rows(ctx.p(self.ent.table), &e_idx);
        t.concat_cols(r, e)
    }

    /// Policy logits (Eq. 17): `softmax(A_t (W_2 ReLU(Z)))`, returned as
    /// pre-softmax `1×m` logits. `z` is `m×j`, or `1×j` when the
    /// gate-attention was bypassed (structure-only).
    pub fn policy_logits(&self, ctx: &Ctx<'_>, z: Var, at: Var, m: usize) -> Var {
        let t = ctx.tape;
        let h = t.relu(z);
        let proj = t.matmul(h, ctx.p(self.w2)); // m×d_a or 1×d_a
        let (zr, _) = t.shape(proj);
        let scores = if zr == m {
            t.sum_rows(t.mul(proj, at)) // per-action rows: row-wise dot
        } else {
            t.matmul(at, t.transpose(proj)) // broadcast z: A_t · w
        };
        t.transpose(scores) // 1×m
    }

    /// Full tape forward for one state: logits over `actions`.
    #[allow(clippy::too_many_arguments)]
    pub fn state_logits(&self, ctx: &Ctx<'_>, es: Var, h: Var, rq: Var, actions: &[Edge]) -> Var {
        let y = self.y_row(ctx, es, h, rq);
        let targets: Vec<usize> = actions.iter().map(|e| e.target.index()).collect();
        let z = match self.modal_x(ctx, &targets) {
            Some(x) => self.gate.forward(
                ctx,
                y,
                x,
                self.cfg.use_attention_fusion,
                self.cfg.use_irrelevance_filtration,
            ),
            None => self.gate.bypass(ctx, y),
        };
        let at = self.action_matrix(ctx, actions);
        self.policy_logits(ctx, z, at, actions.len())
    }

    // ======================= raw path (inference) =======================

    /// LSTM input for a step: `[r_emb(last); e_emb(current)]`.
    pub fn raw_lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        let mut x = Vec::with_capacity(2 * self.cfg.struct_dim);
        self.raw_lstm_input_into(last_rel, current, &mut x);
        x
    }

    /// Allocation-free form of [`Self::raw_lstm_input`]: appends the
    /// step input to `out` (the beam-engine hot path).
    pub fn raw_lstm_input_into(&self, last_rel: RelationId, current: EntityId, out: &mut Vec<f32>) {
        out.extend_from_slice(self.rel.row(&self.params, last_rel.index()));
        out.extend_from_slice(self.ent.row(&self.params, current.index()));
    }

    /// One raw history-encoder step (mirrors [`HistoryCell::forward`] for
    /// batch 1); dispatches on the configured encoder.
    pub fn raw_lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        let ds = self.cfg.struct_dim;
        thread_local! {
            static GATES: std::cell::RefCell<Vec<f32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        match &self.history {
            HistoryCell::Lstm(cell) => GATES.with(|buf| {
                let gates = &mut *buf.borrow_mut();
                let wx = self.params.value(cell.wx);
                let wh = self.params.value(cell.wh);
                let b = self.params.value(cell.b);
                gates.clear();
                gates.extend_from_slice(b.row(0)); // 4*ds
                accumulate_sparse(x, wx, gates);
                accumulate_sparse(h, wh, gates);
                for k in 0..ds {
                    let i_g = sigmoid(gates[k]);
                    let f_g = sigmoid(gates[ds + k]);
                    let g_g = gates[2 * ds + k].tanh();
                    let o_g = sigmoid(gates[3 * ds + k]);
                    c[k] = f_g * c[k] + i_g * g_g;
                    h[k] = o_g * c[k].tanh();
                }
            }),
            HistoryCell::Gru(cell) => {
                let wx = self.params.value(cell.wx);
                let wh = self.params.value(cell.wh);
                let b = self.params.value(cell.b);
                let mut gx = b.row(0).to_vec(); // 3*ds: r, z, n blocks
                accumulate_sparse(x, wx, &mut gx);
                // r, z recurrent blocks (rows truncate to 2*ds).
                let mut gh = vec![0.0f32; 2 * ds];
                accumulate_sparse(h, wh, &mut gh);
                let mut r = vec![0.0f32; ds];
                let mut z = vec![0.0f32; ds];
                for k in 0..ds {
                    r[k] = sigmoid(gx[k] + gh[k]);
                    z[k] = sigmoid(gx[ds + k] + gh[ds + k]);
                }
                // candidate: tanh(gx_n + (r⊙h)·Whn)
                let mut n = gx[2 * ds..3 * ds].to_vec();
                for (i, &hv) in h.iter().enumerate() {
                    let rh = r[i] * hv;
                    if rh == 0.0 {
                        continue;
                    }
                    for (acc, &w) in n.iter_mut().zip(&wh.row(i)[2 * ds..3 * ds]) {
                        *acc += rh * w;
                    }
                }
                for k in 0..ds {
                    let nk = n[k].tanh();
                    h[k] = nk + z[k] * (h[k] - nk);
                }
            }
            HistoryCell::Ema { w, .. } => {
                let wm = self.params.value(*w);
                let a = HistoryCell::EMA_ALPHA;
                let mut proj = vec![0.0f32; ds];
                accumulate_sparse(x, wm, &mut proj);
                for k in 0..ds {
                    h[k] = (1.0 - a) * h[k] + a * proj[k].tanh();
                }
            }
        }
    }

    /// Precompute the input-dependent half of a recurrent step (see
    /// `RolloutPolicy::prepare_step`): `bias + x·Wx` pre-activations for
    /// LSTM/GRU, the tanh'd projection for EMA. A pure function of
    /// `(last_rel, current)` under frozen parameters, so beam search
    /// memoizes it per traversed edge for a whole query.
    pub fn raw_prepare_step(&self, last_rel: RelationId, current: EntityId) -> PreparedStep {
        thread_local! {
            static X: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        X.with(|buf| {
            let x = &mut *buf.borrow_mut();
            x.clear();
            self.raw_lstm_input_into(last_rel, current, x);
            let ds = self.cfg.struct_dim;
            let gx = match &self.history {
                HistoryCell::Lstm(cell) => {
                    let wx = self.params.value(cell.wx);
                    let b = self.params.value(cell.b);
                    let mut g = b.row(0).to_vec(); // 4*ds
                    accumulate_sparse(x, wx, &mut g);
                    g
                }
                HistoryCell::Gru(cell) => {
                    let wx = self.params.value(cell.wx);
                    let b = self.params.value(cell.b);
                    let mut g = b.row(0).to_vec(); // 3*ds: r, z, n blocks
                    accumulate_sparse(x, wx, &mut g);
                    g
                }
                HistoryCell::Ema { w, .. } => {
                    let wm = self.params.value(*w);
                    let mut proj = vec![0.0f32; ds];
                    accumulate_sparse(x, wm, &mut proj);
                    proj.iter_mut().for_each(|v| *v = v.tanh());
                    proj
                }
            };
            PreparedStep { gx }
        })
    }

    /// [`Self::raw_lstm_step`] with its input half memoized by
    /// [`Self::raw_prepare_step`]. Bitwise-identical: the recurrent
    /// accumulation runs in the same order on the same values.
    pub fn raw_lstm_step_prepared(&self, prep: &PreparedStep, h: &mut [f32], c: &mut [f32]) {
        let ds = self.cfg.struct_dim;
        thread_local! {
            static GATES: std::cell::RefCell<Vec<f32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        match &self.history {
            HistoryCell::Lstm(cell) => GATES.with(|buf| {
                let gates = &mut *buf.borrow_mut();
                gates.clear();
                gates.extend_from_slice(&prep.gx);
                let wh = self.params.value(cell.wh);
                accumulate_sparse(h, wh, gates);
                for k in 0..ds {
                    let i_g = sigmoid(gates[k]);
                    let f_g = sigmoid(gates[ds + k]);
                    let g_g = gates[2 * ds + k].tanh();
                    let o_g = sigmoid(gates[3 * ds + k]);
                    c[k] = f_g * c[k] + i_g * g_g;
                    h[k] = o_g * c[k].tanh();
                }
            }),
            HistoryCell::Gru(cell) => {
                let wh = self.params.value(cell.wh);
                let gx = &prep.gx;
                // r, z recurrent blocks (rows truncate to 2*ds).
                let mut gh = vec![0.0f32; 2 * ds];
                accumulate_sparse(h, wh, &mut gh);
                let mut r = vec![0.0f32; ds];
                let mut z = vec![0.0f32; ds];
                for k in 0..ds {
                    r[k] = sigmoid(gx[k] + gh[k]);
                    z[k] = sigmoid(gx[ds + k] + gh[ds + k]);
                }
                // candidate: tanh(gx_n + (r⊙h)·Whn)
                let mut n = gx[2 * ds..3 * ds].to_vec();
                for (i, &hv) in h.iter().enumerate() {
                    let rh = r[i] * hv;
                    if rh == 0.0 {
                        continue;
                    }
                    for (acc, &w) in n.iter_mut().zip(&wh.row(i)[2 * ds..3 * ds]) {
                        *acc += rh * w;
                    }
                }
                for k in 0..ds {
                    let nk = n[k].tanh();
                    h[k] = nk + z[k] * (h[k] - nk);
                }
            }
            HistoryCell::Ema { .. } => {
                let a = HistoryCell::EMA_ALPHA;
                for (hv, &gx) in h.iter_mut().zip(&prep.gx) {
                    *hv = (1.0 - a) * *hv + a * gx;
                }
            }
        }
    }

    /// Raw modal features `X` for candidate targets (`m×d_x`).
    pub fn raw_modal_x(&self, targets: &[usize]) -> Option<Matrix> {
        let mut parts: Vec<Matrix> = Vec::with_capacity(2);
        if self.cfg.use_text {
            parts.push(
                self.texts
                    .gather_rows(targets)
                    .matmul(self.params.value(self.w_txt)),
            );
        }
        if self.cfg.use_image {
            parts.push(
                self.images
                    .gather_rows(targets)
                    .matmul(self.params.value(self.w_img)),
            );
        }
        match parts.len() {
            0 => None,
            1 => Some(parts.pop().unwrap()),
            _ => Some(parts[0].concat_cols(&parts[1])),
        }
    }

    /// Raw policy probabilities over `actions` for one state.
    ///
    /// Beam search calls this width×steps times per query, so the `y`
    /// row and the gate's intermediates reuse thread-local scratch
    /// instead of allocating per call — `&self` stays shared, so
    /// reasoners remain `Sync` without interior locking.
    pub fn raw_state_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        let prep = self.raw_prepare_actions(actions);
        self.raw_state_probs_group_prepared(source, h, 1, rq, actions, &prep, out)
    }

    /// The action-set-dependent half of the raw policy forward: the
    /// per-action `[r_emb; e_emb]` rows and the gate's `X`-side
    /// ([`PreparedX`]), both gathered row by row — the latter from the
    /// model's per-entity `X` table, built here on first use. A pure
    /// function of `actions` and the parameters, so the beam engine
    /// computes it once per entity for a whole query.
    pub fn raw_prepare_actions(&self, actions: &[Edge]) -> PreparedActions {
        let ds = self.cfg.struct_dim;
        let rel_t = self.params.value(self.rel.table);
        let ent_t = self.params.value(self.ent.table);
        let mut a_emb = Matrix::zeros(actions.len(), 2 * ds);
        for (i, a) in actions.iter().enumerate() {
            let row = a_emb.row_mut(i);
            row[..ds].copy_from_slice(rel_t.row(a.relation.index()));
            row[ds..].copy_from_slice(ent_t.row(a.target.index()));
        }
        let px = self
            .x_table
            .get_or_init(|| self.build_x_table())
            .as_ref()
            .map(|table| {
                let (d, j) = (self.gate.d, self.gate.j);
                let m = actions.len();
                let mut px = PreparedX {
                    q: Matrix::zeros(m, d),
                    q_lq: Matrix::zeros(m, j),
                    q_rq: Matrix::zeros(m, j),
                };
                for (i, a) in actions.iter().enumerate() {
                    let row = table.row(a.target.index());
                    px.q.row_mut(i).copy_from_slice(&row[..d]);
                    px.q_lq.row_mut(i).copy_from_slice(&row[d..d + j]);
                    px.q_rq.row_mut(i).copy_from_slice(&row[d + j..]);
                }
                px
            });
        PreparedActions { px, a_emb }
    }

    /// The per-entity `X` table: [`Self::raw_modal_x`] and
    /// [`GateAttention::prepare_x`] over every entity, 64 rows at a time,
    /// so the only transient is one small block. The product kernel
    /// computes each output row from its own input row alone, so every
    /// row equals, bit for bit, the one those two compute over any action
    /// set. `None` with no modality (OSKGR).
    fn build_x_table(&self) -> Option<Matrix> {
        const BLOCK: usize = 64;
        if !(self.cfg.use_text || self.cfg.use_image) {
            return None;
        }
        let n = self.params.value(self.ent.table).rows();
        let (d, j) = (self.gate.d, self.gate.j);
        let mut table = Matrix::zeros(n, d + 2 * j);
        let mut targets = Vec::with_capacity(BLOCK);
        for start in (0..n).step_by(BLOCK) {
            targets.clear();
            targets.extend(start..n.min(start + BLOCK));
            let px = self
                .gate
                .prepare_x(&self.params, &self.raw_modal_x(&targets)?);
            for (i, &e) in targets.iter().enumerate() {
                let row = table.row_mut(e);
                row[..d].copy_from_slice(px.q.row(i));
                row[d..d + j].copy_from_slice(px.q_lq.row(i));
                row[d + j..].copy_from_slice(px.q_rq.row(i));
            }
        }
        Some(table)
    }

    /// Grouped raw policy forward: probabilities for `states` agent
    /// states (rows of `hs`, `struct_dim` apart) that all stand at the
    /// same entity and therefore share `actions` and `prep` (from
    /// [`Self::raw_prepare_actions`]). Each state pays only its own
    /// `y`-side. Bitwise-identical to calling [`Self::raw_state_probs`]
    /// per state; the beam engine's hot path.
    #[allow(clippy::too_many_arguments)]
    pub fn raw_state_probs_group_prepared(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        prep: &PreparedActions,
        out: &mut Vec<f32>,
    ) {
        thread_local! {
            static Y_DATA: std::cell::RefCell<Vec<f32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        Y_DATA.with(|buf| {
            let y_data = &mut *buf.borrow_mut();
            let ds = self.cfg.struct_dim;
            let es = self.ent.row(&self.params, source.index());
            let rqe = self.rel.row(&self.params, rq.index());
            out.clear();
            out.reserve(states * actions.len());
            for s in 0..states {
                y_data.clear();
                y_data.extend_from_slice(es);
                y_data.extend_from_slice(&hs[s * ds..(s + 1) * ds]);
                y_data.extend_from_slice(rqe);
                let len = y_data.len();
                let y = Matrix::from_vec(1, len, std::mem::take(y_data));
                self.raw_probs_one(&y, prep, actions, out);
                *y_data = y.into_vec();
            }
        })
    }

    /// One state's probabilities appended to `out` (the shared tail of
    /// the single and grouped raw forwards). Every intermediate lives in
    /// thread-local scratch: after warmup a call allocates nothing.
    fn raw_probs_one(
        &self,
        y: &Matrix,
        prep: &PreparedActions,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        thread_local! {
            static GATE: std::cell::RefCell<(crate::fusion::GateScratch, Matrix)> =
                std::cell::RefCell::new((crate::fusion::GateScratch::new(), Matrix::zeros(0, 0)));
        }
        GATE.with(|g| {
            let (gs, proj) = &mut *g.borrow_mut();
            match &prep.px {
                Some(px) => self.gate.forward_raw_scratch(
                    &self.params,
                    y,
                    px,
                    self.cfg.use_attention_fusion,
                    self.cfg.use_irrelevance_filtration,
                    gs,
                ),
                None => y.matmul_into(self.params.value(self.gate.os_proj), &mut gs.z),
            }
            gs.z.map_inplace(|v| v.max(0.0)); // ReLU, in place
            gs.z.matmul_into(self.params.value(self.w2), proj); // m×d_a or 1×d_a
            let start = out.len();
            out.reserve(actions.len());
            let ds = self.cfg.struct_dim;
            for i in 0..actions.len() {
                let w = if proj.rows() == actions.len() {
                    proj.row(i)
                } else {
                    proj.row(0)
                };
                // a_emb row i = [r_emb; e_emb]: same multiply/add order
                // as the original scattered-table loop.
                let emb = prep.a_emb.row(i);
                let mut s = 0.0f32;
                for k in 0..ds {
                    s += w[k] * emb[k] + w[ds + k] * emb[ds + k];
                }
                out.push(s);
            }
            softmax_slice(&mut out[start..]);
        })
    }

    /// Path embedding for the diversity reward: mean of relation
    /// embeddings along the path (Eq. 15's `p`).
    pub fn path_embedding(&self, rels: &[RelationId]) -> Vec<f32> {
        let ds = self.cfg.struct_dim;
        let mut p = vec![0.0f32; ds];
        if rels.is_empty() {
            return p;
        }
        let table = self.params.value(self.rel.table);
        for r in rels {
            for (acc, &v) in p.iter_mut().zip(table.row(r.index())) {
                *acc += v;
            }
        }
        let inv = 1.0 / rels.len() as f32;
        p.iter_mut().for_each(|v| *v *= inv);
        p
    }

    // ======================= checkpointing ==============================

    /// Serialize the full model (parameters + config + modal caches) to
    /// JSON. Pair with [`MmkgrModel::from_json`] to resume or deploy.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("MmkgrModel serialize")
    }

    /// Restore a model saved with [`MmkgrModel::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Save to a file (convenience wrapper).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from a file saved with [`MmkgrModel::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Action-set context for the raw policy forward, gathered from the
/// model's tables (see [`MmkgrModel::raw_prepare_actions`]).
pub struct PreparedActions {
    /// The gate's `X`-side rows, gathered from the per-entity `X` table;
    /// `None` with no modality (OSKGR).
    px: Option<PreparedX>,
    /// Per-action `[r_emb; e_emb]` rows (`m × 2·struct_dim`), gathered
    /// once so the per-state scoring loop reads contiguous memory.
    a_emb: Matrix,
}

/// Memoizable input-dependent half of one recurrent step (see
/// [`MmkgrModel::raw_prepare_step`]): `bias + x·Wx` pre-activations for
/// LSTM/GRU, the already-tanh'd projection for EMA.
pub struct PreparedStep {
    gx: Vec<f32>,
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `g[j] += x[i] · w[i][j]` for every non-zero `x[i]` (rows truncated to
/// `g.len()`): the sparse accumulation shared by the unprepared and
/// memoized recurrent paths. One definition keeps their required
/// bit-identity structural rather than copy-paste-maintained.
#[inline]
fn accumulate_sparse(x: &[f32], w: &Matrix, g: &mut [f32]) {
    for (i, &xv) in x.iter().enumerate() {
        if xv == 0.0 {
            continue;
        }
        for (gv, &wv) in g.iter_mut().zip(w.row(i)) {
            *gv += xv * wv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HistoryEncoder, Variant};
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_nn::Ctx;
    use mmkgr_tensor::Tape;

    fn tiny_model(variant: Variant) -> (mmkgr_kg::MultiModalKG, MmkgrModel) {
        let kg = generate(&GenConfig::tiny());
        let cfg = MmkgrConfig::quick().variant(variant);
        let model = MmkgrModel::new(&kg, cfg, None);
        (kg, model)
    }

    fn sample_actions(kg: &mmkgr_kg::MultiModalKG) -> Vec<Edge> {
        let no_op = kg.graph.relations().no_op();
        let mut actions = vec![Edge {
            relation: no_op,
            target: EntityId(0),
        }];
        actions.extend_from_slice(kg.graph.neighbors(EntityId(0)));
        actions.truncate(6);
        actions
    }

    #[test]
    fn tape_and_raw_probs_agree() {
        for variant in [
            Variant::Full,
            Variant::Oskgr,
            Variant::Stkgr,
            Variant::Fgkgr,
        ] {
            let (kg, model) = tiny_model(variant);
            let actions = sample_actions(&kg);
            let h = vec![0.1f32; model.cfg.struct_dim];
            let rq = RelationId(0);
            let src = EntityId(0);

            // tape
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &model.params);
            let es = ctx.input(Matrix::row_vector(model.ent.row(&model.params, 0)));
            let hv = ctx.input(Matrix::row_vector(&h));
            let rqv = ctx.input(Matrix::row_vector(model.rel.row(&model.params, 0)));
            let logits = model.state_logits(&ctx, es, hv, rqv, &actions);
            let probs_tape = tape.value_cloned(tape.softmax_rows(logits));

            // raw
            let mut probs_raw = Vec::new();
            model.raw_state_probs(src, &h, rq, &actions, &mut probs_raw);

            for (a, b) in probs_tape.row(0).iter().zip(&probs_raw) {
                assert!((a - b).abs() < 1e-4, "{variant:?}: tape {a} vs raw {b}");
            }
        }
    }

    #[test]
    fn probs_form_distribution() {
        let (kg, model) = tiny_model(Variant::Full);
        let actions = sample_actions(&kg);
        let h = vec![0.0f32; model.cfg.struct_dim];
        let mut probs = Vec::new();
        model.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut probs);
        assert_eq!(probs.len(), actions.len());
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn transe_initialization_copies_tables() {
        let kg = generate(&GenConfig::tiny());
        let mut cfg = MmkgrConfig::quick();
        cfg.struct_dim = 16;
        let mut transe = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0);
        transe.normalize_entities();
        let model = MmkgrModel::new(&kg, cfg, Some(&transe));
        assert_eq!(
            model.ent.row(&model.params, 3),
            transe.entities.row(&transe.params, 3),
            "entity embeddings must be TransE-initialized"
        );
    }

    #[test]
    fn raw_history_matches_tape_for_every_encoder() {
        for kind in [
            HistoryEncoder::Lstm,
            HistoryEncoder::Gru,
            HistoryEncoder::Ema,
        ] {
            let kg = generate(&GenConfig::tiny());
            let mut cfg = MmkgrConfig::quick();
            cfg.history = kind;
            let model = MmkgrModel::new(&kg, cfg, None);
            let ds = model.cfg.struct_dim;
            let x = model.raw_lstm_input(RelationId(1), EntityId(2));

            // raw — two consecutive steps so state-carrying paths differ
            let mut h_raw = vec![0.0f32; ds];
            let mut c_raw = vec![0.0f32; ds];
            model.raw_lstm_step(&x, &mut h_raw, &mut c_raw);
            model.raw_lstm_step(&x, &mut h_raw, &mut c_raw);

            // tape
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &model.params);
            let xv = ctx.input(Matrix::row_vector(&x));
            let (h0, c0) = model.history.zero_state(&ctx, 1);
            let (h1, c1) = model.history.forward(&ctx, xv, h0, c0);
            let (h2, _) = model.history.forward(&ctx, xv, h1, c1);
            let h_tape = tape.value_cloned(h2);

            for (a, b) in h_tape.row(0).iter().zip(&h_raw) {
                assert!((a - b).abs() < 1e-4, "{kind:?}: tape {a} vs raw {b}");
            }
        }
    }

    #[test]
    fn prepared_step_matches_unprepared_for_every_encoder() {
        // The beam engine's memoized step path must be bitwise-identical
        // to raw_lstm_input + raw_lstm_step for all three encoders.
        for kind in [
            HistoryEncoder::Lstm,
            HistoryEncoder::Gru,
            HistoryEncoder::Ema,
        ] {
            let kg = generate(&GenConfig::tiny());
            let mut cfg = MmkgrConfig::quick();
            cfg.history = kind;
            let model = MmkgrModel::new(&kg, cfg, None);
            let ds = model.cfg.struct_dim;
            let mut h_a = vec![0.3f32; ds];
            let mut c_a = vec![0.1f32; ds];
            let mut h_b = h_a.clone();
            let mut c_b = c_a.clone();
            for step in 0..3u32 {
                let (rel, ent) = (RelationId(step % 2), EntityId(step));
                let x = model.raw_lstm_input(rel, ent);
                model.raw_lstm_step(&x, &mut h_a, &mut c_a);
                let prep = model.raw_prepare_step(rel, ent);
                model.raw_lstm_step_prepared(&prep, &mut h_b, &mut c_b);
            }
            for (a, b) in h_a.iter().zip(&h_b).chain(c_a.iter().zip(&c_b)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind:?}: prepared step diverged");
            }
        }
    }

    #[test]
    fn encoder_kinds_produce_distinct_policies() {
        let kg = generate(&GenConfig::tiny());
        let probs_for = |kind: HistoryEncoder| {
            let mut cfg = MmkgrConfig::quick();
            cfg.history = kind;
            let model = MmkgrModel::new(&kg, cfg, None);
            let actions = sample_actions(&kg);
            // run one history step so the encoder actually participates
            let x = model.raw_lstm_input(RelationId(0), EntityId(0));
            let ds = model.cfg.struct_dim;
            let mut h = vec![0.0f32; ds];
            let mut c = vec![0.0f32; ds];
            model.raw_lstm_step(&x, &mut h, &mut c);
            let mut p = Vec::new();
            model.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut p);
            p
        };
        let lstm = probs_for(HistoryEncoder::Lstm);
        let gru = probs_for(HistoryEncoder::Gru);
        assert_ne!(lstm, gru);
    }

    #[test]
    fn path_embedding_is_mean_of_relation_rows() {
        let (_, model) = tiny_model(Variant::Full);
        let p = model.path_embedding(&[RelationId(0), RelationId(1)]);
        let t = model.params.value(model.rel.table);
        for (i, &v) in p.iter().enumerate() {
            let want = (t.get(0, i) + t.get(1, i)) / 2.0;
            assert!((v - want).abs() < 1e-6);
        }
        // empty path → zero vector
        assert!(model.path_embedding(&[]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn checkpoint_roundtrip_preserves_policy() {
        let (kg, model) = tiny_model(Variant::Full);
        let json = model.to_json();
        let restored = MmkgrModel::from_json(&json).unwrap();
        let actions = sample_actions(&kg);
        let h = vec![0.2f32; model.cfg.struct_dim];
        let mut a = Vec::new();
        let mut b = Vec::new();
        model.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut a);
        restored.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut b);
        assert_eq!(a, b, "restored model must be behaviourally identical");
    }

    /// `m` actions spread over every entity and relation of `kg`.
    fn spread_actions(kg: &mmkgr_kg::MultiModalKG, m: usize) -> Vec<Edge> {
        let (n, r) = (kg.num_entities(), kg.graph.relations().total());
        (0..m)
            .map(|k| Edge {
                relation: RelationId((k * 5 % r) as u32),
                target: EntityId(((k * 131 + 17) % n) as u32),
            })
            .collect()
    }

    #[test]
    fn x_table_rows_match_the_per_action_set_projections() {
        // 600 entities span ten 64-row build blocks, the last one partial.
        let kg = generate(&GenConfig {
            entities: 600,
            ..GenConfig::tiny()
        });
        for variant in [
            Variant::Full,
            Variant::Stkgr,
            Variant::Sikgr,
            Variant::Oskgr,
        ] {
            let model = MmkgrModel::new(&kg, MmkgrConfig::quick().variant(variant), None);
            let ds = model.cfg.struct_dim;
            let hs: Vec<f32> = (0..3 * ds).map(|i| (i as f32 * 0.37).sin()).collect();
            for m in [1, 7, 40, 48] {
                let actions = spread_actions(&kg, m);
                let targets: Vec<usize> = actions.iter().map(|e| e.target.index()).collect();
                let gathered = model.raw_prepare_actions(&actions);
                let computed = PreparedActions {
                    px: model
                        .raw_modal_x(&targets)
                        .map(|x| model.gate.prepare_x(&model.params, &x)),
                    a_emb: gathered.a_emb.clone(),
                };
                assert_eq!(gathered.px.is_some(), variant != Variant::Oskgr);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for (prep, out) in [(&gathered, &mut got), (&computed, &mut want)] {
                    model.raw_state_probs_group_prepared(
                        EntityId(3),
                        &hs,
                        3,
                        RelationId(1),
                        &actions,
                        prep,
                        out,
                    );
                }
                assert_eq!(got.len(), 3 * m);
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{variant:?}, m = {m}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn params_mut_drops_the_x_table() {
        let (kg, mut model) = tiny_model(Variant::Full);
        let actions = sample_actions(&kg);
        let h = vec![0.2f32; model.cfg.struct_dim];
        let forward = |model: &MmkgrModel| {
            let mut p = Vec::new();
            model.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut p);
            p
        };
        let before = forward(&model);
        let wq = model.gate.wq;
        model
            .params_mut()
            .value_mut(wq)
            .map_inplace(|v| v * 1.5 + 0.01);
        let after = forward(&model);
        assert_ne!(before, after, "the weight change must reach the policy");

        let json = model.to_json();
        assert!(!json.contains("x_table"), "the X table is not checkpointed");
        let fresh = MmkgrModel::from_json(&json).unwrap();
        let want = forward(&fresh);
        assert_eq!(
            after.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "the table must be rebuilt from the new weights"
        );
    }

    #[test]
    fn modal_ablation_changes_distribution() {
        let (kg, full) = tiny_model(Variant::Full);
        let (_, oskgr) = tiny_model(Variant::Oskgr);
        let actions = sample_actions(&kg);
        let h = vec![0.05f32; full.cfg.struct_dim];
        let mut p_full = Vec::new();
        let mut p_os = Vec::new();
        full.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut p_full);
        oskgr.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut p_os);
        assert_ne!(p_full, p_os, "modality ablation must alter the policy");
    }
}
