//! Tape-based reverse-mode automatic differentiation.
//!
//! The design is the classic dynamic-graph "micrograd" shape: every forward
//! operation eagerly computes its value and records an `Op` node on the
//! [`Tape`]; [`Tape::backward`] then walks the node list in reverse,
//! accumulating gradients. A fresh tape is built per training step, which is
//! what RL rollouts with data-dependent action spaces need.
//!
//! All values are [`Matrix`] (2-D, `f32`). Scalars are `1×1` matrices.

use std::cell::{Ref, RefCell};

use crate::matrix::Matrix;

/// Handle to a node on a [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node index on its tape (stable for the tape's lifetime).
    pub fn id(self) -> usize {
        self.0
    }
}

/// The recorded operation of a tape node. Parents are earlier nodes.
/// Some payload fields exist only for `Debug` output (e.g. the constants of
/// `AddScalar`/`MaskedFill`, whose gradients don't need them).
#[derive(Debug)]
#[allow(dead_code)]
enum Op {
    /// Leaf value (input or parameter); gradient is accumulated but has no
    /// parents to propagate to.
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    /// `a + b` where `b` is a `1×cols` row broadcast over the rows of `a`.
    AddBroadcastRow(Var, Var),
    Sub(Var, Var),
    /// Hadamard product of equal shapes.
    Mul(Var, Var),
    /// Elementwise division of equal shapes.
    Div(Var, Var),
    /// `a * c` for a compile-time constant scalar.
    Scale(Var, f32),
    AddScalar(Var, f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    /// `ln(x + eps)`; `eps` keeps the op total.
    Ln(Var, f32),
    SoftmaxRows(Var),
    LogSoftmaxRows(Var),
    /// Sum of all elements → `1×1`.
    Sum(Var),
    /// Mean of all elements → `1×1`.
    Mean(Var),
    /// Row sums → `rows×1`.
    SumRows(Var),
    /// Column sums → `1×cols`.
    SumCols(Var),
    ConcatCols(Var, Var),
    ConcatRows(Var, Var),
    Transpose(Var),
    /// Row gather (embedding lookup); backward scatter-adds.
    GatherRows(Var, Vec<usize>),
    SliceCols(Var, usize, usize),
    /// Select one element per row → `rows×1`.
    PickPerRow(Var, Vec<usize>),
    /// Where the mask is true the value is replaced by a constant (which
    /// blocks the gradient there). Used to mask invalid actions with −∞.
    MaskedFill(Var, Vec<bool>, f32),
    /// `a ⊙ b` with `b: rows×1` broadcast across columns.
    MulColBroadcast(Var, Var),
    /// `a ⊙ b` with `b: 1×cols` broadcast across rows.
    MulRowBroadcast(Var, Var),
    /// Shape reinterpretation (same element count, row-major order kept).
    Reshape(Var),
    /// Flat-index gather: `out.flat[i] = a.flat[idx[i]]` — the im2col
    /// primitive ConvE's convolution is built on.
    GatherFlat(Var, Vec<u32>),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// A dynamic computation graph. Create one per forward/backward pass.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Grads {
    grads: Vec<Option<Matrix>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. `v`, if `v` participated in the loss.
    pub fn get(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Gradient of the loss w.r.t. `v`, zero-filled if absent.
    pub fn get_or_zero(&self, v: Var, rows: usize, cols: usize) -> Matrix {
        match self.get(v) {
            Some(g) => g.clone(),
            None => Matrix::zeros(rows, cols),
        }
    }
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::with_capacity(64)),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&self, value: Matrix, op: Op) -> Var {
        debug_assert!(
            !value.has_non_finite() || matches!(op, Op::MaskedFill(..)),
            "non-finite value produced by {op:?}"
        );
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var(nodes.len() - 1)
    }

    /// Record a leaf (input or parameter) value.
    pub fn input(&self, value: Matrix) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            op: Op::Leaf,
        });
        Var(nodes.len() - 1)
    }

    /// Borrow the value of a node.
    pub fn value(&self, v: Var) -> Ref<'_, Matrix> {
        Ref::map(self.nodes.borrow(), |nodes| &nodes[v.0].value)
    }

    /// Clone the value of a node.
    pub fn value_cloned(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// The single element of a `1×1` node.
    pub fn scalar(&self, v: Var) -> f32 {
        let nodes = self.nodes.borrow();
        let m = &nodes[v.0].value;
        assert_eq!(m.shape(), (1, 1), "scalar: node is {:?}", m.shape());
        m.get(0, 0)
    }

    // ---- binary ops ------------------------------------------------------

    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.matmul(&nodes[b.0].value)
        };
        self.push(v, Op::MatMul(a, b))
    }

    pub fn add(&self, a: Var, b: Var) -> Var {
        let (v, broadcast) = {
            let nodes = self.nodes.borrow();
            let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
            if ma.shape() == mb.shape() {
                (ma.zip_map(mb, |x, y| x + y), false)
            } else {
                assert_eq!(mb.rows(), 1, "add: incompatible shapes");
                assert_eq!(ma.cols(), mb.cols(), "add: incompatible shapes");
                let mut out = ma.clone();
                for r in 0..out.rows() {
                    for (o, &x) in out.row_mut(r).iter_mut().zip(mb.row(0)) {
                        *o += x;
                    }
                }
                (out, true)
            }
        };
        if broadcast {
            self.push(v, Op::AddBroadcastRow(a, b))
        } else {
            self.push(v, Op::Add(a, b))
        }
    }

    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.zip_map(&nodes[b.0].value, |x, y| x - y)
        };
        self.push(v, Op::Sub(a, b))
    }

    /// Hadamard product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.zip_map(&nodes[b.0].value, |x, y| x * y)
        };
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise division; denominators are clamped away from zero by the
    /// caller's responsibility (used only on positive activations here).
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.zip_map(&nodes[b.0].value, |x, y| x / y)
        };
        self.push(v, Op::Div(a, b))
    }

    /// `a ⊙ b` where `b` is `rows×1`, broadcast across columns.
    pub fn mul_col_broadcast(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(mb.cols(), 1, "mul_col_broadcast: b must be rows×1");
            assert_eq!(ma.rows(), mb.rows(), "mul_col_broadcast: row mismatch");
            let mut out = ma.clone();
            for r in 0..out.rows() {
                let s = mb.get(r, 0);
                for o in out.row_mut(r) {
                    *o *= s;
                }
            }
            out
        };
        self.push(v, Op::MulColBroadcast(a, b))
    }

    /// `a ⊙ b` where `b` is `1×cols`, broadcast across rows.
    pub fn mul_row_broadcast(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
            assert_eq!(mb.rows(), 1, "mul_row_broadcast: b must be 1×cols");
            assert_eq!(ma.cols(), mb.cols(), "mul_row_broadcast: col mismatch");
            let mut out = ma.clone();
            for r in 0..out.rows() {
                for (o, &s) in out.row_mut(r).iter_mut().zip(mb.row(0)) {
                    *o *= s;
                }
            }
            out
        };
        self.push(v, Op::MulRowBroadcast(a, b))
    }

    // ---- unary ops ---------------------------------------------------

    pub fn scale(&self, a: Var, c: f32) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| x * c);
        self.push(v, Op::Scale(a, c))
    }

    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| x + c);
        self.push(v, Op::AddScalar(a, c))
    }

    pub fn neg(&self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    pub fn sigmoid(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0]
            .value
            .map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    pub fn tanh(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    pub fn relu(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    pub fn exp(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(f32::exp);
        self.push(v, Op::Exp(a))
    }

    /// Natural log with an epsilon floor: `ln(x + eps)`.
    pub fn ln_eps(&self, a: Var, eps: f32) -> Var {
        let v = self.nodes.borrow()[a.0].value.map(|x| (x + eps).ln());
        self.push(v, Op::Ln(a, eps))
    }

    pub fn softmax_rows(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows(a))
    }

    pub fn log_softmax_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            let mut out = m.clone();
            for r in 0..out.rows() {
                let row = out.row_mut(r);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let max = if max.is_finite() { max } else { 0.0 };
                let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
                for x in row {
                    *x -= lse;
                }
            }
            out
        };
        self.push(v, Op::LogSoftmaxRows(a))
    }

    pub fn sum(&self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.nodes.borrow()[a.0].value.sum());
        self.push(v, Op::Sum(a))
    }

    pub fn mean(&self, a: Var) -> Var {
        let v = Matrix::full(1, 1, self.nodes.borrow()[a.0].value.mean());
        self.push(v, Op::Mean(a))
    }

    pub fn sum_rows(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            let mut out = Matrix::zeros(m.rows(), 1);
            for r in 0..m.rows() {
                out.set(r, 0, m.row(r).iter().sum());
            }
            out
        };
        self.push(v, Op::SumRows(a))
    }

    pub fn sum_cols(&self, a: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            let mut out = Matrix::zeros(1, m.cols());
            for r in 0..m.rows() {
                for (o, &x) in out.row_mut(0).iter_mut().zip(m.row(r)) {
                    *o += x;
                }
            }
            out
        };
        self.push(v, Op::SumCols(a))
    }

    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.concat_cols(&nodes[b.0].value)
        };
        self.push(v, Op::ConcatCols(a, b))
    }

    pub fn concat_rows(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.concat_rows(&nodes[b.0].value)
        };
        self.push(v, Op::ConcatRows(a, b))
    }

    pub fn transpose(&self, a: Var) -> Var {
        let v = self.nodes.borrow()[a.0].value.transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Embedding lookup: gather rows of `a` (typically a parameter matrix).
    pub fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        let v = self.nodes.borrow()[a.0].value.gather_rows(indices);
        self.push(v, Op::GatherRows(a, indices.to_vec()))
    }

    pub fn slice_cols(&self, a: Var, start: usize, end: usize) -> Var {
        let v = self.nodes.borrow()[a.0].value.slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// Select element `indices[r]` from each row `r` → `rows×1`.
    pub fn pick_per_row(&self, a: Var, indices: &[usize]) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            assert_eq!(indices.len(), m.rows(), "pick_per_row: index count");
            let mut out = Matrix::zeros(m.rows(), 1);
            for (r, &c) in indices.iter().enumerate() {
                out.set(r, 0, m.get(r, c));
            }
            out
        };
        self.push(v, Op::PickPerRow(a, indices.to_vec()))
    }

    /// Replace masked elements with `fill` (no gradient flows through the
    /// filled positions). `mask` is row-major over the whole matrix.
    pub fn masked_fill(&self, a: Var, mask: &[bool], fill: f32) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let m = &nodes[a.0].value;
            assert_eq!(mask.len(), m.len(), "masked_fill: mask length");
            let mut out = m.clone();
            for (o, &masked) in out.as_mut_slice().iter_mut().zip(mask) {
                if masked {
                    *o = fill;
                }
            }
            out
        };
        self.push(v, Op::MaskedFill(a, mask.to_vec(), fill))
    }

    /// Reinterpret shape (element count must match).
    pub fn reshape(&self, a: Var, rows: usize, cols: usize) -> Var {
        let v = self.nodes.borrow()[a.0].value.clone().reshaped(rows, cols);
        self.push(v, Op::Reshape(a))
    }

    /// Flat gather into a `rows×cols` matrix: `out.flat[i] = a.flat[idx[i]]`.
    /// Indices may repeat; the backward pass scatter-adds.
    pub fn gather_flat(&self, a: Var, idx: &[u32], rows: usize, cols: usize) -> Var {
        assert_eq!(
            idx.len(),
            rows * cols,
            "gather_flat: index count != rows*cols"
        );
        let v = {
            let nodes = self.nodes.borrow();
            let src = nodes[a.0].value.as_slice();
            let data: Vec<f32> = idx.iter().map(|&i| src[i as usize]).collect();
            Matrix::from_vec(rows, cols, data)
        };
        self.push(v, Op::GatherFlat(a, idx.to_vec()))
    }

    // ---- backward ------------------------------------------------------

    /// Reverse-mode sweep from a `1×1` loss node. Returns per-node grads.
    pub fn backward(&self, loss: Var) -> Grads {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be 1×1"
        );
        let mut grads: Vec<Option<Matrix>> = Vec::with_capacity(nodes.len());
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(Matrix::ones(1, 1));

        for id in (0..=loss.0).rev() {
            let Some(g) = grads[id].take() else { continue };
            let node = &nodes[id];
            match &node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
                    acc(&mut grads, *a, g.matmul_nt(mb));
                    acc(&mut grads, *b, ma.matmul_tn(&g));
                }
                Op::Add(a, b) => {
                    acc(&mut grads, *a, g.clone());
                    acc(&mut grads, *b, g.clone());
                }
                Op::AddBroadcastRow(a, b) => {
                    acc(&mut grads, *a, g.clone());
                    let mut gb = Matrix::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (o, &x) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                            *o += x;
                        }
                    }
                    acc(&mut grads, *b, gb);
                }
                Op::Sub(a, b) => {
                    acc(&mut grads, *a, g.clone());
                    acc(&mut grads, *b, g.map(|x| -x));
                }
                Op::Mul(a, b) => {
                    let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
                    acc(&mut grads, *a, g.zip_map(mb, |gv, bv| gv * bv));
                    acc(&mut grads, *b, g.zip_map(ma, |gv, av| gv * av));
                }
                Op::Div(a, b) => {
                    let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
                    acc(&mut grads, *a, g.zip_map(mb, |gv, bv| gv / bv));
                    let mut gb = Matrix::zeros(mb.rows(), mb.cols());
                    for i in 0..gb.len() {
                        let (gv, av, bv) = (g.as_slice()[i], ma.as_slice()[i], mb.as_slice()[i]);
                        gb.as_mut_slice()[i] = -gv * av / (bv * bv);
                    }
                    acc(&mut grads, *b, gb);
                }
                Op::Scale(a, c) => acc(&mut grads, *a, g.map(|x| x * c)),
                Op::AddScalar(a, _) => acc(&mut grads, *a, g.clone()),
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    acc(&mut grads, *a, g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv)));
                }
                Op::Tanh(a) => {
                    let y = &node.value;
                    acc(&mut grads, *a, g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv)));
                }
                Op::Relu(a) => {
                    let x = &nodes[a.0].value;
                    acc(
                        &mut grads,
                        *a,
                        g.zip_map(x, |gv, xv| if xv > 0.0 { gv } else { 0.0 }),
                    );
                }
                Op::Exp(a) => {
                    let y = &node.value;
                    acc(&mut grads, *a, g.zip_map(y, |gv, yv| gv * yv));
                }
                Op::Ln(a, eps) => {
                    let x = &nodes[a.0].value;
                    acc(&mut grads, *a, g.zip_map(x, |gv, xv| gv / (xv + eps)));
                }
                Op::SoftmaxRows(a) => {
                    let y = &node.value;
                    let mut gx = Matrix::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(y.row(r))
                            .map(|(&gv, &yv)| gv * yv)
                            .sum();
                        for ((o, &gv), &yv) in gx.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r))
                        {
                            *o = yv * (gv - dot);
                        }
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::LogSoftmaxRows(a) => {
                    let y = &node.value; // y = log softmax(x)
                    let mut gx = Matrix::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gsum: f32 = g.row(r).iter().sum();
                        for ((o, &gv), &yv) in gx.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r))
                        {
                            *o = gv - yv.exp() * gsum;
                        }
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::Sum(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    acc(&mut grads, *a, Matrix::full(r, c, g.get(0, 0)));
                }
                Op::Mean(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let n = (r * c).max(1) as f32;
                    acc(&mut grads, *a, Matrix::full(r, c, g.get(0, 0) / n));
                }
                Op::SumRows(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut gx = Matrix::zeros(r, c);
                    for i in 0..r {
                        let gv = g.get(i, 0);
                        gx.row_mut(i).iter_mut().for_each(|o| *o = gv);
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::SumCols(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut gx = Matrix::zeros(r, c);
                    for i in 0..r {
                        gx.row_mut(i).copy_from_slice(g.row(0));
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::ConcatCols(a, b) => {
                    let ca = nodes[a.0].value.cols();
                    acc(&mut grads, *a, g.slice_cols(0, ca));
                    acc(&mut grads, *b, g.slice_cols(ca, g.cols()));
                }
                Op::ConcatRows(a, b) => {
                    let ra = nodes[a.0].value.rows();
                    let rows: Vec<usize> = (0..ra).collect();
                    acc(&mut grads, *a, g.gather_rows(&rows));
                    let rows: Vec<usize> = (ra..g.rows()).collect();
                    acc(&mut grads, *b, g.gather_rows(&rows));
                }
                Op::Transpose(a) => acc(&mut grads, *a, g.transpose()),
                Op::GatherRows(a, idx) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut gx = Matrix::zeros(r, c);
                    for (out_r, &src_r) in idx.iter().enumerate() {
                        let grow = g.row(out_r);
                        for (o, &x) in gx.row_mut(src_r).iter_mut().zip(grow) {
                            *o += x;
                        }
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::SliceCols(a, start, _end) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut gx = Matrix::zeros(r, c);
                    for i in 0..r {
                        let dst = &mut gx.row_mut(i)[*start..*start + g.cols()];
                        dst.copy_from_slice(g.row(i));
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::PickPerRow(a, idx) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut gx = Matrix::zeros(r, c);
                    for (i, &col) in idx.iter().enumerate() {
                        gx.set(i, col, g.get(i, 0));
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::MaskedFill(a, mask, _) => {
                    let mut gx = g.clone();
                    for (o, &masked) in gx.as_mut_slice().iter_mut().zip(mask) {
                        if masked {
                            *o = 0.0;
                        }
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::MulColBroadcast(a, b) => {
                    let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = g.clone();
                    for r in 0..ga.rows() {
                        let s = mb.get(r, 0);
                        for o in ga.row_mut(r) {
                            *o *= s;
                        }
                    }
                    acc(&mut grads, *a, ga);
                    let mut gb = Matrix::zeros(mb.rows(), 1);
                    for r in 0..g.rows() {
                        let dot: f32 = g
                            .row(r)
                            .iter()
                            .zip(ma.row(r))
                            .map(|(&gv, &av)| gv * av)
                            .sum();
                        gb.set(r, 0, dot);
                    }
                    acc(&mut grads, *b, gb);
                }
                Op::Reshape(a) => {
                    let (r, c) = nodes[a.0].value.shape();
                    acc(&mut grads, *a, g.clone().reshaped(r, c));
                }
                Op::GatherFlat(a, idx) => {
                    let (r, c) = nodes[a.0].value.shape();
                    let mut gx = Matrix::zeros(r, c);
                    let buf = gx.as_mut_slice();
                    for (out_i, &src_i) in idx.iter().enumerate() {
                        buf[src_i as usize] += g.as_slice()[out_i];
                    }
                    acc(&mut grads, *a, gx);
                }
                Op::MulRowBroadcast(a, b) => {
                    let (ma, mb) = (&nodes[a.0].value, &nodes[b.0].value);
                    let mut ga = g.clone();
                    for r in 0..ga.rows() {
                        for (o, &s) in ga.row_mut(r).iter_mut().zip(mb.row(0)) {
                            *o *= s;
                        }
                    }
                    acc(&mut grads, *a, ga);
                    let mut gb = Matrix::zeros(1, mb.cols());
                    for r in 0..g.rows() {
                        for ((o, &gv), &av) in gb.row_mut(0).iter_mut().zip(g.row(r)).zip(ma.row(r))
                        {
                            *o += gv * av;
                        }
                    }
                    acc(&mut grads, *b, gb);
                }
            }
            grads[id] = Some(g);
        }
        Grads { grads }
    }
}

fn acc(grads: &mut [Option<Matrix>], v: Var, delta: Matrix) {
    match &mut grads[v.0] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.input(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let c = t.matmul(a, b);
        assert_eq!(t.scalar(c), 11.0);
    }

    #[test]
    fn simple_chain_gradient() {
        // loss = sum(sigmoid(a * 2))
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(1, 2, vec![0.0, 1.0]));
        let s = t.scale(a, 2.0);
        let y = t.sigmoid(s);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        let ga = grads.get(a).unwrap();
        // d/dx sigmoid(2x) * 2 at x=0 is 0.5*0.5*2 = 0.5
        assert!((ga.get(0, 0) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradient_shapes() {
        let t = Tape::new();
        let a = t.input(Matrix::ones(2, 3));
        let b = t.input(Matrix::ones(3, 4));
        let c = t.matmul(a, b);
        let loss = t.sum(c);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), (2, 3));
        assert_eq!(g.get(b).unwrap().shape(), (3, 4));
        // each element of a multiplies 4 ones
        assert!((g.get(a).unwrap().get(0, 0) - 4.0).abs() < 1e-6);
        assert!((g.get(b).unwrap().get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gather_scatter_accumulates() {
        let t = Tape::new();
        let emb = t.input(Matrix::from_fn(3, 2, |r, _| r as f32));
        let g = t.gather_rows(emb, &[1, 1, 2]);
        let loss = t.sum(g);
        let grads = t.backward(loss);
        let ge = grads.get(emb).unwrap();
        assert_eq!(ge.row(0), &[0.0, 0.0]);
        assert_eq!(ge.row(1), &[2.0, 2.0]); // gathered twice
        assert_eq!(ge.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn masked_fill_blocks_gradient() {
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let m = t.masked_fill(a, &[false, true, false], -1e9);
        let s = t.softmax_rows(m);
        let p = t.pick_per_row(s, &[0]);
        let loss = t.sum(p);
        let grads = t.backward(loss);
        let ga = grads.get(a).unwrap();
        assert_eq!(ga.get(0, 1), 0.0, "masked position must get zero grad");
        assert!(ga.get(0, 0).abs() > 0.0);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, -1.0, 0.0, 1.0]));
        let ls = t.log_softmax_rows(a);
        let s = t.softmax_rows(a);
        let lsv = t.value_cloned(ls);
        let sv = t.value_cloned(s);
        for i in 0..lsv.len() {
            assert!((lsv.as_slice()[i] - sv.as_slice()[i].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn pick_per_row_selects() {
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let p = t.pick_per_row(a, &[2, 0]);
        let v = t.value_cloned(p);
        assert_eq!(v.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn broadcast_add_row() {
        let t = Tape::new();
        let a = t.input(Matrix::zeros(2, 3));
        let b = t.input(Matrix::from_vec(1, 3, vec![1., 2., 3.]));
        let c = t.add(a, b);
        let v = t.value_cloned(c);
        assert_eq!(v.row(0), &[1., 2., 3.]);
        assert_eq!(v.row(1), &[1., 2., 3.]);
        let loss = t.sum(c);
        let g = t.backward(loss);
        assert_eq!(g.get(b).unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn diamond_graph_accumulates_grads() {
        // loss = sum(a*a + a) — a is used twice
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(1, 1, vec![3.0]));
        let sq = t.mul(a, a);
        let s = t.add(sq, a);
        let loss = t.sum(s);
        let g = t.backward(loss);
        // d/da (a² + a) = 2a + 1 = 7
        assert!((g.get(a).unwrap().get(0, 0) - 7.0).abs() < 1e-5);
    }

    #[test]
    fn scalar_panics_on_non_scalar() {
        let t = Tape::new();
        let a = t.input(Matrix::zeros(2, 2));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.scalar(a)));
        assert!(result.is_err());
    }

    #[test]
    fn col_broadcast_mul_grad() {
        let t = Tape::new();
        let a = t.input(Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = t.input(Matrix::from_vec(2, 1, vec![10., 100.]));
        let c = t.mul_col_broadcast(a, b);
        let v = t.value_cloned(c);
        assert_eq!(v.as_slice(), &[10., 20., 300., 400.]);
        let loss = t.sum(c);
        let g = t.backward(loss);
        assert_eq!(g.get(b).unwrap().as_slice(), &[3.0, 7.0]);
        assert_eq!(g.get(a).unwrap().as_slice(), &[10., 10., 100., 100.]);
    }
}
