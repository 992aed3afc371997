//! ConvE (Dettmers et al., 2018) — the score function MMKGR's destination
//! reward uses for reward shaping (Eq. 13: `l(e_s, r_q, e_T)`).
//!
//! The subject and relation embeddings are reshaped to 2-D maps, stacked,
//! convolved (3×3, `C` channels, via im2col + matmul on the tape), passed
//! through an FC layer back to embedding width, and dot-scored against all
//! object embeddings. Trained 1-vs-all with cross-entropy, as in the paper.

use mmkgr_kg::{EntityId, RelationId, Triple, TripleSet};
use mmkgr_nn::{loss::cross_entropy, Adam, Ctx, Embedding, Linear, ParamId, Params};
use mmkgr_tensor::init::{seeded_rng, xavier};
use mmkgr_tensor::{Matrix, Tape, Var};

use crate::scorer::TripleScorer;
use crate::trainer::{batch_indices, KgeTrainConfig};

const KERNEL: usize = 3;

pub struct ConvE {
    pub params: Params,
    pub entities: Embedding,
    pub relations: Embedding,
    filters: ParamId,
    conv_bias: ParamId,
    fc: Linear,
    out_bias: ParamId,
    pub dim: usize,
    img_h: usize,
    img_w: usize,
    channels: usize,
}

impl ConvE {
    /// `dim` must factor as `img_h * img_w` with `img_h, img_w ≥ 3`.
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        img_h: usize,
        img_w: usize,
        channels: usize,
        seed: u64,
    ) -> Self {
        assert!(
            img_h >= 3 && img_w >= KERNEL,
            "image plane too small for 3×3 conv"
        );
        let dim = img_h * img_w;
        let mut params = Params::new();
        let mut rng = seeded_rng(seed);
        let entities = Embedding::new(&mut params, &mut rng, "conve.ent", num_entities, dim);
        let relations = Embedding::new(&mut params, &mut rng, "conve.rel", num_relations, dim);
        let filters = params.add("conve.filters", xavier(&mut rng, KERNEL * KERNEL, channels));
        let conv_bias = params.add("conve.conv_bias", Matrix::zeros(1, channels));
        let (out_h, out_w) = (2 * img_h - KERNEL + 1, img_w - KERNEL + 1);
        let fc = Linear::new(
            &mut params,
            &mut rng,
            "conve.fc",
            out_h * out_w * channels,
            dim,
            true,
        );
        let out_bias = params.add("conve.out_bias", Matrix::zeros(1, num_entities));
        ConvE {
            params,
            entities,
            relations,
            filters,
            conv_bias,
            fc,
            out_bias,
            dim,
            img_h,
            img_w,
            channels,
        }
    }

    fn conv_geometry(&self) -> (usize, usize) {
        (2 * self.img_h - KERNEL + 1, self.img_w - KERNEL + 1)
    }

    /// Flat im2col indices for a batch of stacked `(2h)×w` images laid out
    /// as rows of a `B×2d` matrix.
    fn im2col_indices(&self, batch: usize) -> Vec<u32> {
        let (out_h, out_w) = self.conv_geometry();
        let w = self.img_w;
        let row_len = 2 * self.dim;
        let mut idx = Vec::with_capacity(batch * out_h * out_w * KERNEL * KERNEL);
        for b in 0..batch {
            let base = (b * row_len) as u32;
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for ky in 0..KERNEL {
                        for kx in 0..KERNEL {
                            idx.push(base + ((oy + ky) * w + (ox + kx)) as u32);
                        }
                    }
                }
            }
        }
        idx
    }

    /// Tape forward: features of `(s, r)` pairs, `B×dim`.
    fn features(&self, ctx: &Ctx<'_>, s_idx: &[usize], r_idx: &[usize]) -> Var {
        let t = ctx.tape;
        let batch = s_idx.len();
        let s = self.entities.forward(ctx, s_idx);
        let r = self.relations.forward(ctx, r_idx);
        let stacked = t.concat_cols(s, r); // row-major == s-image above r-image
        let (out_h, out_w) = self.conv_geometry();
        let patches_rows = batch * out_h * out_w;
        let idx = self.im2col_indices(batch);
        let patches = t.gather_flat(stacked, &idx, patches_rows, KERNEL * KERNEL);
        let conv = t.matmul(patches, ctx.p(self.filters));
        let conv = t.add(conv, ctx.p(self.conv_bias));
        let conv = t.relu(conv);
        let flat = t.reshape(conv, batch, out_h * out_w * self.channels);
        let feat = self.fc.forward(ctx, flat);
        t.relu(feat)
    }

    /// 1-vs-all training with cross-entropy over all entities.
    pub fn train(
        &mut self,
        triples: &[Triple],
        _known: &TripleSet,
        cfg: &KgeTrainConfig,
    ) -> Vec<f32> {
        let mut rng = seeded_rng(cfg.seed);
        let mut opt = Adam::new(cfg.lr);
        let mut trace = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for batch in batch_indices(triples.len(), cfg.batch_size, &mut rng) {
                let s_idx: Vec<usize> = batch.iter().map(|&i| triples[i].s.index()).collect();
                let r_idx: Vec<usize> = batch.iter().map(|&i| triples[i].r.index()).collect();
                let o_idx: Vec<usize> = batch.iter().map(|&i| triples[i].o.index()).collect();
                let tape = Tape::new();
                let ctx = Ctx::new(&tape, &self.params);
                let feat = self.features(&ctx, &s_idx, &r_idx);
                let ent_t = tape.transpose(ctx.p(self.entities.table));
                let logits = tape.matmul(feat, ent_t);
                let logits = tape.add(logits, ctx.p(self.out_bias));
                let loss = cross_entropy(&tape, logits, &o_idx);
                epoch_loss += tape.scalar(loss);
                batches += 1;
                let grads = tape.backward(loss);
                ctx.into_leases().accumulate(&mut self.params, &grads);
                opt.step(&mut self.params);
                self.params.zero_grads();
            }
            trace.push(epoch_loss / batches.max(1) as f32);
        }
        trace
    }

    /// Tape-free forward of one `(s, r)` pair — the hot path for reward
    /// shaping during RL rollouts. Mirrors `ConvE::features` exactly
    /// (agreement is asserted by a unit test).
    pub fn features_raw(&self, s: EntityId, r: RelationId) -> Vec<f32> {
        let es = self.entities.row(&self.params, s.index());
        let er = self.relations.row(&self.params, r.index());
        let mut stacked = Vec::with_capacity(2 * self.dim);
        stacked.extend_from_slice(es);
        stacked.extend_from_slice(er);

        let (out_h, out_w) = self.conv_geometry();
        let filters = self.params.value(self.filters);
        let cbias = self.params.value(self.conv_bias);
        let w = self.img_w;
        let mut conv_out = Vec::with_capacity(out_h * out_w * self.channels);
        for oy in 0..out_h {
            for ox in 0..out_w {
                for c in 0..self.channels {
                    let mut acc = cbias.get(0, c);
                    for ky in 0..KERNEL {
                        for kx in 0..KERNEL {
                            acc += stacked[(oy + ky) * w + (ox + kx)]
                                * filters.get(ky * KERNEL + kx, c);
                        }
                    }
                    conv_out.push(acc.max(0.0));
                }
            }
        }
        // FC + ReLU
        let fcw = self.params.value(self.fc.w);
        let fcb = self.fc.b.map(|b| self.params.value(b));
        let mut feat = vec![0.0f32; self.dim];
        for (i, &x) in conv_out.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let wrow = fcw.row(i);
            for (f, &wv) in feat.iter_mut().zip(wrow) {
                *f += x * wv;
            }
        }
        if let Some(b) = fcb {
            for (f, &bv) in feat.iter_mut().zip(b.row(0)) {
                *f += bv;
            }
        }
        for f in &mut feat {
            *f = f.max(0.0);
        }
        feat
    }
}

impl TripleScorer for ConvE {
    fn score(&self, s: EntityId, r: RelationId, o: EntityId) -> f32 {
        let feat = self.features_raw(s, r);
        let eo = self.entities.row(&self.params, o.index());
        let bias = self.params.value(self.out_bias).get(0, o.index());
        feat.iter().zip(eo).map(|(a, b)| a * b).sum::<f32>() + bias
    }

    fn score_all_objects(&self, s: EntityId, r: RelationId, n: usize, out: &mut Vec<f32>) {
        let feat = self.features_raw(s, r);
        let table = self.params.value(self.entities.table);
        let bias = self.params.value(self.out_bias);
        crate::scorer::prepare_score_buffer(out, n);
        for o in 0..n {
            let row = table.row(o);
            let dot: f32 = feat.iter().zip(row).map(|(a, b)| a * b).sum();
            out.push(dot + bias.get(0, o));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_forward_matches_tape_forward() {
        let model = ConvE::new(5, 3, 3, 4, 4, 0);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &model.params);
        let feat_tape = model.features(&ctx, &[2], &[1]);
        let tape_row = tape.value_cloned(feat_tape);
        let raw = model.features_raw(EntityId(2), RelationId(1));
        for (a, b) in tape_row.row(0).iter().zip(&raw) {
            assert!((a - b).abs() < 1e-4, "tape {a} vs raw {b}");
        }
    }

    #[test]
    fn vectorized_score_all_objects_matches_pointwise() {
        let model = ConvE::new(7, 3, 3, 4, 4, 3);
        let mut out = Vec::new();
        for r in 0..3u32 {
            model.score_all_objects(EntityId(2), RelationId(r), 7, &mut out);
            assert_eq!(out.len(), 7);
            for (o, &v) in out.iter().enumerate() {
                let direct = model.score(EntityId(2), RelationId(r), EntityId(o as u32));
                assert!(
                    (v - direct).abs() < 1e-5,
                    "vectorized {v} vs pointwise {direct} at o={o}"
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let triples = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(2, 0, 3),
            Triple::new(3, 0, 0),
        ];
        let known = TripleSet::from_triples(&triples);
        let mut model = ConvE::new(4, 1, 3, 4, 4, 1);
        let cfg = KgeTrainConfig {
            epochs: 40,
            batch_size: 4,
            lr: 5e-3,
            margin: 1.0,
            seed: 2,
        };
        let trace = model.train(&triples, &known, &cfg);
        assert!(
            trace.last().unwrap() < &trace[0],
            "{:?}",
            (trace.first(), trace.last())
        );
    }

    #[test]
    fn trained_model_ranks_gold_higher() {
        let triples = vec![Triple::new(0, 0, 1), Triple::new(2, 0, 3)];
        let known = TripleSet::from_triples(&triples);
        let mut model = ConvE::new(4, 1, 3, 4, 4, 3);
        let cfg = KgeTrainConfig {
            epochs: 120,
            batch_size: 2,
            lr: 5e-3,
            margin: 1.0,
            seed: 4,
        };
        model.train(&triples, &known, &cfg);
        let gold = model.score(EntityId(0), RelationId(0), EntityId(1));
        let other = model.score(EntityId(0), RelationId(0), EntityId(2));
        assert!(gold > other, "gold {gold} !> other {other}");
    }

    #[test]
    fn probability_in_unit_interval() {
        let model = ConvE::new(4, 1, 3, 3, 2, 5);
        let p = model.probability(EntityId(0), RelationId(0), EntityId(1));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_image_plane() {
        let _ = ConvE::new(4, 1, 2, 2, 2, 0);
    }
}
