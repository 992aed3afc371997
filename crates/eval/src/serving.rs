//! [`ReasonerBuilder`]: dataset → substrate → model →
//! `Arc<dyn KgReasoner + Send + Sync>` in one call.
//!
//! This is the construction half of the unified serving API
//! (`mmkgr_core::serve`): it absorbs the model-assembly recipes that were
//! previously copy-pasted across the CLI, the `mmkgr-bench` binaries, and
//! the examples. Every model family the paper evaluates — MMKGR and its
//! variants, the MINERVA/RLH/FIRE walkers, and the full Table-I KGE
//! family — builds through the same three stages:
//!
//! 1. **dataset**: deterministic synthetic MKG from `(dataset, scale,
//!    seed)` (via [`Harness`], which also samples eval triples);
//! 2. **substrate**: shared TransE init and ConvE reward shaper, trained
//!    once and cached on the harness;
//! 3. **model**: the [`ModelChoice`], trained at harness scale and
//!    wrapped in a [`PolicyReasoner`] or [`ScorerReasoner`].
//!
//! ```no_run
//! use mmkgr_eval::{Dataset, ModelChoice, ReasonerBuilder, ScaleChoice};
//! use mmkgr_core::serve::{KgReasoner, Query};
//!
//! let built = ReasonerBuilder::new(Dataset::Wn9ImgTxt, ScaleChoice::Quick)
//!     .model(ModelChoice::Mmkgr(mmkgr_core::Variant::Full))
//!     .build();
//! let t = built.harness.eval_triples[0];
//! let answer = built.reasoner.answer(&Query::new(t.s, t.r));
//! println!("{} says: {:?}", built.reasoner.name(), answer.top());
//! ```

use std::sync::Arc;

use mmkgr_core::serve::{
    KgReasoner, ModelRegistry, NameIndex, PolicyReasoner, Retriever, ScorerReasoner, ServeConfig,
};
use mmkgr_core::{MmkgrModel, Variant};
use mmkgr_embed::{
    ComplEx, ConvE, DistMult, Hole, Ikrl, KgeTrainConfig, Rescal, TransAe, TransD, TransE,
    TripleScorer,
};
use mmkgr_kg::{EntityId, KnowledgeGraph, ModalPresence, RelationId};
use mmkgr_nn::Params;

use crate::harness::{Dataset, Harness, HarnessConfig, ScaleChoice};

/// Every model the unified serving protocol covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ModelChoice {
    /// MMKGR or one of its §V ablation variants.
    Mmkgr(Variant),
    /// MINERVA walker (structure-only RL baseline).
    Minerva,
    /// RLH walker (hierarchical relation clusters).
    Rlh,
    /// FIRE walker (TransE-pruned action space).
    Fire,
    // --- Table-I single-hop family ---
    TransE,
    TransD,
    DistMult,
    ComplEx,
    Rescal,
    Hole,
    ConvE,
    Ikrl,
    TransAe,
    Mtrl,
    // --- other multi-hop comparators ---
    Gaats,
    NeuralLp,
}

impl ModelChoice {
    pub fn name(&self) -> &'static str {
        match self {
            ModelChoice::Mmkgr(v) => v.name(),
            ModelChoice::Minerva => "MINERVA",
            ModelChoice::Rlh => "RLH",
            ModelChoice::Fire => "FIRE",
            ModelChoice::TransE => "TransE",
            ModelChoice::TransD => "TransD",
            ModelChoice::DistMult => "DistMult",
            ModelChoice::ComplEx => "ComplEx",
            ModelChoice::Rescal => "RESCAL",
            ModelChoice::Hole => "HolE",
            ModelChoice::ConvE => "ConvE",
            ModelChoice::Ikrl => "IKRL",
            ModelChoice::TransAe => "TransAE",
            ModelChoice::Mtrl => "MTRL",
            ModelChoice::Gaats => "GAATs",
            ModelChoice::NeuralLp => "NeuralLP",
        }
    }

    /// Parse a model name (the CLI's `--models` list and config files).
    /// Case-insensitive; accepts every [`Self::name`] plus the MMKGR
    /// ablation variant codes (`OSKGR`, `STKGR`, …).
    pub fn parse(s: &str) -> Result<ModelChoice, String> {
        Ok(match s.to_ascii_uppercase().as_str() {
            "MMKGR" | "FULL" => ModelChoice::Mmkgr(Variant::Full),
            "OSKGR" => ModelChoice::Mmkgr(Variant::Oskgr),
            "STKGR" => ModelChoice::Mmkgr(Variant::Stkgr),
            "SIKGR" => ModelChoice::Mmkgr(Variant::Sikgr),
            "FAKGR" => ModelChoice::Mmkgr(Variant::Fakgr),
            "FGKGR" => ModelChoice::Mmkgr(Variant::Fgkgr),
            "DEKGR" => ModelChoice::Mmkgr(Variant::Dekgr),
            "DSKGR" => ModelChoice::Mmkgr(Variant::Dskgr),
            "DVKGR" => ModelChoice::Mmkgr(Variant::Dvkgr),
            "ZOKGR" => ModelChoice::Mmkgr(Variant::Zokgr),
            "MINERVA" => ModelChoice::Minerva,
            "RLH" => ModelChoice::Rlh,
            "FIRE" => ModelChoice::Fire,
            "TRANSE" => ModelChoice::TransE,
            "TRANSD" => ModelChoice::TransD,
            "DISTMULT" => ModelChoice::DistMult,
            "COMPLEX" => ModelChoice::ComplEx,
            "RESCAL" => ModelChoice::Rescal,
            "HOLE" => ModelChoice::Hole,
            "CONVE" => ModelChoice::ConvE,
            "IKRL" => ModelChoice::Ikrl,
            "TRANSAE" => ModelChoice::TransAe,
            "MTRL" => ModelChoice::Mtrl,
            "GAATS" => ModelChoice::Gaats,
            "NEURALLP" => ModelChoice::NeuralLp,
            other => return Err(format!("unknown model `{other}`")),
        })
    }
}

/// A built serving stack: the reasoner plus the harness that owns the
/// dataset it serves (kept for test queries, filtered-eval sets, and for
/// building further models over the same substrate).
pub struct BuiltReasoner {
    pub reasoner: Arc<dyn KgReasoner + Send + Sync>,
    pub harness: Harness,
}

/// Fluent construction of a served reasoner. See the module docs.
pub struct ReasonerBuilder {
    cfg: HarnessConfig,
    choice: ModelChoice,
    serve: Option<ServeConfig>,
}

impl ReasonerBuilder {
    pub fn new(dataset: Dataset, scale: ScaleChoice) -> Self {
        ReasonerBuilder {
            cfg: HarnessConfig::new(dataset, scale),
            choice: ModelChoice::Mmkgr(Variant::Full),
            serve: None,
        }
    }

    /// Select the model family to train and serve (default: full MMKGR).
    pub fn model(mut self, choice: ModelChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Adjust harness knobs (epochs, eval cap, seed, …) before training.
    pub fn tune(mut self, f: impl FnOnce(&mut HarnessConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Serving defaults (beam width, step horizon, frontier-cache
    /// capacity). Defaults to the harness beam, the paper's T = 4 and no
    /// cache.
    pub fn serve_config(mut self, serve: ServeConfig) -> Self {
        self.serve = Some(serve);
        self
    }

    /// Build the dataset + substrates, train the model, and wrap it.
    pub fn build(self) -> BuiltReasoner {
        let harness = Harness::new(self.cfg);
        let serve = self.serve.unwrap_or(ServeConfig {
            beam_width: harness.cfg.beam,
            max_steps: 4,
            ..ServeConfig::default()
        });
        let reasoner = build_reasoner(&harness, self.choice, serve);
        BuiltReasoner { reasoner, harness }
    }
}

/// The name-resolution index of a harness's synthetic dataset: entities
/// `e0..`, base relations `r0..` — the same convention `mmkgr generate`
/// exports, so TSV dumps and the wire protocol agree on names.
pub fn harness_name_index(h: &Harness) -> NameIndex {
    NameIndex::synthetic(h.kg.num_entities(), h.kg.num_base_relations())
}

/// Train every `choice` over one shared harness and host them in a
/// [`ModelRegistry`] — the construction half of `mmkgr serve`. The first
/// choice becomes the registry default.
pub fn build_registry(h: &Harness, choices: &[ModelChoice], serve: ServeConfig) -> ModelRegistry {
    let mut registry = ModelRegistry::new(harness_name_index(h));
    for &choice in choices {
        registry.register(build_reasoner(h, choice, serve));
    }
    registry.set_retriever(Arc::new(harness_retriever(h)));
    registry
}

/// The `/v1/retrieve` back end over a harness's dataset: k-hop subgraphs
/// annotated with the modal bank's per-entity image/text presence, and
/// few-shot relation tags from the training-split frequencies (the same
/// counts `mmkgr stats` and the few-shot bench report).
pub fn harness_retriever(h: &Harness) -> Retriever {
    Retriever::new(h.graph_arc())
        .with_modal_presence(ModalPresence::from_bank(&h.kg.modal))
        .with_relation_frequencies(crate::fewshot::relation_frequencies(&h.kg.split.train))
}

/// Reconstruction recipe for a snapshotted KGE scorer: re-running the
/// model's deterministic constructor with these arguments rebuilds a
/// parameter arena of identical shape (same tensors in the same order),
/// which a snapshot's flat weight section then overwrites. See
/// [`crate::snapshot`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct KgeSpec {
    /// Model kind tag (matches [`ModelChoice::name`]).
    pub model: &'static str,
    /// Embedding dimension passed to the constructor.
    pub dim: usize,
    /// Init seed passed to the constructor.
    pub seed: u64,
    /// `(img_h, img_w, channels)` for ConvE's image-plane constructor.
    pub img: Option<(usize, usize, usize)>,
}

/// A trained KGE scorer whose parameters live in a [`Params`] arena —
/// the snapshotable subset of the Table-I family. Delegates every
/// [`TripleScorer`] method so serving through this wrapper is
/// bit-identical to serving the concrete model.
pub enum KgeModel {
    TransE(Arc<TransE>),
    ConvE(Arc<ConvE>),
    TransD(TransD),
    DistMult(DistMult),
    ComplEx(ComplEx),
    Rescal(Rescal),
    Hole(Hole),
}

impl KgeModel {
    /// The trained parameter arena (flattened into snapshots).
    pub fn params(&self) -> &Params {
        match self {
            KgeModel::TransE(m) => &m.params,
            KgeModel::ConvE(m) => &m.params,
            KgeModel::TransD(m) => &m.params,
            KgeModel::DistMult(m) => &m.params,
            KgeModel::ComplEx(m) => &m.params,
            KgeModel::Rescal(m) => &m.params,
            KgeModel::Hole(m) => &m.params,
        }
    }
}

impl TripleScorer for KgeModel {
    fn score(&self, s: EntityId, r: RelationId, o: EntityId) -> f32 {
        match self {
            KgeModel::TransE(m) => m.score(s, r, o),
            KgeModel::ConvE(m) => m.score(s, r, o),
            KgeModel::TransD(m) => m.score(s, r, o),
            KgeModel::DistMult(m) => m.score(s, r, o),
            KgeModel::ComplEx(m) => m.score(s, r, o),
            KgeModel::Rescal(m) => m.score(s, r, o),
            KgeModel::Hole(m) => m.score(s, r, o),
        }
    }

    // Forward the vectorized paths too — the wrapper must not silently
    // fall back to the pointwise default.
    fn score_all_objects(&self, s: EntityId, r: RelationId, n: usize, out: &mut Vec<f32>) {
        match self {
            KgeModel::TransE(m) => m.score_all_objects(s, r, n, out),
            KgeModel::ConvE(m) => m.score_all_objects(s, r, n, out),
            KgeModel::TransD(m) => m.score_all_objects(s, r, n, out),
            KgeModel::DistMult(m) => m.score_all_objects(s, r, n, out),
            KgeModel::ComplEx(m) => m.score_all_objects(s, r, n, out),
            KgeModel::Rescal(m) => m.score_all_objects(s, r, n, out),
            KgeModel::Hole(m) => m.score_all_objects(s, r, n, out),
        }
    }

    fn score_objects_range(
        &self,
        s: EntityId,
        r: RelationId,
        lo: usize,
        hi: usize,
        out: &mut Vec<f32>,
    ) {
        match self {
            KgeModel::TransE(m) => m.score_objects_range(s, r, lo, hi, out),
            KgeModel::ConvE(m) => m.score_objects_range(s, r, lo, hi, out),
            KgeModel::TransD(m) => m.score_objects_range(s, r, lo, hi, out),
            KgeModel::DistMult(m) => m.score_objects_range(s, r, lo, hi, out),
            KgeModel::ComplEx(m) => m.score_objects_range(s, r, lo, hi, out),
            KgeModel::Rescal(m) => m.score_objects_range(s, r, lo, hi, out),
            KgeModel::Hole(m) => m.score_objects_range(s, r, lo, hi, out),
        }
    }
}

/// A trained model, separated from the reasoner it will be served as —
/// the snapshot writer encodes this, the serving path wraps it via
/// [`TrainedModel::into_reasoner`]. Both halves therefore share one
/// training run.
pub struct TrainedModel {
    /// Registry/display name (e.g. `"MMKGR"`, `"TransE"`).
    pub name: String,
    pub kind: TrainedModelKind,
}

pub enum TrainedModelKind {
    /// An MMKGR-family policy. Snapshots store its self-contained JSON
    /// checkpoint ([`MmkgrModel::to_json`]).
    Mmkgr(Box<MmkgrModel>),
    /// A KGE scorer with a deterministic reconstruction recipe; snapshots
    /// store the flat f32 parameters plus the [`KgeSpec`].
    Kge { model: KgeModel, spec: KgeSpec },
    /// Served as-is but not snapshotable: the baseline walkers (whose
    /// policies have no stable checkpoint format) and the modal/composite
    /// scorers (whose reconstruction needs the modal bank).
    Opaque(Arc<dyn KgReasoner + Send + Sync>),
}

impl TrainedModel {
    /// Wrap into the unified serving protocol over `graph`.
    pub fn into_reasoner(
        self,
        graph: Arc<KnowledgeGraph>,
        serve: ServeConfig,
    ) -> Arc<dyn KgReasoner + Send + Sync> {
        let n_ent = graph.num_entities();
        let rs = graph.relations();
        match self.kind {
            TrainedModelKind::Mmkgr(model) => {
                Arc::new(PolicyReasoner::new(self.name, *model, graph, serve))
            }
            TrainedModelKind::Kge { model, .. } => {
                Arc::new(ScorerReasoner::new(self.name, model, n_ent, rs))
            }
            TrainedModelKind::Opaque(r) => r,
        }
    }
}

/// Train `choice` on an existing harness (shared dataset + substrates),
/// keeping the trained model separate from its serving wrapper so the
/// snapshot writer can encode it. `serve` is only consumed by the model
/// families that must wrap immediately (the non-snapshotable walkers).
pub fn train_model(h: &Harness, choice: ModelChoice, serve: ServeConfig) -> TrainedModel {
    let name = choice.name().to_string();
    let n_ent = h.kg.num_entities();
    let n_rel = h.relation_total();
    let dim = h.cfg.struct_dim;
    let kge_cfg = KgeTrainConfig::default()
        .with_epochs(h.cfg.kge_epochs)
        .with_seed(h.cfg.seed ^ 0xA11);
    let rs = h.kg.graph.relations();

    // Shapes the per-family `KgeSpec` (constructor args must mirror the
    // actual construction below and in `Harness::{transe,conve}`).
    let spec = |model: &'static str, seed: u64| KgeSpec {
        model,
        dim,
        seed,
        img: None,
    };
    let kge = |model: KgeModel, spec: KgeSpec| TrainedModel {
        name: name.clone(),
        kind: TrainedModelKind::Kge { model, spec },
    };

    match choice {
        ModelChoice::Mmkgr(v) => {
            let (trainer, _) = h.train_variant(v);
            TrainedModel {
                name,
                kind: TrainedModelKind::Mmkgr(Box::new(trainer.model)),
            }
        }
        ModelChoice::Minerva => {
            let (w, _) = h.train_minerva();
            TrainedModel {
                name: name.clone(),
                kind: TrainedModelKind::Opaque(Arc::new(PolicyReasoner::new(
                    name,
                    w,
                    h.graph_arc(),
                    serve,
                ))),
            }
        }
        ModelChoice::Rlh => {
            let (w, _) = h.train_rlh();
            TrainedModel {
                name: name.clone(),
                kind: TrainedModelKind::Opaque(Arc::new(PolicyReasoner::new(
                    name,
                    w,
                    h.graph_arc(),
                    serve,
                ))),
            }
        }
        ModelChoice::Fire => {
            let (w, _) = h.train_fire();
            TrainedModel {
                name: name.clone(),
                kind: TrainedModelKind::Opaque(Arc::new(PolicyReasoner::new(
                    name,
                    w,
                    h.graph_arc(),
                    serve,
                ))),
            }
        }
        ModelChoice::TransE => kge(KgeModel::TransE(h.transe()), spec("TransE", h.cfg.seed)),
        ModelChoice::ConvE => kge(
            KgeModel::ConvE(h.conve()),
            KgeSpec {
                model: "ConvE",
                dim,
                seed: h.cfg.seed ^ 0xC0,
                // Matches Harness::conve's 4×8 image plane, 6 channels.
                img: Some((4, 8, 6)),
            },
        ),
        ModelChoice::TransD => {
            let mut m = TransD::new(n_ent, n_rel, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            kge(KgeModel::TransD(m), spec("TransD", kge_cfg.seed))
        }
        ModelChoice::DistMult => {
            let mut m = DistMult::new(n_ent, n_rel, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            kge(KgeModel::DistMult(m), spec("DistMult", kge_cfg.seed))
        }
        ModelChoice::ComplEx => {
            let mut m = ComplEx::new(n_ent, n_rel, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            kge(KgeModel::ComplEx(m), spec("ComplEx", kge_cfg.seed))
        }
        ModelChoice::Rescal => {
            let mut m = Rescal::new(n_ent, n_rel, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            kge(KgeModel::Rescal(m), spec("RESCAL", kge_cfg.seed))
        }
        ModelChoice::Hole => {
            let mut m = Hole::new(n_ent, n_rel, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            kge(KgeModel::Hole(m), spec("HolE", kge_cfg.seed))
        }
        ModelChoice::Ikrl => {
            let mut m = Ikrl::new(n_ent, n_rel, &h.kg.modal, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            TrainedModel {
                name: name.clone(),
                kind: TrainedModelKind::Opaque(Arc::new(ScorerReasoner::new(name, m, n_ent, rs))),
            }
        }
        ModelChoice::TransAe => {
            let mut m = TransAe::new(n_ent, n_rel, &h.kg.modal, dim, kge_cfg.seed);
            m.train(&h.kg.split.train, &h.known, &kge_cfg);
            TrainedModel {
                name: name.clone(),
                kind: TrainedModelKind::Opaque(Arc::new(ScorerReasoner::new(name, m, n_ent, rs))),
            }
        }
        ModelChoice::Mtrl => TrainedModel {
            name: name.clone(),
            kind: TrainedModelKind::Opaque(Arc::new(ScorerReasoner::new(
                name,
                h.train_mtrl(),
                n_ent,
                rs,
            ))),
        },
        ModelChoice::Gaats => TrainedModel {
            name: name.clone(),
            kind: TrainedModelKind::Opaque(Arc::new(ScorerReasoner::new(
                name,
                h.train_gaats(),
                n_ent,
                rs,
            ))),
        },
        ModelChoice::NeuralLp => TrainedModel {
            name: name.clone(),
            kind: TrainedModelKind::Opaque(Arc::new(ScorerReasoner::new(
                name,
                h.train_neurallp(),
                n_ent,
                rs,
            ))),
        },
    }
}

/// Train `choice` and wrap it in the serving protocol. Used by
/// [`ReasonerBuilder`] and directly by experiment binaries that compare
/// many models on one dataset. Composition of [`train_model`] and
/// [`TrainedModel::into_reasoner`].
pub fn build_reasoner(
    h: &Harness,
    choice: ModelChoice,
    serve: ServeConfig,
) -> Arc<dyn KgReasoner + Send + Sync> {
    train_model(h, choice, serve).into_reasoner(h.graph_arc(), serve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmkgr_core::serve::{NamedQuery, Query, WorkerPool};

    fn quick_builder(choice: ModelChoice) -> ReasonerBuilder {
        ReasonerBuilder::new(Dataset::Wn9ImgTxt, ScaleChoice::Quick)
            .model(choice)
            .tune(|c| {
                c.rl_epochs = 2;
                c.kge_epochs = 2;
                c.max_eval = 10;
            })
    }

    #[test]
    fn builds_policy_reasoner_for_mmkgr() {
        let built = quick_builder(ModelChoice::Mmkgr(Variant::Full)).build();
        assert_eq!(built.reasoner.name(), "MMKGR");
        let t = built.harness.eval_triples[0];
        let a = built
            .reasoner
            .answer(&Query::new(t.s, t.r).with_beam(8).with_steps(3));
        assert!(!a.ranked.is_empty());
        assert!(
            a.ranked[0].evidence.is_some(),
            "path reasoner must attach evidence"
        );
    }

    #[test]
    fn builds_scorer_reasoner_for_conve() {
        let built = quick_builder(ModelChoice::ConvE).build();
        assert_eq!(built.reasoner.name(), "ConvE");
        let t = built.harness.eval_triples[0];
        let a = built.reasoner.answer(&Query::new(t.s, t.r).with_top_k(0));
        assert_eq!(a.ranked.len(), built.harness.kg.num_entities());
    }

    #[test]
    fn one_harness_serves_both_families() {
        let built = quick_builder(ModelChoice::Mmkgr(Variant::Full)).build();
        let conve = build_reasoner(&built.harness, ModelChoice::ConvE, ServeConfig::default());
        let t = built.harness.eval_triples[0];
        let q = Query::new(t.s, t.r).with_beam(8).with_steps(3);
        let from_policy = built.reasoner.answer(&q);
        let from_scorer = conve.answer(&q);
        assert!(!from_policy.ranked.is_empty());
        assert!(!from_scorer.ranked.is_empty());
        // Same protocol, different evidence contract.
        assert!(from_policy.ranked[0].evidence.is_some());
        assert!(from_scorer.ranked[0].evidence.is_none());
        // Batch serving works over the trait object.
        let pool = WorkerPool::new(Arc::clone(&built.reasoner), 2);
        let answers = pool.answer_batch(&[q, q]);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0], answers[1]);
    }

    #[test]
    fn model_choice_parses_every_family() {
        assert_eq!(
            ModelChoice::parse("mmkgr").unwrap(),
            ModelChoice::Mmkgr(Variant::Full)
        );
        assert_eq!(
            ModelChoice::parse("OSKGR").unwrap(),
            ModelChoice::Mmkgr(Variant::Oskgr)
        );
        assert_eq!(ModelChoice::parse("ConvE").unwrap(), ModelChoice::ConvE);
        assert_eq!(ModelChoice::parse("minerva").unwrap(), ModelChoice::Minerva);
        assert!(ModelChoice::parse("gpt4").is_err());
        // parse() inverts name() for every non-variant family.
        for choice in [
            ModelChoice::Minerva,
            ModelChoice::Rlh,
            ModelChoice::Fire,
            ModelChoice::TransE,
            ModelChoice::TransD,
            ModelChoice::DistMult,
            ModelChoice::ComplEx,
            ModelChoice::Rescal,
            ModelChoice::Hole,
            ModelChoice::ConvE,
            ModelChoice::Ikrl,
            ModelChoice::TransAe,
            ModelChoice::Mtrl,
            ModelChoice::Gaats,
            ModelChoice::NeuralLp,
        ] {
            assert_eq!(ModelChoice::parse(choice.name()).unwrap(), choice);
        }
    }

    #[test]
    fn registry_hosts_two_models_over_one_harness() {
        let built = quick_builder(ModelChoice::Mmkgr(Variant::Full)).build();
        let registry = build_registry(
            &built.harness,
            &[ModelChoice::Mmkgr(Variant::Full), ModelChoice::ConvE],
            ServeConfig::default(),
        );
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.default_model(), Some("MMKGR"));
        let t = built.harness.eval_triples[0];
        // Name-based answers agree with the in-process reasoner.
        let wire = registry
            .answer_named(
                NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
                    .with_top_k(5)
                    .with_beam(8)
                    .with_steps(3),
            )
            .unwrap();
        let direct = built.reasoner.answer(
            &Query::new(t.s, t.r)
                .with_top_k(5)
                .with_beam(8)
                .with_steps(3),
        );
        assert_eq!(wire.ranked.len(), direct.ranked.len());
        for (w, d) in wire.ranked.iter().zip(&direct.ranked) {
            assert_eq!(w.entity, format!("e{}", d.entity.0));
            assert!((w.score - d.score).abs() < 1e-6);
        }
        // The second model answers under its own name.
        let conve = registry
            .answer(&mmkgr_core::serve::AnswerRequest {
                model: Some("ConvE".to_string()),
                query: NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0)),
            })
            .unwrap();
        assert_eq!(conve.model, "ConvE");
        assert!(!conve.ranked.is_empty());
    }
}
