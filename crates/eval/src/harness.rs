//! Experiment harness: dataset construction, shared substrate training
//! (TransE init, ConvE shaper), model builders and evaluation entry
//! points. Every `mmkgr-bench` table/figure binary drives this.

use std::sync::{Arc, OnceLock};

use mmkgr_baselines::{
    FusedWalker, Gaats, GaatsConfig, NaiveFusion, NeuralLp, NeuralLpConfig, RlWalker, WalkerConfig,
    WalkerKind,
};
use mmkgr_core::prelude::*;
use mmkgr_core::rollout::TrainReport;
use mmkgr_datagen::{generate, GenConfig};
use mmkgr_embed::{ConvE, KgeTrainConfig, Mtrl, TransE, TripleScorer};
use mmkgr_kg::{KnowledgeGraph, MultiModalKG, RelationId, Triple, TripleSet};
use mmkgr_tensor::init::seeded_rng;
use rand::seq::SliceRandom;

use mmkgr_core::serve::{KgReasoner, PolicyReasoner, ScorerReasoner, ServeConfig};

use crate::ranker::{
    eval_policy_relation_map, eval_reasoner_entity, eval_scorer_relation_map, LinkPredictionResult,
    RelationMapResult,
};

/// The two paper datasets, plus the 60-entity `tiny` smoke dataset
/// (seconds to train end to end — CI jobs and `mmkgr serve` demos).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Dataset {
    Wn9ImgTxt,
    FbImgTxt,
    Tiny,
}

impl Dataset {
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Wn9ImgTxt => "WN9-IMG-TXT",
            Dataset::FbImgTxt => "FB-IMG-TXT",
            Dataset::Tiny => "TINY",
        }
    }

    fn gen_config(&self, scale: f64) -> GenConfig {
        let base = match self {
            Dataset::Wn9ImgTxt => GenConfig::wn9_img_txt(),
            Dataset::FbImgTxt => GenConfig::fb_img_txt(),
            Dataset::Tiny => GenConfig::tiny(),
        };
        if (scale - 1.0).abs() < 1e-9 {
            base
        } else {
            base.scaled(scale)
        }
    }
}

/// Run size for experiment binaries (`--scale quick|standard|full`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScaleChoice {
    /// Seconds per model — CI smoke runs.
    Quick,
    /// A couple of minutes per table — the default.
    Standard,
    /// Tens of minutes — closest to the paper's training budget.
    Full,
}

impl ScaleChoice {
    /// Parse from process args; default Standard.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return match w[1].as_str() {
                    "quick" => ScaleChoice::Quick,
                    "standard" => ScaleChoice::Standard,
                    "full" => ScaleChoice::Full,
                    other => panic!("unknown --scale {other} (quick|standard|full)"),
                };
            }
        }
        ScaleChoice::Standard
    }
}

/// Datasets selected by `--datasets wn9|fb|both` (default both) — lets a
/// long experiment be re-run for one dataset without paying for the
/// other.
pub fn datasets_from_args() -> Vec<Dataset> {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--datasets" {
            return match w[1].as_str() {
                "wn9" => vec![Dataset::Wn9ImgTxt],
                "fb" => vec![Dataset::FbImgTxt],
                "both" => vec![Dataset::Wn9ImgTxt, Dataset::FbImgTxt],
                other => panic!("unknown --datasets {other} (wn9|fb|both)"),
            };
        }
    }
    vec![Dataset::Wn9ImgTxt, Dataset::FbImgTxt]
}

/// All knobs an experiment needs.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    pub dataset: Dataset,
    pub dataset_scale: f64,
    pub rl_epochs: usize,
    pub kge_epochs: usize,
    /// Test triples used for evaluation (capped; deterministic sample).
    pub max_eval: usize,
    pub beam: usize,
    pub struct_dim: usize,
    /// Distractor relations per Table IV query.
    pub relation_candidates: usize,
    /// Rollouts per training query (RL exploration multiplicity).
    pub rollouts: usize,
    pub seed: u64,
}

impl HarnessConfig {
    pub fn new(dataset: Dataset, scale: ScaleChoice) -> Self {
        // Beam widths follow the MINERVA evaluation protocol the paper
        // inherits (≈100 test rollouts per query): path-ranking models
        // can only rank entities some beam reaches, so narrow beams cap
        // their metrics irrespective of policy quality.
        let (dataset_scale, rl_epochs, kge_epochs, max_eval, beam) = match (dataset, scale) {
            (Dataset::Wn9ImgTxt, ScaleChoice::Quick) => (0.05, 12, 10, 60, 16),
            (Dataset::Wn9ImgTxt, ScaleChoice::Standard) => (0.1, 25, 25, 200, 48),
            (Dataset::Wn9ImgTxt, ScaleChoice::Full) => (1.0, 50, 40, 500, 96),
            (Dataset::FbImgTxt, ScaleChoice::Quick) => (0.01, 10, 10, 60, 16),
            (Dataset::FbImgTxt, ScaleChoice::Standard) => (0.02, 15, 15, 120, 48),
            (Dataset::FbImgTxt, ScaleChoice::Full) => (0.15, 40, 30, 400, 96),
            (Dataset::Tiny, ScaleChoice::Quick) => (1.0, 3, 3, 30, 8),
            (Dataset::Tiny, ScaleChoice::Standard) => (1.0, 8, 8, 60, 16),
            (Dataset::Tiny, ScaleChoice::Full) => (1.0, 15, 15, 100, 32),
        };
        let rollouts = match scale {
            ScaleChoice::Quick => 1,
            _ => 2,
        };
        HarnessConfig {
            dataset,
            dataset_scale,
            rl_epochs,
            kge_epochs,
            max_eval,
            beam,
            struct_dim: 32,
            relation_candidates: 16,
            rollouts,
            seed: 2023,
        }
    }
}

/// Shared experiment state: the dataset plus lazily-trained substrates.
pub struct Harness {
    pub cfg: HarnessConfig,
    pub kg: MultiModalKG,
    pub known: TripleSet,
    /// Deterministically sampled evaluation triples.
    pub eval_triples: Vec<Triple>,
    transe: OnceLock<Arc<TransE>>,
    conve: OnceLock<Arc<ConvE>>,
    graph_arc: OnceLock<Arc<KnowledgeGraph>>,
}

impl Harness {
    pub fn new(cfg: HarnessConfig) -> Self {
        let kg = generate(&cfg.dataset.gen_config(cfg.dataset_scale));
        Harness::from_parts(cfg, kg)
    }

    /// Build a harness over an externally-constructed dataset (e.g. one
    /// ingested from a triples TSV) instead of the synthetic generator.
    /// Eval-triple sampling follows the same seeded protocol as
    /// [`Self::new`].
    pub fn from_parts(cfg: HarnessConfig, kg: MultiModalKG) -> Self {
        let known = kg.all_known();
        let mut eval_triples = kg.split.test.clone();
        let mut rng = seeded_rng(cfg.seed ^ 0xE7A1);
        eval_triples.shuffle(&mut rng);
        eval_triples.truncate(cfg.max_eval);
        Harness {
            cfg,
            kg,
            known,
            eval_triples,
            transe: OnceLock::new(),
            conve: OnceLock::new(),
            graph_arc: OnceLock::new(),
        }
    }

    /// The graph behind a shared handle, as the serving layer
    /// (`PolicyReasoner`) requires. Cloned from the dataset once, lazily.
    pub fn graph_arc(&self) -> Arc<KnowledgeGraph> {
        self.graph_arc
            .get_or_init(|| Arc::new(self.kg.graph.clone()))
            .clone()
    }

    pub fn relation_total(&self) -> usize {
        self.kg.graph.relations().total()
    }

    /// TransE structural init (trained once, shared).
    pub fn transe(&self) -> Arc<TransE> {
        self.transe
            .get_or_init(|| {
                let mut m = TransE::new(
                    self.kg.num_entities(),
                    self.relation_total(),
                    self.cfg.struct_dim,
                    self.cfg.seed,
                );
                m.train(
                    &self.kg.split.train,
                    &self.known,
                    &KgeTrainConfig::default()
                        .with_epochs(self.cfg.kge_epochs)
                        .with_seed(self.cfg.seed),
                );
                Arc::new(m)
            })
            .clone()
    }

    /// ConvE reward shaper (trained once, shared across reward engines).
    pub fn conve(&self) -> Arc<ConvE> {
        self.conve
            .get_or_init(|| {
                let mut m = ConvE::new(
                    self.kg.num_entities(),
                    self.relation_total(),
                    4,
                    8, // 4×8 = 32 = struct_dim image plane
                    6,
                    self.cfg.seed ^ 0xC0,
                );
                let cfg = KgeTrainConfig {
                    epochs: self.cfg.kge_epochs.min(20),
                    batch_size: 128,
                    lr: 3e-3,
                    margin: 1.0,
                    seed: self.cfg.seed ^ 0xC1,
                };
                m.train(&self.kg.split.train, &self.known, &cfg);
                Arc::new(m)
            })
            .clone()
    }

    /// Behaviour-cloning epochs applied uniformly to every RL reasoner at
    /// this scale (the reproduction-scale protocol; DESIGN.md deviations).
    fn warmstart_epochs(&self) -> usize {
        (self.cfg.rl_epochs / 5).clamp(2, 5)
    }

    /// Default MMKGR config for this harness scale.
    pub fn mmkgr_config(&self) -> MmkgrConfig {
        MmkgrConfig {
            struct_dim: self.cfg.struct_dim,
            epochs: self.cfg.rl_epochs,
            beam_width: self.cfg.beam,
            lr: 3e-3,
            rollouts_per_query: self.cfg.rollouts,
            seed: self.cfg.seed ^ 0x33,
            warmstart_epochs: self.warmstart_epochs(),
            ..MmkgrConfig::default()
        }
    }

    /// Build and train an MMKGR variant; returns the trainer (holding the
    /// trained model) and the per-epoch report. `valid_trace` > 0 records
    /// validation MRR per epoch (used by the convergence figures).
    pub fn train_mmkgr_with(
        &self,
        mutate: impl FnOnce(&mut MmkgrConfig),
        valid_trace: usize,
    ) -> (Trainer<Arc<ConvE>>, TrainReport) {
        let mut cfg = self.mmkgr_config();
        mutate(&mut cfg);
        cfg.validate().expect("invalid experiment config");
        let engine = RewardEngine::new(&cfg, Some(self.conve()));
        let transe = self.transe();
        let model = MmkgrModel::new(&self.kg, cfg, Some(&transe));
        let mut trainer = Trainer::new(model, engine);
        let report = trainer.train(&self.kg, valid_trace);
        (trainer, report)
    }

    /// Named-variant shortcut.
    pub fn train_variant(&self, v: Variant) -> (Trainer<Arc<ConvE>>, TrainReport) {
        self.train_mmkgr_with(|c| *c = c.clone().variant(v), 0)
    }

    fn walker_config(&self) -> WalkerConfig {
        WalkerConfig {
            struct_dim: self.cfg.struct_dim,
            epochs: self.cfg.rl_epochs,
            beam_width: self.cfg.beam,
            lr: 3e-3,
            rollouts_per_query: self.cfg.rollouts,
            seed: self.cfg.seed ^ 0x44,
            warmstart_epochs: self.warmstart_epochs(),
            ..WalkerConfig::default()
        }
    }

    /// Trained MINERVA walker. Returns `(model, reward trace)`.
    pub fn train_minerva(&self) -> (RlWalker, Vec<f32>) {
        let mut w = RlWalker::new(
            self.kg.num_entities(),
            self.relation_total(),
            WalkerKind::Minerva,
            self.walker_config(),
        );
        let trace = w.train(&self.kg);
        (w, trace)
    }

    /// Trained RLH walker (relation clusters from the TransE table).
    pub fn train_rlh(&self) -> (RlWalker, Vec<f32>) {
        let transe = self.transe();
        let k = 8.min(self.relation_total());
        let cluster_of = RlWalker::cluster_relations(transe.relation_matrix(), k, self.cfg.seed);
        let mut w = RlWalker::new(
            self.kg.num_entities(),
            self.relation_total(),
            WalkerKind::Rlh {
                cluster_of,
                num_clusters: k,
            },
            self.walker_config(),
        );
        let trace = w.train(&self.kg);
        (w, trace)
    }

    /// Trained FIRE walker (TransE-pruned action space).
    pub fn train_fire(&self) -> (RlWalker, Vec<f32>) {
        let transe = self.transe();
        // FIRE holds its own frozen copy of the TransE scorer.
        let mut frozen = TransE::new(
            self.kg.num_entities(),
            self.relation_total(),
            self.cfg.struct_dim,
            self.cfg.seed,
        );
        frozen
            .params
            .value_mut(frozen.entities.table)
            .clone_from(transe.entity_matrix());
        frozen
            .params
            .value_mut(frozen.relations.table)
            .clone_from(transe.relation_matrix());
        let mut w = RlWalker::new(
            self.kg.num_entities(),
            self.relation_total(),
            WalkerKind::Fire {
                transe: frozen,
                keep: 16,
            },
            self.walker_config(),
        );
        let trace = w.train(&self.kg);
        (w, trace)
    }

    /// Trained GAATs encoder/decoder.
    pub fn train_gaats(&self) -> Gaats {
        let mut g = Gaats::new(
            &self.kg,
            GaatsConfig {
                dim: self.cfg.struct_dim,
                epochs: self.cfg.kge_epochs,
                seed: self.cfg.seed ^ 0x55,
                ..GaatsConfig::default()
            },
        );
        g.train(&self.kg, &self.known);
        g
    }

    /// Trained NeuralLP rule model.
    pub fn train_neurallp(&self) -> NeuralLp {
        NeuralLp::train(
            &self.kg,
            &NeuralLpConfig {
                seed: self.cfg.seed ^ 0x66,
                ..NeuralLpConfig::default()
            },
        )
    }

    /// Trained MTRL multimodal single-hop baseline.
    pub fn train_mtrl(&self) -> Mtrl {
        let mut m = Mtrl::new(
            self.kg.num_entities(),
            self.relation_total(),
            &self.kg.modal,
            self.cfg.struct_dim,
            16,
            self.cfg.seed ^ 0x77,
        );
        m.train(
            &self.kg.split.train,
            &self.known,
            &KgeTrainConfig::default()
                .with_epochs(self.cfg.kge_epochs)
                .with_seed(self.cfg.seed ^ 0x78),
        );
        m
    }

    /// Trained naive-fusion walker (Table VII).
    pub fn train_fused(&self, fusion: NaiveFusion) -> (FusedWalker, Vec<f32>) {
        let mut w = FusedWalker::new(&self.kg, fusion, 16, self.walker_config());
        let trace = w.train(&self.kg);
        (w, trace)
    }

    // ---- evaluation ----------------------------------------------------
    //
    // All entity link prediction flows through the unified serving
    // surface: models are wrapped in their reasoner and evaluated by
    // `eval_reasoner_entity` — one protocol for both families.

    /// Wrap a policy in the serving protocol at this harness's beam.
    fn policy_reasoner<'p, P: RolloutPolicy>(
        &self,
        policy: &'p P,
        steps: usize,
    ) -> PolicyReasoner<&'p P> {
        PolicyReasoner::new(
            "policy",
            policy,
            self.graph_arc(),
            ServeConfig {
                beam_width: self.cfg.beam,
                max_steps: steps,
                ..ServeConfig::default()
            },
        )
    }

    /// Evaluate a shared serving handle (what [`crate::ReasonerBuilder`]
    /// builds and a [`mmkgr_core::serve::ModelRegistry`] hosts).
    pub fn eval_reasoner(
        &self,
        reasoner: &Arc<dyn KgReasoner + Send + Sync>,
    ) -> LinkPredictionResult {
        eval_reasoner_entity(&**reasoner, &self.eval_triples, &self.known)
    }

    pub fn eval_policy(&self, policy: &impl RolloutPolicy) -> LinkPredictionResult {
        self.eval_policy_steps(policy, 4)
    }

    /// Policy evaluation with an explicit step horizon (Table VI/Fig. 8).
    pub fn eval_policy_steps(
        &self,
        policy: &impl RolloutPolicy,
        steps: usize,
    ) -> LinkPredictionResult {
        eval_reasoner_entity(
            &self.policy_reasoner(policy, steps),
            &self.eval_triples,
            &self.known,
        )
    }

    /// Policy evaluation on an explicit triple subset (Table VIII).
    pub fn eval_policy_on(
        &self,
        policy: &impl RolloutPolicy,
        triples: &[Triple],
    ) -> LinkPredictionResult {
        eval_reasoner_entity(&self.policy_reasoner(policy, 4), triples, &self.known)
    }

    pub fn eval_scorer(&self, scorer: &impl TripleScorer) -> LinkPredictionResult {
        let reasoner = ScorerReasoner::for_graph("scorer", scorer, &self.kg.graph);
        eval_reasoner_entity(&reasoner, &self.eval_triples, &self.known)
    }

    /// Candidate relations for Table IV (all base relations, capped with a
    /// deterministic sample when the relation vocabulary is large).
    pub fn relation_candidates(&self) -> Vec<RelationId> {
        let base = self.kg.num_base_relations();
        let mut all: Vec<RelationId> = (0..base as u32).map(RelationId).collect();
        if all.len() > self.cfg.relation_candidates {
            let mut rng = seeded_rng(self.cfg.seed ^ 0x99);
            all.shuffle(&mut rng);
            all.truncate(self.cfg.relation_candidates);
        }
        all
    }

    pub fn relation_map_policy(&self, policy: &impl RolloutPolicy) -> RelationMapResult {
        let cap = self.eval_triples.len().min(self.cfg.max_eval / 2).max(1);
        eval_policy_relation_map(
            policy,
            &self.kg.graph,
            &self.eval_triples[..cap],
            &self.relation_candidates(),
            (self.cfg.beam / 2).max(4),
            4,
        )
    }

    pub fn relation_map_scorer(&self, scorer: &impl TripleScorer) -> RelationMapResult {
        let cap = self.eval_triples.len().min(self.cfg.max_eval / 2).max(1);
        eval_scorer_relation_map(
            scorer,
            &self.eval_triples[..cap],
            &self.relation_candidates(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_harness() -> Harness {
        let mut cfg = HarnessConfig::new(Dataset::Wn9ImgTxt, ScaleChoice::Quick);
        cfg.rl_epochs = 2;
        cfg.kge_epochs = 3;
        cfg.max_eval = 20;
        Harness::new(cfg)
    }

    #[test]
    fn harness_builds_dataset_and_substrates() {
        let h = quick_harness();
        assert!(!h.eval_triples.is_empty());
        assert!(h.eval_triples.len() <= 20);
        let t = h.transe();
        assert_eq!(t.entity_matrix().rows(), h.kg.num_entities());
        // cached: second call returns the same Arc
        assert!(Arc::ptr_eq(&t, &h.transe()));
    }

    #[test]
    fn mmkgr_variant_trains_and_evaluates() {
        let h = quick_harness();
        let (trainer, report) = h.train_variant(Variant::Full);
        assert_eq!(report.epochs.len(), 2);
        let r = h.eval_policy(&trainer.model);
        assert!(r.queries > 0);
        assert!((0.0..=1.0).contains(&r.mrr));
    }

    #[test]
    fn relation_candidates_capped_and_deterministic() {
        let h = quick_harness();
        let a = h.relation_candidates();
        let b = h.relation_candidates();
        assert_eq!(a, b);
        assert!(a.len() <= h.cfg.relation_candidates.max(h.kg.num_base_relations()));
    }
}
