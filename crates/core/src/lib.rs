//! `mmkgr-core` — the MMKGR model (ICDE 2023): multi-hop multi-modal
//! knowledge-graph reasoning.
//!
//! The two contributions of the paper, implemented in full:
//!
//! 1. **Unified gate-attention network** ([`fusion::GateAttention`]):
//!    attention-fusion (MLB bilinear pooling + gated co-attention, Eqs.
//!    5–10) followed by irrelevance filtration (Eqs. 11–12), producing
//!    multi-modal complementary features `Z`.
//! 2. **Complementary feature-aware RL** ([`rollout::Trainer`]): a
//!    REINFORCE agent over the MKG MDP ([`mdp`]) whose policy (Eq. 17)
//!    consumes `Z`, trained with the **3D reward** ([`reward`]):
//!    destination (ConvE-shaped), distance, and diversity rewards.
//!
//! Ablation variants from the paper's §V (OSKGR, STKGR, SIKGR, FAKGR,
//! FGKGR, DEKGR, DSKGR, DVKGR, ZOKGR) are first-class
//! ([`config::Variant`]).
//!
//! # Typical use
//!
//! ```no_run
//! use mmkgr_core::prelude::*;
//! use mmkgr_datagen::{generate, GenConfig};
//!
//! let kg = generate(&GenConfig::wn9_img_txt().scaled(0.1));
//! let cfg = MmkgrConfig::default();
//! let engine = RewardEngine::new(&cfg, Some(NoShaper));
//! let model = MmkgrModel::new(&kg, cfg, None);
//! let mut trainer = Trainer::new(model, engine);
//! let report = trainer.train(&kg, 0);
//! println!("final reward {:.3}", report.epochs.last().unwrap().mean_reward);
//! ```

pub mod beam;
pub mod config;
pub mod fusion;
pub mod infer;
pub mod mdp;
pub mod model;
pub mod reward;
pub mod rollout;
pub mod serve;

pub use beam::{BeamConfig, BeamEngine, FrontierBeam};
pub use config::{HistoryEncoder, MmkgrConfig, RewardConfig, Variant};
pub use fusion::GateAttention;
pub use infer::{
    beam_search, evaluate_ranking, rank_query, relation_scores, BeamPath, RankOutcome,
    RankingSummary, RolloutPolicy,
};
pub use mdp::{Env, RolloutQuery, RolloutState};
pub use model::{HistoryCell, MmkgrModel};
pub use reward::{NoShaper, RewardBreakdown, RewardEngine};
pub use rollout::{demonstration_path, queries_from_triples, EpochStats, TrainReport, Trainer};
pub use serve::{
    Answer, ApiError, Candidate, Coverage, Evidence, HttpServer, KgReasoner, ModelRegistry,
    NameIndex, PolicyReasoner, Query, ScorerReasoner, ServeConfig, ServeConfigError,
    ShardedReasoner, WorkerPool,
};

/// Common imports for downstream crates and examples.
pub mod prelude {
    pub use crate::beam::{BeamConfig, BeamEngine};
    pub use crate::config::{HistoryEncoder, MmkgrConfig, RewardConfig, Variant};
    pub use crate::infer::{
        beam_search, evaluate_ranking, rank_query, RankingSummary, RolloutPolicy,
    };
    pub use crate::mdp::{Env, RolloutQuery};
    pub use crate::model::MmkgrModel;
    pub use crate::reward::{NoShaper, RewardEngine};
    pub use crate::rollout::{queries_from_triples, Trainer};
    pub use crate::serve::{
        Answer, Candidate, Coverage, Evidence, KgReasoner, PolicyReasoner, Query, ScorerReasoner,
        ServeConfig, ShardedReasoner, WorkerPool,
    };
}
