//! `mmkgr-eval` — metrics, ranking protocols, and the experiment harness
//! that regenerates every table and figure of the MMKGR paper.
//!
//! - [`metrics`]: filtered rank, MRR/Hits accumulators, MAP.
//! - [`ranker`]: entity/relation link-prediction drivers, written once
//!   against the unified serving surface (`mmkgr_core::serve`).
//! - [`harness`]: dataset + substrate lifecycle and model builders; one
//!   [`harness::Harness`] per (dataset, scale) pair.
//! - [`serving`]: [`ReasonerBuilder`] — dataset → substrate → model →
//!   `Arc<dyn KgReasoner + Send + Sync>` in one call.
//! - [`snapshot`]: encode trained registries into `.mmkg` snapshots and
//!   boot them back in milliseconds (`mmkgr serve --snapshot`).
//! - [`report`]: paper-style aligned tables and JSON persistence.

pub mod fewshot;
pub mod harness;
pub mod metrics;
pub mod ranker;
pub mod report;
pub mod serving;
pub mod snapshot;

pub use fewshot::{relation_frequencies, FewShotSplit, FrequencyBucket};
pub use harness::{datasets_from_args, Dataset, Harness, HarnessConfig, ScaleChoice};
pub use metrics::{
    average_precision_single, filtered_rank, filtered_rank_with, RankAccum, TieBreak,
};
pub use ranker::{
    eval_policy_entity, eval_policy_relation_map, eval_reasoner_entity, eval_scorer_entity,
    eval_scorer_relation_map, LinkPredictionResult, RelationMapResult,
};
pub use report::{pct, pct_delta, save_json, Table};
pub use serving::{
    build_reasoner, build_registry, harness_name_index, harness_retriever, train_model,
    BuiltReasoner, KgeModel, KgeSpec, ModelChoice, ReasonerBuilder, TrainedModel, TrainedModelKind,
};
pub use snapshot::{
    load_registry_snapshot, load_registry_snapshot_live, rewrite_registry_snapshot,
    write_registry_snapshot, write_registry_snapshot_with_vocab, LoadedRegistry, ServeOverride,
    SnapshotBuildError,
};
