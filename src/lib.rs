//! # MMKGR — Multi-hop Multi-modal Knowledge Graph Reasoning
//!
//! A complete, from-scratch Rust reproduction of *"MMKGR: Multi-hop
//! Multi-modal Knowledge Graph Reasoning"* (Zheng et al., ICDE 2023),
//! including every substrate the paper depends on: a tape-based autodiff
//! engine, neural-network layers, multi-modal KG storage, synthetic
//! dataset generation, single-hop KGE models (the full Table I family:
//! TransE/TransD/DistMult/ComplEx/RESCAL/HolE/ConvE/IKRL/TransAE/MTRL),
//! the MMKGR model itself (unified gate-attention fusion +
//! 3D-reward RL), the paper's multi-hop baselines (MINERVA/RLH/FIRE/
//! GAATs/NeuralLP), and an evaluation harness regenerating every table
//! and figure of the paper's experimental section.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `mmkgr-tensor` | matrices + reverse-mode autodiff |
//! | [`nn`] | `mmkgr-nn` | layers, optimizers, losses |
//! | [`kg`] | `mmkgr-kg` | multi-modal KG storage |
//! | [`datagen`] | `mmkgr-datagen` | synthetic MKG generator |
//! | [`embed`] | `mmkgr-embed` | single-hop KGE models |
//! | [`core`] | `mmkgr-core` | **the MMKGR model** |
//! | [`baselines`] | `mmkgr-baselines` | multi-hop comparators |
//! | [`eval`] | `mmkgr-eval` | metrics + experiment harness + [`ReasonerBuilder`](eval::ReasonerBuilder) |
//!
//! # Quickstart
//!
//! Every model — MMKGR and its ablations, the MINERVA/RLH/FIRE walkers,
//! and the Table-I KGE family — serves the same protocol: a typed
//! [`Query`](core::serve::Query) in, an [`Answer`](core::serve::Answer) of
//! ranked candidates (with reasoning-path [`Evidence`](core::serve::Evidence)
//! for multi-hop models) out. [`ReasonerBuilder`](eval::ReasonerBuilder)
//! goes from dataset to a shareable `Arc<dyn KgReasoner + Send + Sync>` in
//! one call:
//!
//! ```no_run
//! use mmkgr::prelude::*;
//!
//! // 1. dataset → substrate → model → reasoner, in one call.
//! let built = ReasonerBuilder::new(Dataset::Wn9ImgTxt, ScaleChoice::Quick)
//!     .model(ModelChoice::Mmkgr(Variant::Full))
//!     .build();
//!
//! // 2. Answer a query with explainable multi-hop evidence.
//! let t = built.harness.eval_triples[0];
//! let answer = built.reasoner.answer(&Query::new(t.s, t.r).with_top_k(5));
//! let rs = built.reasoner.relations();
//! for c in &answer.ranked {
//!     let proof = c.evidence.as_ref().unwrap();
//!     println!("{:?} (score {:.2}) via {}", c.entity, c.score, proof.render(&rs));
//! }
//!
//! // 3. Serve a batch across a persistent worker pool sharing the Arc.
//! let queries: Vec<Query> = built.harness.eval_triples.iter()
//!     .map(|t| Query::new(t.s, t.r))
//!     .collect();
//! let pool = WorkerPool::new(std::sync::Arc::clone(&built.reasoner), 4);
//! let answers = pool.answer_batch(&queries);
//! assert_eq!(answers.len(), queries.len());
//! ```
//!
//! The same `Arc<dyn KgReasoner + Send + Sync>` surface wraps a KGE
//! scorer (`ModelChoice::ConvE`), a hand-trained model
//! ([`mmkgr_core::serve::PolicyReasoner`]), or any [`TripleScorer`](embed::TripleScorer)
//! ([`mmkgr_core::serve::ScorerReasoner`]).
//!
//! # Remote serving
//!
//! `mmkgr serve` (or [`mmkgr_core::serve::HttpServer`] in-process) hosts
//! a [`mmkgr_core::serve::ModelRegistry`] of named reasoners behind the
//! versioned v1 wire protocol ([`mmkgr_core::serve::protocol`]):
//! name-based queries in (`{"query": {"source": "e17", "relation":
//! "r3"}}`), ranked candidates with reasoning-path evidence out, plus
//! `/v1/models`, `/healthz`, and `/metrics` for operations. See
//! `examples/http_client.rs` for the end-to-end loop and the curl
//! equivalents.

pub use mmkgr_baselines as baselines;
pub use mmkgr_core as core;
pub use mmkgr_datagen as datagen;
pub use mmkgr_embed as embed;
pub use mmkgr_eval as eval;
pub use mmkgr_kg as kg;
pub use mmkgr_nn as nn;
pub use mmkgr_tensor as tensor;

/// One-stop imports for applications and examples.
///
/// `Query` here is the serving request type
/// ([`mmkgr_core::serve::Query`]); the evaluation-protocol query lives at
/// [`mmkgr_kg::Query`].
pub mod prelude {
    pub use mmkgr_core::prelude::*;
    pub use mmkgr_core::serve::{
        HttpServer, HttpServerConfig, ModelRegistry, NameIndex, NamedQuery,
    };
    pub use mmkgr_datagen::GenConfig;
    pub use mmkgr_embed::{ConvE, KgeTrainConfig, Mtrl, TransE, TripleScorer};
    pub use mmkgr_eval::FewShotSplit;
    pub use mmkgr_eval::{
        build_reasoner, build_registry, BuiltReasoner, Dataset, Harness, HarnessConfig,
        ModelChoice, ReasonerBuilder, ScaleChoice,
    };
    pub use mmkgr_kg::{
        EntityId, KnowledgeGraph, ModalBank, MultiModalKG, RelationId, Split, Triple,
    };
}
