//! [`ModelRegistry`]: several named reasoners behind one resolution +
//! dispatch surface.
//!
//! A serving process hosts one dataset (one [`NameIndex`]) and any
//! number of models over it — the full MMKGR variant next to ablations,
//! walkers, and KGE scorers. The registry is the glue between the wire
//! protocol and the in-process [`KgReasoner`]s:
//!
//! 1. pick the model (`"model"` field, falling back to the default);
//! 2. resolve the [`NamedQuery`]'s entity/relation strings to dense ids
//!    (validating beam overrides);
//! 3. dispatch to the reasoner;
//! 4. render the typed [`Answer`] back to names for the wire.
//!
//! Every step fails with a typed [`ApiError`], so the HTTP layer is a
//! dumb pipe: parse body → call registry → serialize result.

use std::collections::HashMap;
use std::sync::Arc;

use super::mutation::{LiveGraphStore, LiveStoreError, MutationOutcome};
use super::protocol::{
    AnswerBatchRequest, AnswerBatchResponse, AnswerRequest, ApiError, ExplainRequest,
    ExplainResponse, HealthResponse, ModelInfo, ModelMetrics, ModelsResponse, MutateRequest,
    MutateResponse, MutationMetrics, NameIndex, NamedQuery, PromoteResponse, ReplicationMetrics,
    RetrieveRequest, RetrieveResponse, WireAnswer, WireTriple, PROTOCOL_VERSION,
};
use super::replication::ReplicationState;
use super::retrieve::{RetrieveSpec, Retriever};
use super::{Answer, Budget, KgReasoner, Query};
use mmkgr_kg::{Triple, TripleOp, WalRecord};

/// Derive the execution [`Budget`] for a request from its wire timeouts:
/// the tightest `timeout_ms` wins (a batch runs under its most impatient
/// query), and none at all means no deadline. An explicit
/// `timeout_ms: 0` is rejected — omit the field (or send `null`) to ask
/// for the server default, which the HTTP front end fills in.
pub fn budget_for_timeouts(
    timeouts: impl IntoIterator<Item = Option<u64>>,
) -> Result<Budget, ApiError> {
    let mut tightest: Option<u64> = None;
    for t in timeouts {
        match t {
            Some(0) => {
                return Err(ApiError::InvalidBeamParams {
                    detail: "timeout_ms must be at least 1 (omit it for the server default)"
                        .to_string(),
                })
            }
            Some(ms) => tightest = Some(tightest.map_or(ms, |cur| cur.min(ms))),
            None => {}
        }
    }
    Ok(tightest.map_or_else(Budget::none, Budget::from_timeout_ms))
}

/// A shared, immutable-after-construction table of named reasoners plus
/// the name index they serve under. Build it once, wrap it in an `Arc`,
/// and hand it to [`super::http::HttpServer`] (or call the request
/// pipelines directly for in-process use and tests).
pub struct ModelRegistry {
    names: NameIndex,
    order: Vec<String>,
    models: HashMap<String, Arc<dyn KgReasoner + Send + Sync>>,
    default_model: Option<String>,
    /// Shared retrieval state for `POST /v1/retrieve` (the subgraph side
    /// is per-dataset, not per-model; path contexts come from whichever
    /// model the request names). `None` = retrieval not configured.
    retriever: Option<Arc<Retriever>>,
    /// Live mutation store behind `POST /v1/admin/mutate`. `None` = the
    /// served graph is read-only (mutations answer
    /// [`ApiError::InvalidMutation`]).
    live: Option<Arc<LiveGraphStore>>,
    /// Replication role + counters. `None` = a standalone node that is
    /// neither shipping its WAL nor tailing another's (the pre-existing
    /// single-process topology).
    replication: Option<Arc<ReplicationState>>,
}

impl ModelRegistry {
    pub fn new(names: NameIndex) -> Self {
        ModelRegistry {
            names,
            order: Vec::new(),
            models: HashMap::new(),
            default_model: None,
            retriever: None,
            live: None,
            replication: None,
        }
    }

    /// Attach the retrieval subsystem serving `POST /v1/retrieve`.
    pub fn set_retriever(&mut self, retriever: Arc<Retriever>) -> &mut Self {
        self.retriever = Some(retriever);
        self
    }

    pub fn retriever(&self) -> Option<&Arc<Retriever>> {
        self.retriever.as_ref()
    }

    /// Attach the live mutation store serving `POST /v1/admin/mutate`.
    /// The store's [`LiveGraphStore::handle`] must be the same
    /// [`mmkgr_kg::GraphHandle`] the registered reasoners and retriever
    /// read from, or published mutations will never become visible to
    /// queries.
    pub fn set_live(&mut self, live: Arc<LiveGraphStore>) -> &mut Self {
        self.live = Some(live);
        self
    }

    pub fn live(&self) -> Option<&Arc<LiveGraphStore>> {
        self.live.as_ref()
    }

    /// Live-mutation counters for `GET /metrics` (all zeros when no
    /// live store is attached).
    pub fn mutation_metrics(&self) -> MutationMetrics {
        self.live
            .as_ref()
            .map_or_else(MutationMetrics::default, |l| l.metrics())
    }

    /// Attach replication role state. A primary sets this to advertise
    /// its snapshot + WAL over `/v1/admin/replicate`; a follower sets it
    /// to reject `/v1/admin/mutate` with [`ApiError::NotPrimary`] until
    /// promoted.
    pub fn set_replication(&mut self, state: Arc<ReplicationState>) -> &mut Self {
        self.replication = Some(state);
        self
    }

    pub fn replication(&self) -> Option<&Arc<ReplicationState>> {
        self.replication.as_ref()
    }

    /// Replication counters for `GET /metrics` (defaults — empty role,
    /// zero counters — when the node is not part of a replication
    /// topology).
    pub fn replication_metrics(&self) -> ReplicationMetrics {
        self.replication
            .as_ref()
            .map_or_else(ReplicationMetrics::default, |r| r.metrics())
    }

    /// Apply one replicated WAL record through the live store (follower
    /// tail path): same WAL-then-publish pipeline as a local mutation,
    /// plus the same targeted per-model cache invalidation. `Ok(None)`
    /// means the record was already applied (reconnect overlap).
    pub fn apply_replicated(
        &self,
        rec: &WalRecord,
    ) -> Result<Option<MutationOutcome>, LiveStoreError> {
        let live = self.live.as_ref().ok_or_else(|| {
            LiveStoreError::Wal(std::io::Error::other(
                "this server has no live mutation store to replicate into",
            ))
        })?;
        if let Some(rep) = &self.replication {
            // The promotion fence: once this node is primary, frames
            // still in flight from the old primary must not apply.
            if !rep.is_follower() {
                return Err(LiveStoreError::Wal(std::io::Error::other(
                    "replication fenced: this node has been promoted to primary",
                )));
            }
        }
        let outcome = live.apply_replicated(rec)?;
        if let Some(o) = &outcome {
            self.invalidate_committed(o);
        }
        Ok(outcome)
    }

    /// The post-commit step of both write paths: drop every model's
    /// cached answers whose source or ranked entities the committed
    /// batch touched (the rest of every cache survives). Returns how
    /// many entries were dropped.
    fn invalidate_committed(&self, outcome: &MutationOutcome) -> usize {
        self.order
            .iter()
            .map(|name| self.models[name].invalidate_entities(&outcome.stats.touched))
            .sum()
    }

    /// `POST /v1/admin/promote` pipeline: flip a caught-up follower into
    /// a writable primary, fenced at the current committed `seq`
    /// watermark (replicated frames arriving after the flip are
    /// refused; the next local mutation commits at or above the fence).
    /// Promoting a node that is already primary is a no-op
    /// (`promoted: false`) so operators can retry safely.
    pub fn promote(&self) -> Result<PromoteResponse, ApiError> {
        let live = self
            .live
            .as_ref()
            .ok_or_else(|| ApiError::InvalidMutation {
                detail: "this server has no live mutation store (nothing to promote)".to_string(),
            })?;
        let promoted = self.replication.as_ref().is_some_and(|rep| rep.promote());
        Ok(PromoteResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            promoted,
            seq: live.committed_seq(),
            epoch: live.epoch(),
        })
    }

    /// Register a reasoner under its own [`KgReasoner::name`]. The first
    /// registration becomes the default model; re-registering a name
    /// replaces the model and keeps its position.
    pub fn register(&mut self, reasoner: Arc<dyn KgReasoner + Send + Sync>) -> &mut Self {
        let name = reasoner.name().to_string();
        self.register_as(name, reasoner)
    }

    /// Register under an explicit name (e.g. `"MMKGR@wide"` for a second
    /// config of the same model).
    pub fn register_as(
        &mut self,
        name: impl Into<String>,
        reasoner: Arc<dyn KgReasoner + Send + Sync>,
    ) -> &mut Self {
        let name = name.into();
        if self.models.insert(name.clone(), reasoner).is_none() {
            self.order.push(name.clone());
        }
        if self.default_model.is_none() {
            self.default_model = Some(name);
        }
        self
    }

    pub fn names(&self) -> &NameIndex {
        &self.names
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Registered model names, in registration order.
    pub fn model_names(&self) -> &[String] {
        &self.order
    }

    pub fn default_model(&self) -> Option<&str> {
        self.default_model.as_deref()
    }

    fn unknown_model(&self, name: &str) -> ApiError {
        ApiError::UnknownModel {
            model: name.to_string(),
            available: self.order.clone(),
        }
    }

    /// Resolve a request's model choice to `(registry name, reasoner)`.
    /// The returned name is the registry's own `String` (stable for
    /// responses, independent of the request buffer's lifetime).
    pub fn get(
        &self,
        model: Option<&str>,
    ) -> Result<(&str, &Arc<dyn KgReasoner + Send + Sync>), ApiError> {
        let name = match model {
            Some(m) => m,
            None => self
                .default_model
                .as_deref()
                .ok_or_else(|| ApiError::Internal {
                    detail: "registry has no models".to_string(),
                })?,
        };
        match self.models.get_key_value(name) {
            Some((canonical, r)) => Ok((canonical.as_str(), r)),
            None => Err(self.unknown_model(name)),
        }
    }

    // -------------------------------------------------- request pipelines

    /// Full `POST /v1/answer` pipeline, under the query's own
    /// `timeout_ms` (none = no deadline).
    pub fn answer(&self, req: &AnswerRequest) -> Result<WireAnswer, ApiError> {
        let budget = budget_for_timeouts([req.query.timeout_ms])?;
        let (name, reasoner) = self.get(req.model.as_deref())?;
        let query = self.names.resolve_query(&req.query)?;
        let answer = reasoner.answer_within(&query, budget)?;
        Ok(WireAnswer::from_answer(name, &answer, &self.names))
    }

    /// Resolve the model + queries of a batch request. The caller picks
    /// the execution strategy (the HTTP server runs a
    /// [`super::WorkerPool`]); [`Self::render_batch`] turns the typed
    /// answers back into the wire envelope.
    #[allow(clippy::type_complexity)]
    pub fn resolve_batch(
        &self,
        req: &AnswerBatchRequest,
    ) -> Result<(&str, &Arc<dyn KgReasoner + Send + Sync>, Vec<Query>), ApiError> {
        if req.queries.is_empty() {
            return Err(ApiError::InvalidBeamParams {
                detail: "empty batch (supply at least one query)".to_string(),
            });
        }
        let (name, reasoner) = self.get(req.model.as_deref())?;
        let queries = req
            .queries
            .iter()
            .map(|q| self.names.resolve_query(q))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((name, reasoner, queries))
    }

    /// Wire envelope for a batch answered elsewhere (the HTTP server's
    /// worker pool).
    pub fn render_batch(&self, model: &str, answers: &[Answer]) -> AnswerBatchResponse {
        AnswerBatchResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            model: model.to_string(),
            answers: answers
                .iter()
                .map(|a| WireAnswer::from_answer(model, a, &self.names))
                .collect(),
        }
    }

    /// Full `POST /v1/explain` pipeline, under the query's own
    /// `timeout_ms`. Path enumeration is one uninterruptible beam pass,
    /// so the budget is checked around it. Models without path evidence
    /// answer with an empty path list (the typed protocol's way of
    /// saying "nothing to show" — not an error, so clients can probe).
    pub fn explain(&self, req: &ExplainRequest) -> Result<ExplainResponse, ApiError> {
        let budget = budget_for_timeouts([req.query.timeout_ms])?;
        let (name, reasoner) = self.get(req.model.as_deref())?;
        let query = self.names.resolve_query(&req.query)?;
        let paths = budget.run(|| reasoner.explain(&query))?.unwrap_or_default();
        Ok(ExplainResponse::from_paths(
            name,
            &query,
            &paths,
            &self.names,
        ))
    }

    /// Validate + resolve a retrieve request into a dense-id
    /// [`RetrieveSpec`] (typed errors, never panics on wire input).
    fn resolve_retrieve(&self, req: &RetrieveRequest) -> Result<RetrieveSpec, ApiError> {
        if req.seeds.is_empty() {
            return Err(ApiError::InvalidRetrieveParams {
                detail: "seeds must not be empty".to_string(),
            });
        }
        if req.hops == 0 {
            return Err(ApiError::InvalidRetrieveParams {
                detail: "hops must be at least 1".to_string(),
            });
        }
        if !req.diversity.is_finite() || !(0.0..=1.0).contains(&req.diversity) {
            return Err(ApiError::InvalidRetrieveParams {
                detail: format!("diversity must be in [0, 1], got {}", req.diversity),
            });
        }
        let seeds = req
            .seeds
            .iter()
            .map(|s| self.names.resolve_entity(s))
            .collect::<Result<Vec<_>, _>>()?;
        let relation = req
            .relation
            .as_deref()
            .map(|r| self.names.resolve_relation(r))
            .transpose()?;
        Ok(RetrieveSpec {
            seeds,
            relation,
            hops: req.hops,
            max_entities: req.max_entities,
            max_paths: req.max_paths,
            diversity: req.diversity,
        })
    }

    /// Full `POST /v1/retrieve` pipeline, under the request's own
    /// `timeout_ms`. Like explain, a retrieval is one uninterruptible
    /// pass (subgraph expansion + beam queries + rerank), so the budget
    /// is checked around it.
    pub fn retrieve(&self, req: &RetrieveRequest) -> Result<RetrieveResponse, ApiError> {
        let budget = budget_for_timeouts([req.timeout_ms])?;
        let (name, reasoner) = self.get(req.model.as_deref())?;
        let retriever = self.retriever.as_ref().ok_or_else(|| ApiError::Internal {
            detail: "retrieval is not configured for this registry".to_string(),
        })?;
        let spec = self.resolve_retrieve(req)?;
        let result = budget.run(|| retriever.retrieve(Some(&**reasoner), &spec))?;
        Ok(RetrieveResponse::from_retrieval(
            name,
            &req.seeds,
            req.hops,
            &result,
            &self.names,
        ))
    }

    /// Resolve one wire triple to dense ids for a mutation. Mutations
    /// are stated in base orientation only — the store maintains the
    /// inverse direction itself, so an `~`-prefixed relation here would
    /// silently double-apply and is rejected instead.
    fn resolve_mutation_triple(&self, t: &WireTriple) -> Result<Triple, ApiError> {
        if t.r.starts_with('~') {
            return Err(ApiError::InvalidMutation {
                detail: format!(
                    "mutations take base-orientation relations; got inverse `{}` \
                     (state the forward triple instead)",
                    t.r
                ),
            });
        }
        Ok(Triple {
            s: self.names.resolve_entity(&t.s)?,
            r: self.names.resolve_relation(&t.r)?,
            o: self.names.resolve_entity(&t.o)?,
        })
    }

    /// Full `POST /v1/admin/mutate` pipeline: validate + resolve the
    /// batch, commit it through the [`LiveGraphStore`] (WAL fsync, then
    /// publish), then drop the touched entries from every model's query
    /// cache. Any validation failure rejects the whole batch before
    /// anything is logged or applied. The request's `timeout_ms` is
    /// checked before the commit only: a committed write never reports
    /// a deadline error.
    pub fn mutate(&self, req: &MutateRequest) -> Result<MutateResponse, ApiError> {
        let budget = budget_for_timeouts([req.timeout_ms])?;
        if budget.expired() {
            return Err(budget.exceeded());
        }
        // Followers are read replicas: writes must go to the primary
        // (named in the error so clients can redirect themselves).
        if let Some(rep) = &self.replication {
            if rep.is_follower() {
                return Err(ApiError::NotPrimary {
                    primary: rep.primary_addr(),
                });
            }
        }
        let live = self
            .live
            .as_ref()
            .ok_or_else(|| ApiError::InvalidMutation {
                detail: "this server has no live mutation store (serve with --live)".to_string(),
            })?;
        if req.insert.is_empty() && req.delete.is_empty() {
            return Err(ApiError::InvalidMutation {
                detail: "mutation batch is empty (supply insert and/or delete triples)".to_string(),
            });
        }
        let mut ops = Vec::with_capacity(req.insert.len() + req.delete.len());
        for t in &req.insert {
            ops.push(TripleOp::Insert(self.resolve_mutation_triple(t)?));
        }
        for t in &req.delete {
            ops.push(TripleOp::Delete(self.resolve_mutation_triple(t)?));
        }
        let outcome = live.apply(&ops).map_err(|e| match e {
            LiveStoreError::Invalid(err) => ApiError::InvalidMutation {
                detail: err.to_string(),
            },
            other => ApiError::Internal {
                detail: other.to_string(),
            },
        })?;
        let invalidated = self.invalidate_committed(&outcome);
        Ok(MutateResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            epoch: outcome.epoch,
            seq: outcome.seq,
            inserted: outcome.stats.inserted as u64,
            deleted: outcome.stats.deleted as u64,
            invalidated: invalidated as u64,
            compacted: outcome.compacted,
        })
    }

    /// `GET /v1/models` payload.
    pub fn models(&self) -> ModelsResponse {
        ModelsResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            default_model: self.default_model.clone().unwrap_or_default(),
            models: self
                .order
                .iter()
                .map(|name| {
                    let r = &self.models[name];
                    ModelInfo {
                        name: name.clone(),
                        family: if r.has_path_evidence() { "path" } else { "kge" }.to_string(),
                        entities: r.num_entities(),
                        relations: r.relations().base(),
                        cache: r.cache_stats().map(Into::into),
                    }
                })
                .collect(),
        }
    }

    /// `GET /healthz` payload.
    pub fn health(&self) -> HealthResponse {
        HealthResponse {
            protocol: PROTOCOL_VERSION.to_string(),
            status: "ok".to_string(),
            models: self.len(),
        }
    }

    /// Per-model cache counters for `GET /metrics`.
    pub fn model_metrics(&self) -> Vec<ModelMetrics> {
        self.order
            .iter()
            .map(|name| ModelMetrics {
                model: name.clone(),
                cache: self.models[name].cache_stats().map(Into::into),
            })
            .collect()
    }

    /// Convenience for tests and examples: answer one named query on the
    /// default model.
    pub fn answer_named(&self, query: NamedQuery) -> Result<WireAnswer, ApiError> {
        self.answer(&AnswerRequest { model: None, query })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{PolicyReasoner, Query, ScorerReasoner, ServeConfig, WorkerPool};
    use super::*;
    use crate::config::MmkgrConfig;
    use crate::model::MmkgrModel;
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_embed::TripleScorer;
    use mmkgr_kg::{EntityId, RelationId};

    fn tiny_registry() -> (mmkgr_kg::MultiModalKG, ModelRegistry) {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        let graph = Arc::new(kg.graph.clone());
        let mut reg = ModelRegistry::new(NameIndex::synthetic(
            kg.num_entities(),
            kg.num_base_relations(),
        ));
        struct ByIndex;
        impl TripleScorer for ByIndex {
            fn score(&self, _: EntityId, _: RelationId, o: EntityId) -> f32 {
                o.0 as f32
            }
        }
        reg.register(Arc::new(PolicyReasoner::new(
            "MMKGR",
            model,
            graph,
            ServeConfig::default(),
        )));
        reg.register(Arc::new(ScorerReasoner::for_graph(
            "ByIndex", ByIndex, &kg.graph,
        )));
        reg.set_retriever(Arc::new(Retriever::new(Arc::new(kg.graph.clone()))));
        (kg, reg)
    }

    #[test]
    fn registry_hosts_named_models_with_a_default() {
        let (_, reg) = tiny_registry();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.default_model(), Some("MMKGR"));
        assert_eq!(reg.model_names(), ["MMKGR", "ByIndex"]);
        let (name, _) = reg.get(None).unwrap();
        assert_eq!(name, "MMKGR");
        let (name, _) = reg.get(Some("ByIndex")).unwrap();
        assert_eq!(name, "ByIndex");
        let err = reg.get(Some("GPT")).err().unwrap();
        assert_eq!(
            err,
            ApiError::UnknownModel {
                model: "GPT".into(),
                available: vec!["MMKGR".into(), "ByIndex".into()],
            }
        );
        let infos = reg.models();
        assert_eq!(infos.default_model, "MMKGR");
        assert_eq!(infos.models[0].family, "path");
        assert_eq!(infos.models[1].family, "kge");
    }

    #[test]
    fn named_answers_match_in_process_answers() {
        let (kg, reg) = tiny_registry();
        let t = kg.split.test[0];
        let wire = reg
            .answer(&AnswerRequest {
                model: Some("MMKGR".to_string()),
                query: NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
                    .with_top_k(5)
                    .with_beam(8)
                    .with_steps(3),
            })
            .unwrap();
        let (_, reasoner) = reg.get(Some("MMKGR")).unwrap();
        let direct = reasoner.answer(
            &Query::new(t.s, t.r)
                .with_top_k(5)
                .with_beam(8)
                .with_steps(3),
        );
        assert_eq!(wire.model, "MMKGR");
        assert_eq!(wire.source, format!("e{}", t.s.0));
        assert_eq!(wire.ranked.len(), direct.ranked.len());
        for (w, d) in wire.ranked.iter().zip(&direct.ranked) {
            assert_eq!(w.entity, format!("e{}", d.entity.0));
            assert_eq!(w.score, d.score);
            let we = w.evidence.as_ref().unwrap();
            let de = d.evidence.as_ref().unwrap();
            assert_eq!(we.hops, de.hops);
            assert_eq!(we.path.len(), de.relations.len());
        }
    }

    #[test]
    fn resolution_failures_are_typed() {
        let (_, reg) = tiny_registry();
        let bad_entity = reg.answer_named(NamedQuery::new("e99999", "r0"));
        assert_eq!(
            bad_entity,
            Err(ApiError::UnknownEntity {
                name: "e99999".into()
            })
        );
        let bad_relation = reg.answer_named(NamedQuery::new("e0", "r999"));
        assert_eq!(
            bad_relation,
            Err(ApiError::UnknownRelation {
                name: "r999".into()
            })
        );
        let zero_beam = reg.answer_named(NamedQuery::new("e0", "r0").with_beam(0));
        assert!(matches!(zero_beam, Err(ApiError::InvalidBeamParams { .. })));
    }

    #[test]
    fn batch_pipeline_matches_sequential_answers() {
        let (kg, reg) = tiny_registry();
        let queries: Vec<NamedQuery> = kg
            .split
            .test
            .iter()
            .take(4)
            .map(|t| {
                NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
                    .with_beam(4)
                    .with_steps(2)
            })
            .collect();
        // The HTTP batch route: resolve, fan out on a pool, render.
        let (name, reasoner, resolved) = reg
            .resolve_batch(&AnswerBatchRequest {
                model: None,
                queries: queries.clone(),
            })
            .unwrap();
        let answers = WorkerPool::new(Arc::clone(reasoner), 2).answer_batch(&resolved);
        let batch = reg.render_batch(name, &answers);
        assert_eq!(batch.answers.len(), queries.len());
        for (q, a) in queries.iter().zip(&batch.answers) {
            let one = reg.answer_named(q.clone()).unwrap();
            assert_eq!(*a, one);
        }
        let empty = reg.resolve_batch(&AnswerBatchRequest {
            model: None,
            queries: vec![],
        });
        assert!(matches!(empty, Err(ApiError::InvalidBeamParams { .. })));
    }

    #[test]
    fn explain_pipeline_serves_paths_and_tolerates_scorers() {
        let (kg, reg) = tiny_registry();
        let t = kg.split.test[0];
        let q = NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
            .with_top_k(3)
            .with_beam(8)
            .with_steps(3);
        let resp = reg
            .explain(&ExplainRequest {
                model: None,
                query: q.clone(),
            })
            .unwrap();
        assert_eq!(resp.model, "MMKGR");
        assert!(resp.paths.len() <= 3);
        for w in resp.paths.windows(2) {
            assert!(w[0].logp >= w[1].logp);
        }
        // A KGE scorer has no paths — empty list, not an error.
        let resp = reg
            .explain(&ExplainRequest {
                model: Some("ByIndex".to_string()),
                query: q.clone(),
            })
            .unwrap();
        assert!(resp.paths.is_empty());
        // The query's own timeout is validated on the in-process route.
        let zero_timeout = reg.explain(&ExplainRequest {
            model: None,
            query: q.with_timeout_ms(0),
        });
        assert!(matches!(
            zero_timeout,
            Err(ApiError::InvalidBeamParams { .. })
        ));
    }

    #[test]
    fn retrieve_pipeline_serves_both_model_families() {
        let (kg, reg) = tiny_registry();
        let t = kg.split.test[0];
        let seed = format!("e{}", t.s.0);
        let req = RetrieveRequest::new([seed.clone()])
            .with_relation(format!("r{}", t.r.0))
            .with_hops(2)
            .with_max_entities(16)
            .with_max_paths(4);
        // Path family: beam paths (or topology fallback if the beam
        // finds nothing) — always ≥1 context when neighbors exist.
        let policy = reg.retrieve(&req.clone().with_model("MMKGR")).unwrap();
        assert_eq!(policy.model, "MMKGR");
        assert!(!policy.subgraph.entities.is_empty());
        assert!(!policy.paths.is_empty());
        assert_eq!(policy.seeds, vec![seed.clone()]);
        // KGE family: no beam — topology fallback still yields contexts.
        let kge = reg.retrieve(&req.with_model("ByIndex")).unwrap();
        assert_eq!(kge.model, "ByIndex");
        assert!(!kge.subgraph.entities.is_empty());
        assert!(!kge.paths.is_empty());
        for p in &kge.paths {
            assert_eq!(p.score, -(p.hops as f32));
        }
        // Both families agree on the subgraph (it is model-independent).
        assert_eq!(policy.subgraph, kge.subgraph);
        // The relation was named, so the few-shot annotation is present.
        assert!(policy.few_shot.is_some());
    }

    #[test]
    fn retrieve_validation_is_typed() {
        let (_, reg) = tiny_registry();
        let no_seeds = reg.retrieve(&RetrieveRequest::new(Vec::<String>::new()));
        assert!(matches!(
            no_seeds,
            Err(ApiError::InvalidRetrieveParams { .. })
        ));
        let zero_hops = reg.retrieve(&RetrieveRequest::new(["e0"]).with_hops(0));
        assert!(matches!(
            zero_hops,
            Err(ApiError::InvalidRetrieveParams { .. })
        ));
        let bad_diversity = reg.retrieve(&RetrieveRequest::new(["e0"]).with_diversity(1.5));
        assert!(matches!(
            bad_diversity,
            Err(ApiError::InvalidRetrieveParams { .. })
        ));
        let unknown_seed = reg.retrieve(&RetrieveRequest::new(["e99999"]));
        assert_eq!(
            unknown_seed,
            Err(ApiError::UnknownEntity {
                name: "e99999".into()
            })
        );
        let unknown_relation = reg.retrieve(&RetrieveRequest::new(["e0"]).with_relation("r999"));
        assert_eq!(
            unknown_relation,
            Err(ApiError::UnknownRelation {
                name: "r999".into()
            })
        );
        let zero_timeout = reg.retrieve(&RetrieveRequest::new(["e0"]).with_timeout_ms(0));
        assert!(matches!(
            zero_timeout,
            Err(ApiError::InvalidBeamParams { .. })
        ));
    }

    #[test]
    fn retrieve_without_retriever_is_internal_error() {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        let mut reg = ModelRegistry::new(NameIndex::synthetic(
            kg.num_entities(),
            kg.num_base_relations(),
        ));
        reg.register(Arc::new(PolicyReasoner::new(
            "MMKGR",
            model,
            Arc::new(kg.graph.clone()),
            ServeConfig::default(),
        )));
        let err = reg.retrieve(&RetrieveRequest::new(["e0"]));
        assert!(matches!(err, Err(ApiError::Internal { .. })));
    }

    #[test]
    fn health_reports_model_count() {
        let (_, reg) = tiny_registry();
        let h = reg.health();
        assert_eq!(h.status, "ok");
        assert_eq!(h.models, 2);
        assert_eq!(h.protocol, PROTOCOL_VERSION);
    }
}
