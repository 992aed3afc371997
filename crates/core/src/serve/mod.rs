//! The unified serving API: one request/response surface over every
//! multi-hop policy and single-hop KGE scorer in the workspace.
//!
//! MMKGR's product shape is a single agent answering arbitrary
//! `(source, relation, ?)` queries with explainable paths. Before this
//! module, each consumer re-wired that workflow by hand from three
//! disjoint surfaces: [`RolloutPolicy`] + free-function
//! [`beam_search`](crate::infer::beam_search) for RL reasoners,
//! [`TripleScorer`] for KGE models, and ad-hoc builders in `mmkgr-eval`.
//! [`KgReasoner`] folds them into one object-safe protocol:
//!
//! - [`PolicyReasoner`] serves any [`RolloutPolicy`] (MMKGR and the
//!   MINERVA/RLH/FIRE walkers) via beam search; answers carry
//!   [`Evidence`] — the reasoning path behind each candidate.
//! - [`ScorerReasoner`] serves any [`TripleScorer`] (the full Table-I KGE
//!   family) via exhaustive candidate scoring.
//!
//! Both produce the same typed [`Answer`], so evaluation, the CLI, and
//! batch serving ([`WorkerPool`]) are written once against
//! `Arc<dyn KgReasoner + Send + Sync>`. [`ShardedReasoner`] composes N
//! entity-partitioned reasoners behind the same trait for graphs too
//! large for one exhaustive scorer pass.
//!
//! # Serving performance architecture
//!
//! Three layers keep the path-reasoner hot loop fast, from the inside
//! out:
//!
//! 1. **Engine** ([`crate::beam::BeamEngine`]): every [`PolicyReasoner`]
//!    query runs on a thread-local engine — flat SoA frontier, path
//!    arena, `select_nth` pruning, all scratch owned by the engine — so
//!    a query after the first allocates only its output. The engine's
//!    exact mode is bit-identical to the original `beam_search`;
//!    [`ServeConfig::beam_dedup`] opts a reasoner into the deduplicated
//!    frontier (one policy forward per unique `(entity, last_rel, hops)`
//!    state), which is markedly faster at wide beams.
//! 2. **Cache** ([`ServeConfig::cache_capacity`]): an LRU frontier cache
//!    keyed by `(source, relation, width, steps)` behind a
//!    read-concurrent `RwLock`. Repeated queries — the norm for
//!    RAG-style workloads issuing near-duplicate multi-hop questions —
//!    return the memoized ranking without touching the engine;
//!    `top_k` truncation happens after the cache, so any cutoff shares
//!    one entry. Hits are byte-identical to recomputation.
//! 3. **Pool** ([`WorkerPool`]): a persistent, channel-fed worker pool
//!    (engine per worker thread, spawned once) serves batches.
//!    Work-stealing over an atomic cursor keeps stragglers from
//!    serializing a batch.
//!
//! # Remote serving
//!
//! The in-process surface above is wrapped by three further layers that
//! turn a reasoner into a network service:
//!
//! - [`protocol`]: the versioned (v1) wire protocol — name-based
//!   [`protocol::NamedQuery`] requests, [`protocol::ApiError`], and the
//!   JSON envelopes for every route;
//! - [`registry`]: a [`registry::ModelRegistry`] hosting several named
//!   reasoners behind one resolution + dispatch surface;
//! - [`http`]: a dependency-free `std::net` HTTP/1.1 front end
//!   ([`http::HttpServer`]) exposing the registry at `POST /v1/answer`,
//!   `POST /v1/answer_batch`, `POST /v1/explain`, `GET /v1/models`,
//!   `GET /healthz`, and `GET /metrics`.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use mmkgr_core::prelude::*;
//! use mmkgr_core::serve::{KgReasoner, PolicyReasoner, Query, ServeConfig, WorkerPool};
//! use mmkgr_datagen::{generate, GenConfig};
//!
//! let kg = generate(&GenConfig::tiny());
//! let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
//! let reasoner: Arc<dyn KgReasoner + Send + Sync> = Arc::new(PolicyReasoner::new(
//!     "MMKGR",
//!     model,
//!     Arc::new(kg.graph.clone()),
//!     ServeConfig::default(),
//! ));
//! let answer = reasoner.answer(&Query::new(kg.split.test[0].s, kg.split.test[0].r));
//! for cand in &answer.ranked {
//!     println!("{:?} score {:.3}", cand.entity, cand.score);
//! }
//! let pool = WorkerPool::new(Arc::clone(&reasoner), 4);
//! let queries: Vec<Query> =
//!     kg.split.test.iter().map(|t| Query::new(t.s, t.r)).collect();
//! let answers = pool.answer_batch(&queries);
//! assert_eq!(answers.len(), queries.len());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Duration;

use mmkgr_embed::TripleScorer;
use mmkgr_kg::{EntityId, GraphHandle, KnowledgeGraph, RelationId, RelationSpace};
use serde::{Deserialize, Serialize, Value};

use crate::beam::{with_thread_engine, BeamConfig};
use crate::infer::{BeamPath, RolloutPolicy};

pub mod faults;
pub mod http;
pub mod mutation;
pub mod protocol;
pub mod registry;
pub mod replication;
pub mod retrieve;
pub mod sharded;

pub use faults::{FaultGuard, FaultPlan, ShardSel};
pub use http::{HttpServer, HttpServerConfig, RunningServer};
pub use mutation::{LiveGraphStore, MutationOutcome};
pub use protocol::{
    AnswerBatchRequest, AnswerRequest, ApiError, ApiRequest, ApiResponse, ExplainRequest,
    ModelInfo, NameIndex, NamedQuery, RetrieveRequest, RetrieveResponse, WireAnswer, WireCandidate,
    WireContextPath, WireEvidence, WireSubgraph, PROTOCOL_VERSION,
};
pub use registry::ModelRegistry;
pub use replication::{ReplicaSource, ReplicationState};
pub use retrieve::{ContextPath, FewShotInfo, Retrieval, RetrieveSpec, Retriever};
pub use sharded::ShardedReasoner;

/// A serving request: answer `(source, relation, ?)`.
///
/// `top_k = 0` returns every candidate the reasoner can rank — evaluation
/// drivers use that to compute filtered ranks; interactive callers keep
/// the default cutoff.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Query {
    pub source: EntityId,
    pub relation: RelationId,
    /// Maximum candidates returned (0 = unlimited). Omitted on the wire
    /// means [`Query::DEFAULT_TOP_K`], matching [`Query::new`] — never
    /// the unlimited 0.
    #[serde(default = "Query::default_top_k")]
    pub top_k: usize,
    /// Beam width override for path reasoners (None = reasoner default).
    #[serde(default)]
    pub beam: Option<usize>,
    /// Step-horizon override for path reasoners (None = reasoner default).
    #[serde(default)]
    pub steps: Option<usize>,
}

impl Query {
    pub const DEFAULT_TOP_K: usize = 10;

    fn default_top_k() -> usize {
        Self::DEFAULT_TOP_K
    }

    pub fn new(source: EntityId, relation: RelationId) -> Self {
        Query {
            source,
            relation,
            top_k: Self::DEFAULT_TOP_K,
            beam: None,
            steps: None,
        }
    }

    /// Request at most `k` answers (0 = all).
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    pub fn with_beam(mut self, width: usize) -> Self {
        self.beam = Some(width);
        self
    }

    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = Some(steps);
        self
    }
}

/// A wall-clock execution budget threaded through the serving path
/// (registry dispatch → worker pools → shard fan-out). [`Budget::none`]
/// means unlimited — the pre-deadline behavior, and the default for
/// in-process callers. Deliberately *not* part of [`Query`]: the budget
/// is transport/supervision state, not part of the question, so cached
/// or replayed answers never depend on it.
#[derive(Copy, Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<std::time::Instant>,
    timeout_ms: u64,
}

impl Budget {
    /// No deadline (never expires).
    pub fn none() -> Budget {
        Budget::default()
    }

    /// Expire `ms` milliseconds from now.
    pub fn from_timeout_ms(ms: u64) -> Budget {
        Budget {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_millis(ms)),
            timeout_ms: ms,
        }
    }

    /// The originally requested timeout (0 for [`Budget::none`]) — used
    /// to report which deadline was exceeded.
    pub fn timeout_ms(&self) -> u64 {
        self.timeout_ms
    }

    /// Time left, or `None` for an unlimited budget. An expired budget
    /// returns `Some(Duration::ZERO)`.
    pub fn remaining(&self) -> Option<std::time::Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(std::time::Instant::now()))
    }

    pub fn expired(&self) -> bool {
        self.remaining() == Some(std::time::Duration::ZERO)
    }

    /// The typed error for this budget's deadline having passed.
    pub fn exceeded(&self) -> ApiError {
        ApiError::DeadlineExceeded {
            timeout_ms: self.timeout_ms,
        }
    }

    /// Run one uninterruptible step under this budget: an already-expired
    /// budget skips it, and a result that arrives after the deadline is
    /// discarded for [`Self::exceeded`].
    pub(crate) fn run<T>(&self, step: impl FnOnce() -> T) -> Result<T, ApiError> {
        if self.expired() {
            return Err(self.exceeded());
        }
        let out = step();
        if self.expired() {
            return Err(self.exceeded());
        }
        Ok(out)
    }

    /// Clamp a wait to the remaining budget (unlimited budgets return
    /// the wait unchanged).
    pub fn clamp(&self, wait: std::time::Duration) -> std::time::Duration {
        match self.remaining() {
            Some(left) => wait.min(left),
            None => wait,
        }
    }
}

/// The reasoning path behind one candidate answer (path reasoners only;
/// KGE scorers have no path to show).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evidence {
    /// Non-NO_OP relations walked, in order.
    pub relations: Vec<RelationId>,
    /// Number of graph hops (`relations.len()`).
    pub hops: usize,
    /// Log-probability of the best path reaching this candidate.
    pub logp: f32,
}

impl Evidence {
    /// Render the path as `r3 → r7⁻¹` (or `(stay)` for the empty path)
    /// using a relation space to fold synthetic inverses.
    pub fn render(&self, rs: &RelationSpace) -> String {
        if self.relations.is_empty() {
            return "(stay)".to_string();
        }
        self.relations
            .iter()
            .map(|&r| {
                if rs.is_inverse(r) {
                    format!("r{}⁻¹", rs.inverse(r).index())
                } else {
                    format!("r{}", r.index())
                }
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// One ranked candidate answer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    pub entity: EntityId,
    /// Comparable within one reasoner only: best-path log-probability for
    /// path reasoners, raw plausibility score for KGE scorers.
    pub score: f32,
    pub evidence: Option<Evidence>,
}

/// How much of the entity space an [`Answer`] ranks — the difference
/// between the two model families' evaluation protocols.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Coverage {
    /// Every entity was scored (KGE scorers): absent candidates only ever
    /// mean `top_k` truncation, and ties break at the expected position.
    Exhaustive,
    /// Only beam-reached entities are ranked (path reasoners): entities
    /// absent from the *untruncated* ranking are unreachable and rank
    /// pessimistically last (the MINERVA protocol the paper follows).
    Reached,
}

/// Annotation on an [`Answer`] whose sharded backend lost shards and
/// answered from the survivors: the ranking is exact over the surviving
/// entity ranges but blind to the failed ones.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Degraded {
    /// Indices of the shards that failed (after retry).
    pub shards_failed: Vec<usize>,
    /// Total shards in the fan-out.
    pub shards_total: usize,
}

/// The response to one [`Query`]: candidates in rank order.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub query: Query,
    pub coverage: Coverage,
    /// Candidates sorted by descending score (ties: ascending entity id).
    pub ranked: Vec<Candidate>,
    /// Present only when a sharded backend dropped shards; healthy
    /// answers carry `None` and serialize without the field.
    pub degraded: Option<Degraded>,
}

// Hand-rolled so healthy answers serialize exactly as they did before
// degradation existed (the field only appears when set).
impl Serialize for Answer {
    fn serialize_value(&self) -> Value {
        let mut fields = vec![
            ("query".to_string(), self.query.serialize_value()),
            ("coverage".to_string(), self.coverage.serialize_value()),
            ("ranked".to_string(), self.ranked.serialize_value()),
        ];
        if let Some(d) = &self.degraded {
            fields.push(("degraded".to_string(), d.serialize_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Answer {
    fn deserialize_value(v: &Value) -> Result<Self, serde::DeError> {
        let req = |k: &str| -> Result<&Value, serde::DeError> {
            v.get_field(k)
                .ok_or_else(|| serde::DeError::new(format!("Answer: missing field `{k}`")))
        };
        Ok(Answer {
            query: Query::deserialize_value(req("query")?)?,
            coverage: Coverage::deserialize_value(req("coverage")?)?,
            ranked: Vec::deserialize_value(req("ranked")?)?,
            degraded: match v.get_field("degraded") {
                None | Some(Value::Null) => None,
                Some(d) => Some(Degraded::deserialize_value(d)?),
            },
        })
    }
}

impl Answer {
    /// The best candidate, if any.
    pub fn top(&self) -> Option<&Candidate> {
        self.ranked.first()
    }

    /// This answer's candidate for `entity`, if ranked.
    pub fn candidate(&self, entity: EntityId) -> Option<&Candidate> {
        self.ranked.iter().find(|c| c.entity == entity)
    }

    /// 1-based optimistic rank of `entity` (strictly-greater scores count
    /// against it). `None` if the entity was not ranked at all.
    pub fn rank_of(&self, entity: EntityId) -> Option<usize> {
        let target = self.candidate(entity)?;
        Some(
            1 + self
                .ranked
                .iter()
                .filter(|c| c.score > target.score)
                .count(),
        )
    }
}

/// Construction-time defaults for a reasoner (per-query overrides live on
/// [`Query`]).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Default beam width for path reasoners.
    pub beam_width: usize,
    /// Default step horizon (`T` of the paper) for path reasoners.
    pub max_steps: usize,
    /// Run the beam engine with frontier deduplication (one policy
    /// forward per unique state — faster at wide beams, slightly
    /// different frontier than the exact MINERVA protocol; see
    /// [`crate::beam`]). Off by default so serving matches evaluation
    /// bit for bit.
    #[serde(default)]
    pub beam_dedup: bool,
    /// Capacity (entries) of the per-reasoner LRU frontier cache; 0
    /// disables caching. Each entry holds one untruncated ranking for a
    /// `(source, relation, width, steps)` key.
    #[serde(default)]
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            beam_width: 32,
            max_steps: 4,
            beam_dedup: false,
            cache_capacity: 0,
        }
    }
}

impl ServeConfig {
    /// Enable the LRU frontier cache with `capacity` entries.
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Enable frontier deduplication in the beam engine.
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.beam_dedup = dedup;
        self
    }

    /// Reject configurations the beam engine cannot run (zero beam width
    /// or step horizon), with a typed error instead of a panic deep in
    /// the search loop.
    pub fn validate(&self) -> Result<(), ServeConfigError> {
        if self.beam_width == 0 {
            return Err(ServeConfigError::ZeroBeamWidth);
        }
        if self.max_steps == 0 {
            return Err(ServeConfigError::ZeroMaxSteps);
        }
        Ok(())
    }
}

/// Why a [`ServeConfig`] was rejected at reasoner construction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `beam_width == 0`: the beam engine would have no frontier slots.
    ZeroBeamWidth,
    /// `max_steps == 0`: the walker could never leave the source.
    ZeroMaxSteps,
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroBeamWidth => {
                write!(f, "ServeConfig::beam_width must be at least 1")
            }
            ServeConfigError::ZeroMaxSteps => {
                write!(f, "ServeConfig::max_steps must be at least 1")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// The unified serving protocol: one query in, ranked answers with
/// optional path evidence out. Object-safe by design — every consumer
/// holds `Arc<dyn KgReasoner + Send + Sync>`.
pub trait KgReasoner {
    /// Human-readable model name (e.g. `"MMKGR"`, `"ConvE"`).
    fn name(&self) -> &str;

    /// Size of the entity vocabulary this reasoner ranks over.
    fn num_entities(&self) -> usize;

    /// Relation-space layout of the underlying graph (needed to build
    /// head queries via inverse relations and to render evidence).
    fn relations(&self) -> RelationSpace;

    /// Answer one query.
    fn answer(&self, query: &Query) -> Answer;

    /// Answer one query within a wall-clock [`Budget`].
    ///
    /// The default implementation checks the budget *around* an
    /// uninterruptible [`Self::answer`] call — enough for reasoners
    /// whose single-query latency is small against any sane deadline.
    /// Supervised backends ([`ShardedReasoner`]) override this to bound
    /// their internal waits by the remaining budget and to degrade
    /// rather than hang. Returns [`ApiError::DeadlineExceeded`] when the
    /// budget ran out (even if an answer was computed late — a deadline
    /// is a promise to the caller, not a best effort).
    fn answer_within(&self, query: &Query, budget: Budget) -> Result<Answer, ApiError> {
        budget.run(|| self.answer(query))
    }

    /// Enumerate the raw reasoning paths behind a query — every beam
    /// slot, including multiple derivations of the same answer entity,
    /// sorted by descending log-probability. `None` for models without
    /// path evidence (the KGE scorers).
    fn explain(&self, query: &Query) -> Option<Vec<BeamPath>> {
        let _ = query;
        None
    }

    /// Frontier-cache counters, for models that cache (`None` otherwise).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Does this reasoner attach reasoning-path [`Evidence`] to answers
    /// (and implement [`Self::explain`])? Path reasoners say `true`;
    /// exhaustive KGE scorers keep the default `false`.
    fn has_path_evidence(&self) -> bool {
        false
    }

    /// A live mutation touched these entities: drop any cached state
    /// that mentions them (frontier-cache lines, memoized rankings).
    /// Returns how many cached entries were invalidated. Stateless
    /// reasoners keep the default no-op.
    fn invalidate_entities(&self, touched: &[EntityId]) -> usize {
        let _ = touched;
        0
    }
}

/// Sort candidates into rank order: descending score, ascending entity id
/// so equal-scored answers are deterministic across runs and threads.
fn candidate_cmp(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.entity.0.cmp(&b.entity.0))
}

pub(crate) fn sort_candidates(cands: &mut [Candidate]) {
    cands.sort_by(candidate_cmp);
}

pub(crate) fn truncate_top_k(cands: &mut Vec<Candidate>, top_k: usize) {
    if top_k > 0 && cands.len() > top_k {
        cands.truncate(top_k);
    }
}

/// `sort_candidates` + `truncate_top_k`, with an O(n) selection fast
/// path when only a small prefix of a large candidate set survives
/// (exhaustive scorers over 10^6 entities answering `top_k = 10`).
/// `candidate_cmp` is a total order (score bits, then entity id), so
/// select-then-sort returns exactly the full sort's prefix.
pub(crate) fn rank_top_k(cands: &mut Vec<Candidate>, top_k: usize) {
    if top_k > 0 && cands.len() > top_k.saturating_mul(4) {
        cands.select_nth_unstable_by(top_k - 1, candidate_cmp);
        cands.truncate(top_k);
    }
    sort_candidates(cands);
    truncate_top_k(cands, top_k);
}

/// Rank key mirroring `candidate_cmp` for evidence-free candidates:
/// `Ord::cmp` returns `Less` when `self` outranks `other`.
struct RankKey {
    score: f32,
    entity: u32,
}

impl PartialEq for RankKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for RankKey {}
impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.entity.cmp(&other.entity))
    }
}

/// Turn an exhaustive score slab (`scores[i]` is entity `base + i`) into
/// the ranked, truncated candidate list — without materializing one
/// `Candidate` per entity when only `top_k` of a million survive. The
/// bounded worst-out heap keeps exactly the `candidate_cmp`-best `k`
/// (the comparator is total, so the selection is unambiguous), and the
/// final small sort reproduces the full sort's prefix bit-for-bit.
pub(crate) fn candidates_from_scores(scores: &[f32], base: usize, top_k: usize) -> Vec<Candidate> {
    let full = |n: usize| -> Vec<Candidate> {
        scores[..n]
            .iter()
            .enumerate()
            .map(|(i, &score)| Candidate {
                entity: EntityId((base + i) as u32),
                score,
                evidence: None,
            })
            .collect()
    };
    if top_k == 0 || scores.len() <= top_k.saturating_mul(4) {
        let mut cands = full(scores.len());
        rank_top_k(&mut cands, top_k);
        return cands;
    }
    // BinaryHeap pops its max; RankKey orders "better = Less", so the
    // max is the current worst of the kept k and eviction is O(log k).
    let mut heap: std::collections::BinaryHeap<RankKey> =
        std::collections::BinaryHeap::with_capacity(top_k + 1);
    for (i, &score) in scores.iter().enumerate() {
        let key = RankKey {
            score,
            entity: (base + i) as u32,
        };
        if heap.len() < top_k {
            heap.push(key);
        } else if key < *heap.peek().expect("non-empty heap") {
            heap.pop();
            heap.push(key);
        }
    }
    let mut cands: Vec<Candidate> = heap
        .into_iter()
        .map(|k| Candidate {
            entity: EntityId(k.entity),
            score: k.score,
            evidence: None,
        })
        .collect();
    sort_candidates(&mut cands);
    cands
}

// ----------------------------------------------------------------- cache

/// One frontier cache identity: per-query beam overrides are part of the
/// key so differently-shaped searches never alias.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    source: EntityId,
    relation: RelationId,
    width: usize,
    steps: usize,
}

struct CacheEntry {
    /// Untruncated, rank-ordered candidates (shared with in-flight hits).
    ranked: Arc<Vec<Candidate>>,
    /// Monotone recency tick (LRU victim = smallest).
    last_used: AtomicU64,
}

/// Observability counters for the frontier cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub entries: usize,
    pub capacity: usize,
    pub hits: u64,
    pub misses: u64,
}

/// LRU memo of beam-search frontiers. Reads share an `RwLock` read
/// guard (recency is bumped with a relaxed atomic, not a write lock),
/// so concurrent hit traffic never serializes; only insertions take the
/// write lock.
struct FrontierCache {
    capacity: usize,
    map: RwLock<HashMap<CacheKey, CacheEntry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FrontierCache {
    fn new(capacity: usize) -> Self {
        FrontierCache {
            capacity,
            map: RwLock::new(HashMap::with_capacity(capacity.min(1024))),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Candidate>>> {
        let map = self.map.read().unwrap();
        match map.get(key) {
            Some(entry) => {
                let now = self.tick.fetch_add(1, Ordering::Relaxed);
                entry.last_used.store(now, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.ranked))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: CacheKey, ranked: Arc<Vec<Candidate>>) {
        let mut map = self.map.write().unwrap();
        if !map.contains_key(&key) && map.len() >= self.capacity {
            // Evict the least-recently-used entry.
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k)
            {
                map.remove(&victim);
            }
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        map.insert(
            key,
            CacheEntry {
                ranked,
                last_used: AtomicU64::new(now),
            },
        );
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.read().unwrap().len(),
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Targeted invalidation after a live mutation: drop only the
    /// entries whose query source or ranked candidates mention a touched
    /// entity, keeping the rest of the cache warm (no full flush).
    ///
    /// This is keyed on the entities a ranking *names*; an entry whose
    /// best paths merely pass through a touched entity without ranking
    /// it keeps serving its (epoch-pinned, internally consistent)
    /// pre-mutation ranking until evicted — the documented trade for not
    /// flushing the world on every write.
    fn invalidate_entities(&self, touched: &[EntityId]) -> usize {
        if touched.is_empty() {
            return 0;
        }
        let set: std::collections::HashSet<EntityId> = touched.iter().copied().collect();
        let mut map = self.map.write().unwrap();
        let before = map.len();
        map.retain(|key, entry| {
            !set.contains(&key.source) && !entry.ranked.iter().any(|c| set.contains(&c.entity))
        });
        before - map.len()
    }
}

// ---------------------------------------------------------------- policy

/// Serves any [`RolloutPolicy`] via the beam engine: candidates are the
/// entities some beam reaches, scored by their best path
/// log-probability, each carrying that path as [`Evidence`]. Queries run
/// on a thread-local [`crate::beam::BeamEngine`] and, when
/// [`ServeConfig::cache_capacity`] is set, repeated `(source, relation,
/// width, steps)` queries come from the LRU frontier cache.
pub struct PolicyReasoner<P> {
    name: String,
    policy: P,
    graph: GraphHandle,
    cfg: ServeConfig,
    cache: Option<FrontierCache>,
}

impl<P: RolloutPolicy> PolicyReasoner<P> {
    /// Build a reasoner, panicking on an invalid [`ServeConfig`]. Use
    /// [`Self::try_new`] to handle the error instead — either way the
    /// config is rejected here, at construction, never deep inside
    /// [`crate::beam::BeamEngine`] mid-query.
    pub fn new(
        name: impl Into<String>,
        policy: P,
        graph: Arc<KnowledgeGraph>,
        cfg: ServeConfig,
    ) -> Self {
        match Self::try_new(name, policy, graph, cfg) {
            Ok(r) => r,
            Err(e) => panic!("PolicyReasoner: {e}"),
        }
    }

    /// Build a reasoner, rejecting an invalid [`ServeConfig`] with a
    /// typed [`ServeConfigError`].
    pub fn try_new(
        name: impl Into<String>,
        policy: P,
        graph: Arc<KnowledgeGraph>,
        cfg: ServeConfig,
    ) -> Result<Self, ServeConfigError> {
        Self::try_new_live(name, policy, GraphHandle::new(graph), cfg)
    }

    /// Build a reasoner over a live [`GraphHandle`]: each query pins the
    /// epoch current at its start and runs entirely against that view,
    /// so published mutations are picked up between queries but never
    /// observed mid-query. `new`/`try_new` are this with a fixed handle.
    pub fn try_new_live(
        name: impl Into<String>,
        policy: P,
        graph: GraphHandle,
        cfg: ServeConfig,
    ) -> Result<Self, ServeConfigError> {
        cfg.validate()?;
        Ok(PolicyReasoner {
            name: name.into(),
            policy,
            graph,
            cfg,
            cache: (cfg.cache_capacity > 0).then(|| FrontierCache::new(cfg.cache_capacity)),
        })
    }

    /// The underlying policy (e.g. to hand back to a trainer).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Pin and return the currently published graph epoch.
    pub fn graph(&self) -> Arc<KnowledgeGraph> {
        self.graph.pin()
    }

    /// The beam a query runs: its own width and step overrides, else
    /// this reasoner's [`ServeConfig`].
    fn beam_config(&self, query: &Query) -> BeamConfig {
        BeamConfig {
            width: query.beam.unwrap_or(self.cfg.beam_width),
            steps: query.steps.unwrap_or(self.cfg.max_steps),
            dedup: self.cfg.beam_dedup,
        }
    }

    /// Run the beam and aggregate the best path per distinct end entity
    /// (same aggregation as `infer::rank_query`, so serving and
    /// evaluation agree). Returns the full rank-ordered candidate list.
    fn compute_ranked(
        &self,
        graph: &KnowledgeGraph,
        source: EntityId,
        relation: RelationId,
        cfg: &BeamConfig,
    ) -> Vec<Candidate> {
        with_thread_engine(|engine| {
            engine.run(&self.policy, graph, source, relation, cfg);
            let mut best: Vec<Candidate> = Vec::with_capacity(engine.frontier_len());
            let mut best_slot: Vec<usize> = Vec::with_capacity(engine.frontier_len());
            for (slot, b) in engine.frontier().enumerate() {
                match best.iter().position(|c| c.entity == b.entity) {
                    Some(i) if best[i].score >= b.logp => {}
                    Some(i) => {
                        best[i].score = b.logp;
                        best[i].evidence = Some(Evidence {
                            relations: Vec::new(),
                            hops: b.hops,
                            logp: b.logp,
                        });
                        best_slot[i] = slot;
                    }
                    None => {
                        best.push(Candidate {
                            entity: b.entity,
                            score: b.logp,
                            evidence: Some(Evidence {
                                relations: Vec::new(),
                                hops: b.hops,
                                logp: b.logp,
                            }),
                        });
                        best_slot.push(slot);
                    }
                }
            }
            // Materialize relation paths only for the winners.
            for (c, &slot) in best.iter_mut().zip(&best_slot) {
                if let Some(ev) = &mut c.evidence {
                    engine.path_into(slot, &mut ev.relations);
                }
            }
            sort_candidates(&mut best);
            best
        })
    }
}

impl<P: RolloutPolicy> KgReasoner for PolicyReasoner<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_entities(&self) -> usize {
        self.graph.pin().num_entities()
    }

    fn relations(&self) -> RelationSpace {
        self.graph.pin().relations()
    }

    fn answer(&self, query: &Query) -> Answer {
        let beam_cfg = self.beam_config(query);
        let key = CacheKey {
            source: query.source,
            relation: query.relation,
            width: beam_cfg.width,
            steps: beam_cfg.steps,
        };
        // Clone only the top_k prefix out of the shared cache entry
        // (it is already in rank order; 0 means everything).
        let prefix = |full: &[Candidate]| -> Vec<Candidate> {
            let take = if query.top_k == 0 {
                full.len()
            } else {
                query.top_k.min(full.len())
            };
            full[..take].to_vec()
        };
        // Pin once: the whole query (beam run included) sees one epoch.
        let graph = self.graph.pin();
        let ranked: Vec<Candidate> = match &self.cache {
            Some(cache) => match cache.get(&key) {
                Some(hit) => prefix(&hit),
                None => {
                    let computed = Arc::new(self.compute_ranked(
                        &graph,
                        query.source,
                        query.relation,
                        &beam_cfg,
                    ));
                    cache.insert(key, Arc::clone(&computed));
                    prefix(&computed)
                }
            },
            None => {
                let mut full = self.compute_ranked(&graph, query.source, query.relation, &beam_cfg);
                truncate_top_k(&mut full, query.top_k);
                full
            }
        };
        Answer {
            query: *query,
            coverage: Coverage::Reached,
            ranked,
            degraded: None,
        }
    }

    /// Raw beam enumeration: one [`BeamPath`] per surviving beam slot
    /// (already in descending-logp order — the engine's frontier is
    /// sorted), truncated to `top_k`. Unlike `answer`, distinct
    /// derivations of the same entity each keep their own path — this is
    /// what `/v1/explain` and `mmkgr explain` show.
    fn explain(&self, query: &Query) -> Option<Vec<BeamPath>> {
        let beam_cfg = self.beam_config(query);
        let graph = self.graph.pin();
        let mut paths = with_thread_engine(|engine| {
            engine.search(
                &self.policy,
                &graph,
                query.source,
                query.relation,
                &beam_cfg,
            )
        });
        if query.top_k > 0 {
            paths.truncate(query.top_k);
        }
        Some(paths)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    fn has_path_evidence(&self) -> bool {
        true
    }

    fn invalidate_entities(&self, touched: &[EntityId]) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.invalidate_entities(touched))
    }
}

// ---------------------------------------------------------------- scorer

/// Serves any [`TripleScorer`] by exhaustively scoring every candidate
/// object entity. No path evidence — single-hop models are the black box
/// the paper contrasts multi-hop reasoning against.
pub struct ScorerReasoner<S> {
    name: String,
    scorer: S,
    num_entities: usize,
    relations: RelationSpace,
}

impl<S: TripleScorer> ScorerReasoner<S> {
    pub fn new(
        name: impl Into<String>,
        scorer: S,
        num_entities: usize,
        relations: RelationSpace,
    ) -> Self {
        ScorerReasoner {
            name: name.into(),
            scorer,
            num_entities,
            relations,
        }
    }

    /// Convenience constructor pulling shape from a graph.
    pub fn for_graph(name: impl Into<String>, scorer: S, graph: &KnowledgeGraph) -> Self {
        Self::new(name, scorer, graph.num_entities(), graph.relations())
    }

    pub fn scorer(&self) -> &S {
        &self.scorer
    }
}

impl<S: TripleScorer> KgReasoner for ScorerReasoner<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn relations(&self) -> RelationSpace {
        self.relations
    }

    fn answer(&self, query: &Query) -> Answer {
        // The eval hot loop answers thousands of queries back to back;
        // a thread-local score buffer keeps `score_all_objects` on its
        // warm-buffer path (see `prepare_score_buffer`) without putting
        // interior mutability into the reasoner itself.
        thread_local! {
            static SCORE_BUF: std::cell::RefCell<Vec<f32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let cands: Vec<Candidate> = SCORE_BUF.with(|buf| {
            let mut scores = buf.borrow_mut();
            self.scorer.score_all_objects(
                query.source,
                query.relation,
                self.num_entities,
                &mut scores,
            );
            candidates_from_scores(&scores, 0, query.top_k)
        });
        Answer {
            query: *query,
            coverage: Coverage::Exhaustive,
            ranked: cands,
            degraded: None,
        }
    }
}

// ---------------------------------------------------------------- batch

/// Shared state of one in-flight batch. Workers steal indices from
/// `next`, stash answers locally, then flush under one lock; the worker
/// that fills the last slot signals `done_tx`. A reasoner panic is
/// caught, recorded in `panicked`, and re-raised at the submitter (so
/// the pool's threads survive, matching the old `thread::scope`
/// behaviour of propagating the panic to the caller).
#[derive(Clone)]
struct BatchJob {
    queries: Arc<Vec<Query>>,
    next: Arc<AtomicUsize>,
    slots: Arc<Mutex<Vec<Option<Answer>>>>,
    filled: Arc<AtomicUsize>,
    panicked: Arc<Mutex<Option<String>>>,
    done_tx: mpsc::Sender<()>,
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A persistent serving pool: `workers` OS threads spawned **once**,
/// each holding its own clone of the reasoner `Arc` (and, for path
/// reasoners, its own thread-local beam engine), fed batches over a
/// channel. Replaces the per-call `thread::scope` fan-out — repeated
/// small batches no longer pay thread spawn/join latency.
///
/// Results come back in query order and are identical to calling
/// [`KgReasoner::answer`] sequentially (each query is answered
/// independently; candidate order is fully deterministic). Dropping the
/// pool closes the channel and joins the workers.
pub struct WorkerPool {
    reasoner: Arc<dyn KgReasoner + Send + Sync>,
    tx: Option<mpsc::Sender<BatchJob>>,
    rx: Arc<Mutex<mpsc::Receiver<BatchJob>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
}

fn spawn_pool_worker(
    reasoner: Arc<dyn KgReasoner + Send + Sync>,
    rx: Arc<Mutex<mpsc::Receiver<BatchJob>>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        // One receiver, shared: idle workers block here.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // pool dropped
        };
        // Chaos hook, deliberately *outside* the per-query catch_unwind:
        // a fired fault kills this thread and exercises the respawn
        // supervision in `ensure_workers`. No query index has been
        // claimed yet, so the batch loses capacity but never answers.
        faults::on_worker_job();
        let total = job.queries.len();
        let mut local: Vec<(usize, Answer)> = Vec::new();
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            let reasoner = &reasoner;
            let queries = &job.queries;
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reasoner.answer(&queries[i])
            })) {
                Ok(a) => local.push((i, a)),
                Err(payload) => {
                    *job.panicked.lock().unwrap() = Some(panic_message(&*payload));
                    let _ = job.done_tx.send(());
                    break;
                }
            }
        }
        if local.is_empty() {
            continue;
        }
        let count = local.len();
        {
            let mut slots = job.slots.lock().unwrap();
            for (i, a) in local {
                slots[i] = Some(a);
            }
        }
        if job.filled.fetch_add(count, Ordering::AcqRel) + count == total {
            // Submitter may already have gone away on panic;
            // a closed channel is fine.
            let _ = job.done_tx.send(());
        }
    })
}

impl WorkerPool {
    pub fn new(reasoner: Arc<dyn KgReasoner + Send + Sync>, workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<BatchJob>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| spawn_pool_worker(Arc::clone(&reasoner), Arc::clone(&rx)))
            .collect();
        WorkerPool {
            reasoner,
            tx: Some(tx),
            rx,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Respawn supervision: replace any worker thread that died (a panic
    /// that escaped the per-query guard — e.g. an injected chaos fault).
    /// Returns how many workers were respawned; each bumps the global
    /// [`faults::WORKER_RESPAWNS`] counter.
    fn ensure_workers(&self) -> usize {
        let mut handles = self.handles.lock().unwrap();
        let mut respawned = 0;
        for h in handles.iter_mut() {
            if h.is_finished() {
                let fresh = spawn_pool_worker(Arc::clone(&self.reasoner), Arc::clone(&self.rx));
                let _ = std::mem::replace(h, fresh).join();
                respawned += 1;
            }
        }
        if respawned > 0 {
            faults::WORKER_RESPAWNS.fetch_add(respawned as u64, Ordering::Relaxed);
        }
        respawned
    }

    /// Hand every (live) worker a handle to the job; late receivers see
    /// an exhausted cursor and move on.
    fn submit(&self, job: &BatchJob) {
        let tx = self.tx.as_ref().expect("pool channel open while alive");
        for _ in 0..self.workers {
            tx.send(job.clone()).expect("pool receiver alive");
        }
    }

    /// Answer a batch on the pool; blocks until every query is answered.
    /// A reasoner panic propagates to the caller (the pool itself
    /// survives). Budget-aware callers want [`Self::answer_batch_within`].
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        match self.answer_batch_within(queries, Budget::none()) {
            Ok(answers) => answers,
            Err(ApiError::Internal { detail }) => {
                panic!("WorkerPool: reasoner panicked while answering a batch: {detail}")
            }
            Err(e) => panic!("WorkerPool: unexpected batch failure: {e}"),
        }
    }

    /// Answer a batch within a wall-clock [`Budget`], under supervision:
    /// dead workers are respawned (and the job re-offered) mid-wait, a
    /// reasoner panic surfaces as a typed [`ApiError::Internal`], and an
    /// exhausted budget returns [`ApiError::DeadlineExceeded`] — workers
    /// still finishing the abandoned batch discard their results.
    pub fn answer_batch_within(
        &self,
        queries: &[Query],
        budget: Budget,
    ) -> Result<Vec<Answer>, ApiError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_workers();
        let (done_tx, done_rx) = mpsc::channel();
        let job = BatchJob {
            queries: Arc::new(queries.to_vec()),
            next: Arc::new(AtomicUsize::new(0)),
            slots: Arc::new(Mutex::new((0..queries.len()).map(|_| None).collect())),
            filled: Arc::new(AtomicUsize::new(0)),
            panicked: Arc::new(Mutex::new(None)),
            done_tx,
        };
        self.submit(&job);
        // Supervision wait: poll so that a worker killed *while holding
        // this very job* (nothing left to signal `done`) still gets
        // respawned and the job re-offered instead of hanging forever.
        loop {
            match done_rx.recv_timeout(budget.clamp(Duration::from_millis(50))) {
                Ok(()) => break,
                Err(mpsc::RecvTimeoutError::Timeout)
                | Err(mpsc::RecvTimeoutError::Disconnected) => {
                    if budget.expired() {
                        return Err(budget.exceeded());
                    }
                    if self.ensure_workers() > 0 {
                        self.submit(&job);
                    }
                }
            }
        }
        if let Some(msg) = job.panicked.lock().unwrap().take() {
            return Err(ApiError::Internal { detail: msg });
        }
        let BatchJob { slots, .. } = job;
        Ok(Arc::try_unwrap(slots)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_else(|slots| std::mem::take(&mut *slots.lock().unwrap()))
            .into_iter()
            .map(|a| a.expect("every query slot filled"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel → workers exit their recv loop
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MmkgrConfig;
    use crate::infer::beam_search;
    use crate::model::MmkgrModel;
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_kg::Triple;

    fn tiny() -> (mmkgr_kg::MultiModalKG, MmkgrModel) {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        (kg, model)
    }

    fn policy_reasoner() -> (mmkgr_kg::MultiModalKG, Arc<dyn KgReasoner + Send + Sync>) {
        let (kg, model) = tiny();
        let graph = Arc::new(kg.graph.clone());
        let r: Arc<dyn KgReasoner + Send + Sync> = Arc::new(PolicyReasoner::new(
            "MMKGR",
            model,
            graph,
            ServeConfig::default(),
        ));
        (kg, r)
    }

    #[test]
    fn policy_answers_are_sorted_and_capped() {
        let (kg, r) = policy_reasoner();
        let t: Triple = kg.split.test[0];
        let a = r.answer(&Query::new(t.s, t.r).with_top_k(5));
        assert!(a.ranked.len() <= 5);
        assert_eq!(a.coverage, Coverage::Reached);
        for w in a.ranked.windows(2) {
            assert!(w[0].score >= w[1].score, "ranked answers must be sorted");
        }
        for c in &a.ranked {
            let e = c.evidence.as_ref().expect("path reasoners attach evidence");
            assert_eq!(e.hops, e.relations.len());
            assert!((e.logp - c.score).abs() < 1e-6);
        }
    }

    #[test]
    fn policy_answer_matches_raw_beam_search() {
        let (kg, model) = tiny();
        let t = kg.split.test[0];
        let width = 8;
        let steps = 3;
        // Ground truth: raw beam search aggregated by best logp.
        let paths = beam_search(&model, &kg.graph, t.s, t.r, width, steps);
        let mut best: std::collections::HashMap<EntityId, f32> = std::collections::HashMap::new();
        for p in &paths {
            let e = best.entry(p.entity).or_insert(f32::NEG_INFINITY);
            if p.logp > *e {
                *e = p.logp;
            }
        }
        let r = PolicyReasoner::new(
            "MMKGR",
            model,
            Arc::new(kg.graph.clone()),
            ServeConfig::default(),
        );
        let a = r.answer(
            &Query::new(t.s, t.r)
                .with_top_k(0)
                .with_beam(width)
                .with_steps(steps),
        );
        assert_eq!(a.ranked.len(), best.len());
        for c in &a.ranked {
            let expect = best[&c.entity];
            assert!(
                (c.score - expect).abs() < 1e-6,
                "serve score must equal best beam logp"
            );
        }
    }

    #[test]
    fn scorer_answers_rank_every_entity() {
        let (kg, _) = tiny();
        struct ByIndex;
        impl TripleScorer for ByIndex {
            fn score(&self, _: EntityId, _: RelationId, o: EntityId) -> f32 {
                o.0 as f32
            }
        }
        let r = ScorerReasoner::for_graph("ByIndex", ByIndex, &kg.graph);
        let a = r.answer(&Query::new(EntityId(0), RelationId(0)).with_top_k(0));
        assert_eq!(a.coverage, Coverage::Exhaustive);
        assert_eq!(a.ranked.len(), kg.num_entities());
        // Highest index scores highest.
        assert_eq!(
            a.top().unwrap().entity,
            EntityId((kg.num_entities() - 1) as u32)
        );
        assert!(a.ranked.iter().all(|c| c.evidence.is_none()));
    }

    #[test]
    fn rank_of_uses_strictly_greater_scores() {
        let a = Answer {
            query: Query::new(EntityId(0), RelationId(0)),
            coverage: Coverage::Exhaustive,
            degraded: None,
            ranked: vec![
                Candidate {
                    entity: EntityId(5),
                    score: 2.0,
                    evidence: None,
                },
                Candidate {
                    entity: EntityId(1),
                    score: 1.0,
                    evidence: None,
                },
                Candidate {
                    entity: EntityId(2),
                    score: 1.0,
                    evidence: None,
                },
                Candidate {
                    entity: EntityId(9),
                    score: 0.0,
                    evidence: None,
                },
            ],
        };
        assert_eq!(a.rank_of(EntityId(5)), Some(1));
        // Tied candidates both rank 2 under the optimistic protocol.
        assert_eq!(a.rank_of(EntityId(1)), Some(2));
        assert_eq!(a.rank_of(EntityId(2)), Some(2));
        assert_eq!(a.rank_of(EntityId(9)), Some(4));
        assert_eq!(a.rank_of(EntityId(77)), None);
    }

    #[test]
    fn pool_answer_batch_matches_sequential() {
        let (kg, r) = policy_reasoner();
        let queries: Vec<Query> = kg
            .split
            .test
            .iter()
            .take(6)
            .map(|t| Query::new(t.s, t.r).with_beam(8).with_steps(3))
            .collect();
        let sequential: Vec<Answer> = queries.iter().map(|q| r.answer(q)).collect();
        let batched = WorkerPool::new(Arc::clone(&r), 4).answer_batch(&queries);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn pool_answer_batch_handles_empty_and_single_worker() {
        let (_, r) = policy_reasoner();
        let one_worker = WorkerPool::new(Arc::clone(&r), 1);
        assert!(one_worker.answer_batch(&[]).is_empty());
        let q = [Query::new(EntityId(0), RelationId(0))];
        let one = one_worker.answer_batch(&q);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn rank_top_k_matches_full_sort_exactly() {
        // Scores collide heavily (mod 97) so the entity-id tiebreak is
        // load-bearing, and n ≫ 4k forces the selection fast path.
        let mk = |n: usize| -> Vec<Candidate> {
            (0..n)
                .map(|i| Candidate {
                    entity: EntityId(i as u32),
                    score: ((i.wrapping_mul(2654435761)) % 97) as f32 / 7.0,
                    evidence: None,
                })
                .collect()
        };
        for (n, k) in [
            (1000, 10),
            (1000, 1),
            (1000, 999),
            (50, 10),
            (10, 0),
            (0, 5),
        ] {
            let mut full = mk(n);
            sort_candidates(&mut full);
            truncate_top_k(&mut full, k);
            let mut fast = mk(n);
            rank_top_k(&mut fast, k);
            assert_eq!(fast, full, "n={n}, top_k={k}");
        }
    }

    #[test]
    fn candidates_from_scores_matches_materialize_and_sort() {
        // Heavy ties via mod 7 make the entity-id tiebreak decisive.
        let scores: Vec<f32> = (0..500)
            .map(|i: usize| ((i.wrapping_mul(48271)) % 7) as f32 - 3.0)
            .collect();
        for (base, k) in [(0usize, 10usize), (100, 1), (0, 0), (0, 499), (7, 125)] {
            let mut full: Vec<Candidate> = scores
                .iter()
                .enumerate()
                .map(|(i, &score)| Candidate {
                    entity: EntityId((base + i) as u32),
                    score,
                    evidence: None,
                })
                .collect();
            sort_candidates(&mut full);
            truncate_top_k(&mut full, k);
            assert_eq!(
                candidates_from_scores(&scores, base, k),
                full,
                "base={base}, top_k={k}"
            );
        }
        assert!(candidates_from_scores(&[], 0, 5).is_empty());
    }

    #[test]
    fn serve_config_zero_params_are_typed_errors() {
        assert_eq!(
            ServeConfig {
                beam_width: 0,
                ..ServeConfig::default()
            }
            .validate(),
            Err(ServeConfigError::ZeroBeamWidth)
        );
        assert_eq!(
            ServeConfig {
                max_steps: 0,
                ..ServeConfig::default()
            }
            .validate(),
            Err(ServeConfigError::ZeroMaxSteps)
        );
        assert_eq!(ServeConfig::default().validate(), Ok(()));

        let (kg, model) = tiny();
        let err = PolicyReasoner::try_new(
            "MMKGR",
            model,
            Arc::new(kg.graph.clone()),
            ServeConfig {
                beam_width: 0,
                ..ServeConfig::default()
            },
        )
        .err()
        .expect("zero beam width must be rejected at construction");
        assert_eq!(err, ServeConfigError::ZeroBeamWidth);
        assert!(err.to_string().contains("beam_width"));
    }

    #[test]
    fn explain_enumerates_raw_beam_paths() {
        let (kg, model) = tiny();
        let t = kg.split.test[0];
        let direct = beam_search(&model, &kg.graph, t.s, t.r, 8, 3);
        let r = PolicyReasoner::new(
            "MMKGR",
            model,
            Arc::new(kg.graph.clone()),
            ServeConfig::default(),
        );
        let paths = r
            .explain(
                &Query::new(t.s, t.r)
                    .with_top_k(0)
                    .with_beam(8)
                    .with_steps(3),
            )
            .expect("path reasoners explain");
        assert_eq!(paths, direct, "explain must equal raw beam_search");
        for w in paths.windows(2) {
            assert!(w[0].logp >= w[1].logp, "paths sorted by descending logp");
        }
        let capped = r
            .explain(
                &Query::new(t.s, t.r)
                    .with_top_k(3)
                    .with_beam(8)
                    .with_steps(3),
            )
            .unwrap();
        assert_eq!(capped.len(), 3.min(direct.len()));
        // Scorers have no paths to show.
        struct Flat;
        impl TripleScorer for Flat {
            fn score(&self, _: EntityId, _: RelationId, _: EntityId) -> f32 {
                0.0
            }
        }
        let s = ScorerReasoner::for_graph("Flat", Flat, &kg.graph);
        assert!(s.explain(&Query::new(t.s, t.r)).is_none());
    }

    #[test]
    fn worker_pool_drop_joins_threads_cleanly() {
        let (_, r) = policy_reasoner();
        let queries: Vec<Query> = (0..6)
            .map(|i| {
                Query::new(EntityId(i), RelationId(0))
                    .with_beam(4)
                    .with_steps(2)
            })
            .collect();
        let pool = WorkerPool::new(Arc::clone(&r), 3);
        let answers = pool.answer_batch(&queries);
        assert_eq!(answers.len(), queries.len());
        drop(pool);
        // Drop closes the channel and joins every worker; once they are
        // gone, the only reasoner handle left is ours.
        assert_eq!(
            Arc::strong_count(&r),
            1,
            "worker threads must drop their reasoner clones on join"
        );
    }

    #[test]
    fn evidence_renders_inverse_relations() {
        let rs = RelationSpace::new(4);
        let ev = Evidence {
            relations: vec![RelationId(1), rs.inverse(RelationId(2))],
            hops: 2,
            logp: -1.0,
        };
        assert_eq!(ev.render(&rs), "r1 → r2⁻¹");
        let empty = Evidence {
            relations: vec![],
            hops: 0,
            logp: 0.0,
        };
        assert_eq!(empty.render(&rs), "(stay)");
    }

    #[test]
    fn wire_omitted_top_k_means_default_not_unlimited() {
        let q: Query = serde_json::from_str(r#"{"source": 3, "relation": 1}"#).unwrap();
        assert_eq!(q.top_k, Query::DEFAULT_TOP_K);
        assert_eq!(q.beam, None);
        assert_eq!(q.steps, None);
    }

    #[test]
    fn query_serializes_roundtrip() {
        let q = Query::new(EntityId(3), RelationId(1))
            .with_top_k(7)
            .with_beam(16);
        let s = serde_json::to_string(&q).unwrap();
        let back: Query = serde_json::from_str(&s).unwrap();
        assert_eq!(back, q);
    }
}
