//! Entity-sharded serving: one [`ShardedReasoner`] composes N shards
//! behind the same [`KgReasoner`] trait the registry and HTTP front end
//! already speak, so sharding is invisible above this module.
//!
//! Two sharding disciplines, matching the two model families:
//!
//! - **Scored** (KGE scorers): exhaustive object scoring is partitioned
//!   by contiguous entity range. Shard `i` scores objects in
//!   `bounds[i]..bounds[i+1]` on its own thread, ranks and truncates its
//!   slice locally, and the merger re-sorts the per-shard top-k unions.
//!   This is exact: `score(s, r, o)` does not depend on which shard
//!   evaluates it, and the global top-k is always a subset of the union
//!   of per-shard top-ks, so the merged ranking is bit-identical to an
//!   unsharded [`super::ScorerReasoner`] pass (both use
//!   [`super::sort_candidates`]'s descending-score / ascending-id order).
//! - **Routed** (path reasoners): beam search walks the whole graph from
//!   one source, so it cannot be range-split. Instead each query routes
//!   to the shard owning its *source* entity; shards hold full replicas
//!   (or shard-local fine-tunes) and answer independently. Batches fan
//!   out across shards with one thread per non-empty shard.
//!
//! Either way the v1 wire surface is untouched: a `ShardedReasoner`
//! registers in [`super::ModelRegistry`] like any other model.
//!
//! # Supervision
//!
//! Scored fan-out runs on a persistent per-reasoner shard pool (spawned
//! once at construction, closing the old per-query `thread::scope`
//! spawn cost) under a supervisor: every shard task runs inside
//! `catch_unwind`, waits are bounded by the caller's [`Budget`], and a
//! failed shard is retried **once** after a jittered backoff. A shard
//! that still fails is dropped from the merge — the answer is the exact
//! merged top-k of the survivors, annotated with
//! [`Degraded`](super::Degraded) so clients can tell a partial ranking
//! from a full one. An exhausted budget wins over degradation: the
//! caller gets [`ApiError::DeadlineExceeded`], never a late answer.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use mmkgr_embed::TripleScorer;
use mmkgr_kg::{EntityId, RelationId, RelationSpace};

use super::{
    candidates_from_scores, faults, panic_message, rank_top_k, Answer, ApiError, Budget,
    CacheStats, Candidate, Coverage, Degraded, KgReasoner, Query,
};
use crate::infer::BeamPath;

/// Why a [`ShardedReasoner`] could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards requested (or an empty shard list supplied).
    NoShards,
    /// A routed shard disagrees with shard 0 on entity count or relation
    /// layout — replicas must serve the same graph shape.
    ShapeMismatch {
        shard: usize,
        expected_entities: usize,
        got_entities: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "ShardedReasoner needs at least one shard"),
            ShardError::ShapeMismatch {
                shard,
                expected_entities,
                got_entities,
            } => write!(
                f,
                "shard {shard} serves {got_entities} entities but shard 0 serves \
                 {expected_entities}; routed shards must be shape-identical replicas"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Object-safe view of a [`TripleScorer`] for range scoring — lets the
/// sharded reasoner stay non-generic (it is always held as
/// `Arc<dyn KgReasoner>`).
trait ObjectScorer: Send + Sync {
    /// Scores for `lo..hi`, via the scorer's vectorized range path.
    fn score_range(&self, s: EntityId, r: RelationId, lo: usize, hi: usize, out: &mut Vec<f32>);
}

impl<S: TripleScorer + Send + Sync> ObjectScorer for S {
    fn score_range(&self, s: EntityId, r: RelationId, lo: usize, hi: usize, out: &mut Vec<f32>) {
        self.score_objects_range(s, r, lo, hi, out);
    }
}

enum Mode {
    /// Exhaustive scoring split by entity range.
    Scored(Arc<dyn ObjectScorer>),
    /// Full reasoners, queries routed by source-entity shard.
    Routed(Vec<Arc<dyn KgReasoner + Send + Sync>>),
}

/// One unit of shard work: score a range, report back.
type ShardTask = Box<dyn FnOnce() + Send>;

/// A persistent pool of shard-task threads, spawned once per
/// [`ShardedReasoner`]. Tasks run under `catch_unwind` so a panicking
/// scorer (or an injected chaos fault) never kills a pool thread — the
/// failure is reported through the task's own result channel and the
/// thread moves on to the next task.
struct ShardPool {
    tx: Mutex<Option<mpsc::Sender<ShardTask>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardPool {
    fn new(threads: usize) -> ShardPool {
        let (tx, rx) = mpsc::channel::<ShardTask>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    let task = match rx.lock().unwrap().recv() {
                        Ok(t) => t,
                        Err(_) => return, // pool dropped
                    };
                    // The pool boundary: a panic inside the task is the
                    // task's problem, not the thread's.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                })
            })
            .collect();
        ShardPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
        }
    }

    fn submit(&self, task: ShardTask) {
        let tx = self.tx.lock().unwrap();
        tx.as_ref()
            .expect("shard pool open while alive")
            .send(task)
            .expect("shard pool workers alive");
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.tx.lock().unwrap().take(); // close the channel
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

/// One supervised attempt at scoring a shard: chaos hooks first (so
/// injected latency/panics land inside the unwind guard), then the real
/// range scoring. `Err` carries the panic message.
fn shard_attempt(
    scorer: &dyn ObjectScorer,
    query: &Query,
    shard: usize,
    lo: usize,
    hi: usize,
) -> Result<Vec<Candidate>, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        faults::on_shard_task(shard);
        ShardedReasoner::score_shard(scorer, query, lo, hi)
    }))
    .map_err(|p| panic_message(&*p))
}

/// N entity-partitioned shards behind one [`KgReasoner`] (see the module
/// docs for the two disciplines and the exactness argument).
pub struct ShardedReasoner {
    name: String,
    mode: Mode,
    num_entities: usize,
    relations: RelationSpace,
    /// `bounds[i]..bounds[i+1]` is shard `i`'s entity range;
    /// `bounds.len() == shards + 1`, `bounds[0] == 0`, last == entities.
    bounds: Vec<usize>,
    /// Persistent fan-out threads for scored mode (`None` for routed
    /// mode and for a single shard, which scores on the caller thread).
    pool: Option<ShardPool>,
}

impl std::fmt::Debug for ShardedReasoner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReasoner")
            .field("name", &self.name)
            .field(
                "mode",
                &match self.mode {
                    Mode::Scored(_) => "scored",
                    Mode::Routed(_) => "routed",
                },
            )
            .field("num_entities", &self.num_entities)
            .field("bounds", &self.bounds)
            .finish()
    }
}

/// Contiguous near-equal split of `0..n` into `shards` ranges.
fn uniform_bounds(n: usize, shards: usize) -> Vec<usize> {
    (0..=shards).map(|i| i * n / shards).collect()
}

impl ShardedReasoner {
    /// Shard an exhaustive [`TripleScorer`] by entity range. The scorer
    /// is shared (`Arc`-cloned) across shards — only the score loop is
    /// partitioned. Errors on `shards == 0`.
    pub fn from_scorer<S>(
        name: impl Into<String>,
        scorer: S,
        num_entities: usize,
        relations: RelationSpace,
        shards: usize,
    ) -> Result<Self, ShardError>
    where
        S: TripleScorer + Send + Sync + 'static,
    {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        Ok(ShardedReasoner {
            name: name.into(),
            mode: Mode::Scored(Arc::new(scorer)),
            num_entities,
            relations,
            bounds: uniform_bounds(num_entities, shards),
            pool: (shards > 1).then(|| ShardPool::new(shards.min(16))),
        })
    }

    /// Compose full reasoner replicas, routing each query to the shard
    /// that owns its source entity. All shards must agree on entity
    /// count and relation layout. Errors on an empty list or a shape
    /// mismatch.
    pub fn from_routed(
        name: impl Into<String>,
        shards: Vec<Arc<dyn KgReasoner + Send + Sync>>,
    ) -> Result<Self, ShardError> {
        let first = shards.first().ok_or(ShardError::NoShards)?;
        let num_entities = first.num_entities();
        let relations = first.relations();
        for (i, s) in shards.iter().enumerate().skip(1) {
            if s.num_entities() != num_entities || s.relations() != relations {
                return Err(ShardError::ShapeMismatch {
                    shard: i,
                    expected_entities: num_entities,
                    got_entities: s.num_entities(),
                });
            }
        }
        let bounds = uniform_bounds(num_entities, shards.len());
        Ok(ShardedReasoner {
            name: name.into(),
            mode: Mode::Routed(shards),
            num_entities,
            relations,
            bounds,
            pool: None,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Which shard owns entity `e` (callers guarantee `e` is in range).
    fn shard_of(&self, e: EntityId) -> usize {
        // bounds is sorted; the owner is the last bound <= e.
        self.bounds
            .partition_point(|&b| b <= e.index())
            .saturating_sub(1)
            .min(self.num_shards() - 1)
    }

    /// Score shard `i`'s entity range, returning its slice of the
    /// ranking already sorted and truncated to `top_k`.
    fn score_shard(
        scorer: &dyn ObjectScorer,
        query: &Query,
        lo: usize,
        hi: usize,
    ) -> Vec<Candidate> {
        let mut scores = Vec::new();
        scorer.score_range(query.source, query.relation, lo, hi, &mut scores);
        candidates_from_scores(&scores, lo, query.top_k)
    }

    /// Run one wave of shard attempts — concurrently on the shard pool
    /// when there is one, inline otherwise — collecting each shard's
    /// result. Waits are bounded by the remaining `budget`; a shard that
    /// produced nothing before the deadline simply has no entry in the
    /// returned list.
    fn run_wave(
        &self,
        scorer: &Arc<dyn ObjectScorer>,
        query: &Query,
        pending: &[(usize, usize, usize)],
        budget: Budget,
    ) -> Vec<(usize, Result<Vec<Candidate>, String>)> {
        let Some(pool) = &self.pool else {
            return pending
                .iter()
                .map(|&(shard, lo, hi)| (shard, shard_attempt(&**scorer, query, shard, lo, hi)))
                .collect();
        };
        let (res_tx, res_rx) = mpsc::channel();
        for &(shard, lo, hi) in pending {
            let scorer = Arc::clone(scorer);
            let query = *query;
            let tx = res_tx.clone();
            pool.submit(Box::new(move || {
                // The receiver may be gone (deadline hit): fine.
                let _ = tx.send((shard, shard_attempt(&*scorer, &query, shard, lo, hi)));
            }));
        }
        drop(res_tx);
        let mut results = Vec::with_capacity(pending.len());
        for _ in 0..pending.len() {
            let next = match budget.remaining() {
                None => res_rx.recv().ok(),
                Some(left) => res_rx.recv_timeout(left).ok(),
            };
            match next {
                Some(pair) => results.push(pair),
                None => break, // deadline: undelivered shards count as failed
            }
        }
        results
    }

    /// Exhaustive answer, fanned across shards under supervision: every
    /// shard attempt is unwind-guarded, waits are budget-bounded, and a
    /// failed shard gets exactly one retry after a jittered backoff.
    /// Survivor results merge into the exact top-k over their ranges; if
    /// any shard stayed down the answer carries a [`Degraded`]
    /// annotation. An exhausted budget is an error, not a late answer.
    fn answer_scored_within(
        &self,
        scorer: &Arc<dyn ObjectScorer>,
        query: &Query,
        budget: Budget,
    ) -> Result<Answer, ApiError> {
        if budget.expired() {
            return Err(budget.exceeded());
        }
        let mut pending: Vec<(usize, usize, usize)> = self
            .bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, w[0], w[1]))
            .filter(|&(_, lo, hi)| lo < hi)
            .collect();
        let mut merged: Vec<Candidate> = Vec::new();
        for attempt in 0..2 {
            if pending.is_empty() {
                break;
            }
            if attempt > 0 {
                if budget.expired() {
                    break;
                }
                faults::SHARD_RETRIES.fetch_add(pending.len() as u64, Ordering::Relaxed);
                std::thread::sleep(budget.clamp(Duration::from_millis(1) + faults::jitter(8)));
            }
            let wave = self.run_wave(scorer, query, &pending, budget);
            pending.retain(|&(shard, _, _)| {
                !wave.iter().any(|&(s, ref out)| s == shard && out.is_ok())
            });
            for (_, out) in wave {
                if let Ok(cands) = out {
                    merged.extend(cands);
                }
            }
        }
        if budget.expired() {
            return Err(budget.exceeded());
        }
        // Per-shard slices are each sorted, but the union is not; the
        // final order must match the unsharded single sort exactly
        // (restricted to the surviving ranges when degraded).
        rank_top_k(&mut merged, query.top_k);
        Ok(Answer {
            query: *query,
            coverage: Coverage::Exhaustive,
            ranked: merged,
            degraded: (!pending.is_empty()).then(|| Degraded {
                shards_failed: pending.iter().map(|&(shard, _, _)| shard).collect(),
                shards_total: self.num_shards(),
            }),
        })
    }

    /// Batch convenience with per-shard fan-out (routed mode groups
    /// queries by owning shard; scored mode answers sequentially, each
    /// answer already fanning across shards internally). Answers come
    /// back in query order, identical to [`KgReasoner::answer`] per
    /// query.
    pub fn answer_batch(&self, queries: &[Query]) -> Vec<Answer> {
        match &self.mode {
            Mode::Scored(_) => queries.iter().map(|q| self.answer(q)).collect(),
            Mode::Routed(shards) => {
                let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); shards.len()];
                for (i, q) in queries.iter().enumerate() {
                    by_shard[self.shard_of(q.source)].push(i);
                }
                let mut slots: Vec<Option<Answer>> = vec![None; queries.len()];
                std::thread::scope(|scope| {
                    let handles: Vec<_> = by_shard
                        .iter()
                        .zip(shards)
                        .filter(|(idx, _)| !idx.is_empty())
                        .map(|(idx, shard)| {
                            scope.spawn(move || {
                                idx.iter()
                                    .map(|&i| (i, shard.answer(&queries[i])))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    for h in handles {
                        for (i, a) in h.join().expect("shard answer thread panicked") {
                            slots[i] = Some(a);
                        }
                    }
                });
                slots
                    .into_iter()
                    .map(|a| a.expect("every slot filled"))
                    .collect()
            }
        }
    }
}

impl KgReasoner for ShardedReasoner {
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
        match &self.mode {
            Mode::Scored(scorer) => self
                .answer_scored_within(scorer, query, Budget::none())
                .expect("an unlimited budget cannot exceed its deadline"),
            Mode::Routed(shards) => shards[self.shard_of(query.source)].answer(query),
        }
    }

    fn answer_within(&self, query: &Query, budget: Budget) -> Result<Answer, ApiError> {
        match &self.mode {
            Mode::Scored(scorer) => self.answer_scored_within(scorer, query, budget),
            Mode::Routed(shards) => {
                shards[self.shard_of(query.source)].answer_within(query, budget)
            }
        }
    }

    fn explain(&self, query: &Query) -> Option<Vec<BeamPath>> {
        match &self.mode {
            Mode::Scored(_) => None,
            Mode::Routed(shards) => shards[self.shard_of(query.source)].explain(query),
        }
    }

    /// Routed mode: counters summed across shards that report any
    /// (capacity and entries add; a miss on one shard is a miss).
    fn cache_stats(&self) -> Option<CacheStats> {
        match &self.mode {
            Mode::Scored(_) => None,
            Mode::Routed(shards) => {
                let per_shard: Vec<CacheStats> =
                    shards.iter().filter_map(|s| s.cache_stats()).collect();
                if per_shard.is_empty() {
                    return None;
                }
                let mut total = CacheStats::default();
                for s in per_shard {
                    total.entries += s.entries;
                    total.capacity += s.capacity;
                    total.hits += s.hits;
                    total.misses += s.misses;
                }
                Some(total)
            }
        }
    }

    fn has_path_evidence(&self) -> bool {
        match &self.mode {
            Mode::Scored(_) => false,
            Mode::Routed(shards) => shards[0].has_path_evidence(),
        }
    }

    /// Routed mode: every replica caches independently, so a live-graph
    /// mutation must drop the touched entries on all of them.
    fn invalidate_entities(&self, touched: &[mmkgr_kg::EntityId]) -> usize {
        match &self.mode {
            Mode::Scored(_) => 0,
            Mode::Routed(shards) => shards.iter().map(|s| s.invalidate_entities(touched)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{PolicyReasoner, ScorerReasoner, ServeConfig};
    use super::*;
    use crate::config::MmkgrConfig;
    use crate::model::MmkgrModel;
    use mmkgr_datagen::{generate, GenConfig};
    use mmkgr_embed::TransE;

    /// Hold for the whole test: it serializes with the tests that
    /// inject shard faults, which would otherwise hit this one's shards.
    fn no_faults() -> faults::FaultGuard {
        faults::install(faults::FaultPlan::new())
    }

    fn shape() -> (usize, RelationSpace) {
        (23, RelationSpace::new(3))
    }

    fn transe(n: usize, rs: RelationSpace) -> Arc<TransE> {
        Arc::new(TransE::new(n, rs.total(), 8, 7))
    }

    #[test]
    fn uniform_bounds_cover_and_partition() {
        let b = uniform_bounds(23, 4);
        assert_eq!(b, vec![0, 5, 11, 17, 23]);
        assert_eq!(uniform_bounds(3, 4), vec![0, 0, 1, 2, 3]);
        assert_eq!(uniform_bounds(0, 2), vec![0, 0, 0]);
    }

    #[test]
    fn sharded_scorer_matches_unsharded_exactly() {
        let _faults = no_faults();
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        for shards in [1, 2, 4, 7] {
            let sharded =
                ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, shards).unwrap();
            assert_eq!(sharded.num_shards(), shards);
            for src in [0u32, 3, 22] {
                for top_k in [0usize, 1, 5, 100] {
                    let q = Query::new(EntityId(src), RelationId(1)).with_top_k(top_k);
                    let a = sharded.answer(&q);
                    let b = whole.answer(&q);
                    assert_eq!(a, b, "shards={shards} src={src} top_k={top_k}");
                    assert_eq!(a.coverage, Coverage::Exhaustive);
                }
            }
        }
    }

    #[test]
    fn sharded_scorer_breaks_ties_like_unsharded() {
        let _faults = no_faults();
        // All-equal scores: the merged order must still be ascending
        // entity id, same as one global sort.
        struct Flat;
        impl TripleScorer for Flat {
            fn score(&self, _: EntityId, _: RelationId, _: EntityId) -> f32 {
                1.0
            }
        }
        let rs = RelationSpace::new(2);
        let sharded = ShardedReasoner::from_scorer("Flat", Flat, 10, rs, 4).unwrap();
        let a = sharded.answer(&Query::new(EntityId(0), RelationId(0)).with_top_k(0));
        let ids: Vec<u32> = a.ranked.iter().map(|c| c.entity.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
    }

    fn policy_shards(
        replicas: usize,
    ) -> (Vec<Query>, Arc<PolicyReasoner<MmkgrModel>>, ShardedReasoner) {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        let graph = Arc::new(kg.graph.clone());
        let single = Arc::new(PolicyReasoner::new(
            "MMKGR",
            model,
            Arc::clone(&graph),
            ServeConfig::default(),
        ));
        // Replicas share the single reasoner: routing must be a pure
        // dispatch, so "shard i answered" is indistinguishable by value.
        let shards: Vec<Arc<dyn KgReasoner + Send + Sync>> = (0..replicas)
            .map(|_| Arc::clone(&single) as Arc<dyn KgReasoner + Send + Sync>)
            .collect();
        let sharded = ShardedReasoner::from_routed("MMKGR-x4", shards).unwrap();
        let queries: Vec<Query> = kg
            .split
            .test
            .iter()
            .take(8)
            .map(|t| Query::new(t.s, t.r).with_beam(8).with_steps(3))
            .collect();
        (queries, single, sharded)
    }

    #[test]
    fn routed_policy_matches_single_reasoner() {
        let _faults = no_faults();
        let (queries, single, sharded) = policy_shards(4);
        assert!(sharded.has_path_evidence());
        for q in &queries {
            assert_eq!(sharded.answer(q), single.answer(q));
            assert_eq!(sharded.explain(q), single.explain(q));
        }
        // Batch fan-out across shards preserves query order.
        let batched = sharded.answer_batch(&queries);
        let sequential: Vec<Answer> = queries.iter().map(|q| single.answer(q)).collect();
        assert_eq!(batched, sequential);
        assert!(sharded.answer_batch(&[]).is_empty());
    }

    #[test]
    fn every_entity_routes_to_a_valid_shard() {
        let (_, _, sharded) = policy_shards(4);
        let n = sharded.num_entities();
        for e in 0..n as u32 {
            let s = sharded.shard_of(EntityId(e));
            assert!(s < sharded.num_shards());
            assert!(sharded.bounds[s] <= e as usize && (e as usize) < sharded.bounds[s + 1]);
        }
    }

    /// Degraded-mode parity: with shard `dead` forced down, the answer
    /// must be *exactly* the merged top-k over the surviving ranges —
    /// computed here as an unsharded reference pass restricted to those
    /// ranges — plus the degradation annotation. Nothing else may leak
    /// from the dead shard's range.
    #[test]
    fn degraded_answer_is_exact_merge_of_survivors() {
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let shards = 4usize;
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, shards).unwrap();
        for dead in 0..shards {
            let _guard = faults::install(
                faults::FaultPlan::new()
                    .with_shard_panic(faults::ShardSel::One(dead), faults::ALWAYS),
            );
            for top_k in [0usize, 1, 5, 100] {
                let q = Query::new(EntityId(3), RelationId(1)).with_top_k(top_k);
                let got = sharded.answer(&q);
                // Reference: score each surviving range directly.
                let scorer_dyn: &dyn ObjectScorer = &*scorer;
                let mut expect: Vec<Candidate> = Vec::new();
                for (i, w) in sharded.bounds.windows(2).enumerate() {
                    if i != dead && w[0] < w[1] {
                        expect.extend(ShardedReasoner::score_shard(scorer_dyn, &q, w[0], w[1]));
                    }
                }
                rank_top_k(&mut expect, top_k);
                assert_eq!(got.ranked, expect, "dead={dead} top_k={top_k}");
                assert_eq!(
                    got.degraded,
                    Some(Degraded {
                        shards_failed: vec![dead],
                        shards_total: shards,
                    })
                );
            }
        }
    }

    #[test]
    fn transient_shard_panic_is_retried_to_a_full_answer() {
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, 3).unwrap();
        let q = Query::new(EntityId(7), RelationId(0)).with_top_k(5);
        let retries_before = faults::SHARD_RETRIES.load(Ordering::Relaxed);
        let got = {
            // Shard 1 panics exactly once: the retry must succeed and
            // the answer must be indistinguishable from a healthy run.
            let _guard = faults::install(
                faults::FaultPlan::new().with_shard_panic(faults::ShardSel::One(1), 1),
            );
            sharded.answer(&q)
        };
        assert_eq!(got, whole.answer(&q));
        assert!(got.degraded.is_none());
        assert!(faults::SHARD_RETRIES.load(Ordering::Relaxed) > retries_before);
    }

    #[test]
    fn injected_latency_past_the_deadline_is_a_typed_504() {
        let (n, rs) = shape();
        let sharded = ShardedReasoner::from_scorer("TransE", transe(n, rs), n, rs, 2).unwrap();
        let q = Query::new(EntityId(0), RelationId(1));
        let _guard = faults::install(
            faults::FaultPlan::new()
                .with_shard_latency(faults::ShardSel::All, Duration::from_millis(400)),
        );
        let started = std::time::Instant::now();
        let err = sharded
            .answer_within(&q, Budget::from_timeout_ms(50))
            .unwrap_err();
        assert!(matches!(err, ApiError::DeadlineExceeded { timeout_ms: 50 }));
        // The caller got its answer near the deadline, not after the
        // injected latency drained (generous bound for slow CI).
        assert!(started.elapsed() < Duration::from_millis(350));
    }

    #[test]
    fn faults_disabled_answers_are_byte_identical() {
        let _faults = no_faults();
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, 4).unwrap();
        let q = Query::new(EntityId(11), RelationId(2)).with_top_k(7);
        let a = sharded
            .answer_within(&q, Budget::from_timeout_ms(60_000))
            .unwrap();
        assert_eq!(a, whole.answer(&q));
        assert!(a.degraded.is_none());
    }

    #[test]
    fn constructors_reject_degenerate_shapes() {
        let (n, rs) = shape();
        assert_eq!(
            ShardedReasoner::from_scorer("x", transe(n, rs), n, rs, 0).unwrap_err(),
            ShardError::NoShards
        );
        assert_eq!(
            ShardedReasoner::from_routed("x", Vec::new()).unwrap_err(),
            ShardError::NoShards
        );
        let a = Arc::new(ScorerReasoner::new("a", transe(n, rs), n, rs));
        let b = Arc::new(ScorerReasoner::new("b", transe(9, rs), 9, rs));
        let err = ShardedReasoner::from_routed(
            "mixed",
            vec![
                a as Arc<dyn KgReasoner + Send + Sync>,
                b as Arc<dyn KgReasoner + Send + Sync>,
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ShardError::ShapeMismatch {
                shard: 1,
                expected_entities: n,
                got_entities: 9
            }
        );
    }
}
