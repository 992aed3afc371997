//! Entity-sharded serving for exhaustive scorers: one
//! [`ShardedReasoner`] splits a KGE scorer's object scoring across N
//! shards behind the same [`KgReasoner`] trait the registry and HTTP
//! front end already speak, so sharding is invisible above this module.
//!
//! Exhaustive object scoring is partitioned by contiguous entity range.
//! Shard `i` scores objects in `bounds[i]..bounds[i+1]` on its own
//! thread, ranks and truncates its slice locally, and the merger
//! re-sorts the per-shard top-k unions. This is exact: `score(s, r, o)`
//! does not depend on which shard evaluates it, and the global top-k is
//! always a subset of the union of per-shard top-ks, so the merged
//! ranking is bit-identical to an unsharded [`super::ScorerReasoner`]
//! pass (both use `sort_candidates`'s descending-score / ascending-id
//! order).
//!
//! Path reasoners are not sharded: beam search walks the whole graph
//! from the query's source, so it cannot be range-split, and a
//! [`super::PolicyReasoner`] is always served whole, with one frontier
//! cache.
//!
//! # Failure handling
//!
//! Fan-out runs on a persistent per-reasoner shard pool (spawned
//! once at construction, closing the old per-query `thread::scope`
//! spawn cost). Every shard task runs under an unwind guard, and waits
//! are bounded by the caller's [`Budget`]. A shard is never retried:
//! range scoring is a pure function of the weights, so a panic would
//! repeat. A failed shard is dropped from the merge at once — the
//! answer is the exact merged top-k of the survivors, annotated with
//! [`Degraded`] so clients can tell a partial ranking
//! from a full one. An exhausted budget wins over degradation: the
//! caller gets [`ApiError::DeadlineExceeded`], never a late answer.

use std::sync::{mpsc, Arc, Mutex};

use mmkgr_embed::TripleScorer;
use mmkgr_kg::{EntityId, RelationId, RelationSpace};

use super::{
    candidates_from_scores, faults, panic_message, rank_top_k, Answer, ApiError, Budget, Candidate,
    Coverage, Degraded, KgReasoner, Query,
};

/// Why a [`ShardedReasoner`] could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// Zero shards requested.
    NoShards,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "ShardedReasoner needs at least one shard"),
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

/// One unit of shard work: score a range, report back.
type ShardTask = Box<dyn FnOnce() + Send>;

/// A persistent pool of shard-task threads, spawned once per
/// [`ShardedReasoner`]. Every task wraps its scoring in
/// [`shard_attempt`]'s unwind guard, so a panicking scorer (or an
/// injected chaos fault) is reported through the task's own result
/// channel and never kills a pool thread.
struct ShardPool {
    tx: Option<mpsc::Sender<ShardTask>>,
    handles: Vec<std::thread::JoinHandle<()>>,
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
                    task();
                })
            })
            .collect();
        ShardPool {
            tx: Some(tx),
            handles,
        }
    }

    fn submit(&self, task: ShardTask) {
        self.tx
            .as_ref()
            .expect("shard pool open while alive")
            .send(task)
            .expect("shard pool workers alive");
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Score one shard under an unwind guard: chaos hooks first (so
/// injected latency/panics land inside the guard), then the real range
/// scoring. `Err` carries the panic message.
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

/// An exhaustive scorer split into N entity-range shards behind one
/// [`KgReasoner`] (see the module docs for the exactness argument).
pub struct ShardedReasoner {
    name: String,
    scorer: Arc<dyn ObjectScorer>,
    num_entities: usize,
    relations: RelationSpace,
    /// `bounds[i]..bounds[i+1]` is shard `i`'s entity range;
    /// `bounds.len() == shards + 1`, `bounds[0] == 0`, last == entities.
    bounds: Vec<usize>,
    /// Persistent fan-out threads (`None` for a single shard, which
    /// scores on the caller thread).
    pool: Option<ShardPool>,
}

impl std::fmt::Debug for ShardedReasoner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReasoner")
            .field("name", &self.name)
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
            scorer: Arc::new(scorer),
            num_entities,
            relations,
            bounds: uniform_bounds(num_entities, shards),
            pool: (shards > 1).then(|| ShardPool::new(shards.min(16))),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
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

    /// Score every shard — concurrently on the shard pool when there is
    /// one, inline otherwise — collecting each shard's result. Waits are
    /// bounded by the remaining `budget`; a shard that produced nothing
    /// before the deadline simply has no entry in the returned list.
    fn fan_out(
        &self,
        query: &Query,
        shards: &[(usize, usize, usize)],
        budget: Budget,
    ) -> Vec<(usize, Result<Vec<Candidate>, String>)> {
        let Some(pool) = &self.pool else {
            return shards
                .iter()
                .map(|&(shard, lo, hi)| (shard, shard_attempt(&*self.scorer, query, shard, lo, hi)))
                .collect();
        };
        let (res_tx, res_rx) = mpsc::channel();
        for &(shard, lo, hi) in shards {
            let scorer = Arc::clone(&self.scorer);
            let query = *query;
            let tx = res_tx.clone();
            pool.submit(Box::new(move || {
                // The receiver may be gone (deadline hit): fine.
                let _ = tx.send((shard, shard_attempt(&*scorer, &query, shard, lo, hi)));
            }));
        }
        drop(res_tx);
        let mut results = Vec::with_capacity(shards.len());
        for _ in 0..shards.len() {
            match budget.recv(&res_rx) {
                Some(pair) => results.push(pair),
                None => break, // deadline: the caller answers 504
            }
        }
        results
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
        self.answer_within(query, Budget::none())
            .expect("an unlimited budget cannot exceed its deadline")
    }

    /// Exhaustive answer, fanned across shards: every shard is
    /// unwind-guarded and waits are budget-bounded. Survivor results
    /// merge into the exact top-k over their ranges; if a shard failed
    /// the answer carries a [`Degraded`] annotation. An exhausted budget
    /// is an error, not a late answer.
    fn answer_within(&self, query: &Query, budget: Budget) -> Result<Answer, ApiError> {
        if budget.expired() {
            return Err(budget.exceeded());
        }
        let shards: Vec<(usize, usize, usize)> = self
            .bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, w[0], w[1]))
            .filter(|&(_, lo, hi)| lo < hi)
            .collect();
        // Every shard counts as failed until its result arrives.
        let mut failed: Vec<usize> = shards.iter().map(|&(shard, _, _)| shard).collect();
        let mut merged: Vec<Candidate> = Vec::new();
        for (shard, out) in self.fan_out(query, &shards, budget) {
            if let Ok(cands) = out {
                failed.retain(|&s| s != shard);
                merged.extend(cands);
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
            degraded: (!failed.is_empty()).then(|| Degraded {
                shards_failed: failed,
                shards_total: self.num_shards(),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScorerReasoner;
    use super::*;
    use mmkgr_embed::TransE;
    use std::time::Duration;

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

    /// Reference for a degraded answer: an unsharded pass over every
    /// range but shard `dead`'s, scored directly.
    fn survivors(
        sharded: &ShardedReasoner,
        scorer: &TransE,
        q: &Query,
        dead: usize,
    ) -> Vec<Candidate> {
        let mut expect: Vec<Candidate> = Vec::new();
        for (i, w) in sharded.bounds.windows(2).enumerate() {
            if i != dead && w[0] < w[1] {
                expect.extend(ShardedReasoner::score_shard(scorer, q, w[0], w[1]));
            }
        }
        rank_top_k(&mut expect, q.top_k);
        expect
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
                assert_eq!(
                    got.ranked,
                    survivors(&sharded, &scorer, &q, dead),
                    "dead={dead} top_k={top_k}"
                );
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
    fn a_failed_shard_is_dropped_at_once_and_the_next_answer_is_whole() {
        let (n, rs) = shape();
        let scorer = transe(n, rs);
        let whole = ScorerReasoner::new("TransE", Arc::clone(&scorer), n, rs);
        let sharded =
            ShardedReasoner::from_scorer("TransE", Arc::clone(&scorer), n, rs, 3).unwrap();
        let q = Query::new(EntityId(7), RelationId(0)).with_top_k(5);
        // Shard 1 panics exactly once: that answer is degraded with no
        // retry, and the one after it is whole.
        let _guard =
            faults::install(faults::FaultPlan::new().with_shard_panic(faults::ShardSel::One(1), 1));
        let first = sharded.answer(&q);
        assert_eq!(first.ranked, survivors(&sharded, &scorer, &q, 1));
        assert_eq!(
            first.degraded,
            Some(Degraded {
                shards_failed: vec![1],
                shards_total: 3,
            })
        );
        assert_eq!(sharded.answer(&q), whole.answer(&q));
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
    }
}
