//! CSR-backed knowledge-graph adjacency, with an epoch-versioned
//! copy-on-write delta overlay for live mutation.
//!
//! The graph stores each training triple twice: once as `(s, r, o)` and once
//! as `(o, inverse(r), s)`, so RL walkers can traverse edges both ways — the
//! standard MINERVA-style construction the paper builds on.
//!
//! # Live mutation
//!
//! The base [`CsrStore`] stays immutable forever. [`KnowledgeGraph::apply_ops`]
//! returns a *new* graph value sharing the base store (`Arc`) plus a small
//! `GraphDelta`: fully rebuilt `(relation, target)`-sorted edge buckets for
//! the touched entities only, and added/deleted base-triple sets. Every
//! accessor consults the delta bucket first, so a mutated graph presents
//! exactly the same `&[Edge]` slice API — beam engines, subgraph extraction,
//! and exhaustive scorers are oblivious to whether they read base or overlay.
//!
//! Each applied batch bumps the graph's **epoch**. Readers holding an
//! `Arc<KnowledgeGraph>` pin their epoch: a concurrent mutation publishes a
//! new value and can never change what an in-flight query observes.
//! [`KnowledgeGraph::fold`] compacts the overlay back into a fresh contiguous
//! CSR (same epoch — the logical content is unchanged), which is what the
//! serving layer snapshots and truncates the WAL against.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::{EntityId, RelationId, RelationSpace};
use crate::store::wal::TripleOp;
use crate::store::CsrStore;
use crate::triple::{Triple, TripleSet};

/// One outgoing edge `(relation, target)`.
///
/// `repr(C)`: two `u32`s, no padding — edge arrays are stored as raw byte
/// sections in `.mmkg` snapshots and viewed back zero-copy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[repr(C)]
pub struct Edge {
    pub relation: RelationId,
    pub target: EntityId,
}

/// Why a mutation batch was rejected (the whole batch is atomic: one bad
/// op rejects everything, nothing is applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    EntityOutOfRange {
        entity: EntityId,
        num_entities: usize,
    },
    /// Mutations address base-orientation triples only; inverse and NO_OP
    /// relation ids are derived storage, not facts.
    NotBaseRelation {
        relation: RelationId,
        num_base: usize,
    },
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::EntityOutOfRange {
                entity,
                num_entities,
            } => write!(
                f,
                "entity {entity} out of range (graph has {num_entities} entities)"
            ),
            MutationError::NotBaseRelation { relation, num_base } => write!(
                f,
                "relation {relation} is not a base relation (< {num_base}); \
                 mutations address base-orientation triples only"
            ),
        }
    }
}

impl std::error::Error for MutationError {}

/// What one applied batch actually changed (no-op inserts of existing
/// triples and deletes of absent triples are skipped, not errors).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Triples newly present after the batch.
    pub inserted: usize,
    /// Triples newly absent after the batch.
    pub deleted: usize,
    /// Entities whose edge buckets changed (sorted, deduped) — the key
    /// for targeted cache invalidation.
    pub touched: Vec<EntityId>,
}

/// The copy-on-write overlay: rebuilt buckets for touched entities plus
/// the logical added/deleted sets relative to the base store.
#[derive(Clone, Debug, Default)]
struct GraphDelta {
    added: BTreeSet<Triple>,
    deleted: BTreeSet<Triple>,
    /// Full replacement buckets, sorted by `(relation, target)` exactly
    /// like base buckets, for every entity any op touched.
    buckets: HashMap<u32, Vec<Edge>>,
}

impl GraphDelta {
    fn bucket(&self, e: EntityId) -> Option<&[Edge]> {
        self.buckets.get(&e.0).map(|v| v.as_slice())
    }
}

/// Immutable CSR adjacency over a set of triples (plus inverses).
///
/// Backed by a shared [`CsrStore`] (see [`crate::store`]), whose flat arrays
/// may be heap-owned or zero-copy views into a memory-mapped snapshot, and an
/// optional `GraphDelta` overlay (see the module docs). Cloning is cheap —
/// two `Arc` bumps — which is what makes epoch publication race-free.
#[derive(Clone, Debug)]
pub struct KnowledgeGraph {
    store: Arc<CsrStore>,
    delta: Option<Arc<GraphDelta>>,
    epoch: u64,
}

// Serializes exactly as its backing store (same field set the pre-store
// struct had), so the wire format is unchanged by the storage refactor.
// A graph carrying a delta folds first: the serialized form is always the
// full logical graph.
impl Serialize for KnowledgeGraph {
    fn serialize_value(&self) -> serde::Value {
        if self.delta.is_some() {
            self.fold().store.serialize_value()
        } else {
            self.store.serialize_value()
        }
    }
}

impl Deserialize for KnowledgeGraph {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        CsrStore::deserialize_value(v).map(KnowledgeGraph::from_store)
    }
}

impl KnowledgeGraph {
    /// Build from base triples. Inverse edges are added automatically.
    ///
    /// `max_out_degree` (if `Some`) truncates each entity's edge list to
    /// bound the RL action space, keeping the first edges in insertion
    /// order after sorting by `(relation, target)` — mirrors the action-
    /// space truncation used by MINERVA-family implementations.
    pub fn from_triples(
        num_entities: usize,
        num_base_relations: usize,
        triples: Vec<Triple>,
        max_out_degree: Option<usize>,
    ) -> Self {
        Self::from_store(CsrStore::from_triples(
            num_entities,
            num_base_relations,
            triples,
            max_out_degree,
        ))
    }

    /// Wrap an already-built (e.g. snapshot-loaded) CSR store.
    pub fn from_store(store: CsrStore) -> Self {
        KnowledgeGraph {
            store: Arc::new(store),
            delta: None,
            epoch: 0,
        }
    }

    /// The backing CSR store (flat arrays; snapshot writer input).
    ///
    /// Base arrays only — a graph carrying a delta overlay has edges the
    /// store does not know about. Snapshot writers call [`Self::fold`]
    /// first; read-only consumers that need the live view go through the
    /// graph's own accessors.
    #[inline]
    pub fn store(&self) -> &CsrStore {
        &self.store
    }

    /// Monotone version counter: 0 at construction, +1 per applied
    /// mutation batch. Readers pinning an `Arc<KnowledgeGraph>` pin this.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Is a delta overlay pending (i.e. would [`Self::fold`] do work)?
    #[inline]
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Size of the pending overlay in logical triples (added + deleted) —
    /// the serving layer's compaction trigger.
    pub fn delta_len(&self) -> usize {
        self.delta
            .as_ref()
            .map(|d| d.added.len() + d.deleted.len())
            .unwrap_or(0)
    }

    #[inline]
    pub fn num_entities(&self) -> usize {
        self.store.num_entities()
    }

    /// Relation id layout (base / inverse / NO_OP).
    #[inline]
    pub fn relations(&self) -> RelationSpace {
        self.store.relations()
    }

    /// All outgoing edges of `e` (inverse edges included), sorted.
    #[inline]
    pub fn neighbors(&self, e: EntityId) -> &[Edge] {
        if let Some(d) = &self.delta {
            if let Some(bucket) = d.bucket(e) {
                return bucket;
            }
        }
        self.store.neighbors(e)
    }

    /// Only the base-relation edges of `e` (a prefix of its bucket).
    #[inline]
    pub fn forward_neighbors(&self, e: EntityId) -> &[Edge] {
        let bucket = self.neighbors(e);
        let split = bucket.partition_point(|edge| self.relations().is_base(edge.relation));
        &bucket[..split]
    }

    /// Only the synthetic inverse edges of `e` (the bucket's suffix).
    #[inline]
    pub fn inverse_neighbors(&self, e: EntityId) -> &[Edge] {
        let bucket = self.neighbors(e);
        let split = bucket.partition_point(|edge| self.relations().is_base(edge.relation));
        &bucket[split..]
    }

    #[inline]
    pub fn out_degree(&self, e: EntityId) -> usize {
        self.neighbors(e).len()
    }

    /// Total directed edges (2× the base triples, before truncation),
    /// adjusted for the delta overlay.
    pub fn num_edges(&self) -> usize {
        let base = self.store.num_edges() as i64;
        let net = self
            .delta
            .as_ref()
            .map(|d| 2 * (d.added.len() as i64 - d.deleted.len() as i64))
            .unwrap_or(0);
        (base + net).max(0) as usize
    }

    /// The base triples the graph was built from (snapshot-era facts; does
    /// **not** reflect the delta overlay — see [`Self::logical_triples`]).
    pub fn triples(&self) -> &[Triple] {
        self.store.triples()
    }

    /// The full logical triple set: base triples minus deletions plus
    /// additions, sorted and deduped. This is what compaction folds and
    /// what a fresh-built equivalent graph would be constructed from.
    pub fn logical_triples(&self) -> Vec<Triple> {
        match &self.delta {
            None => self.store.triples().to_vec(),
            Some(d) => {
                let mut out: Vec<Triple> = self
                    .store
                    .triples()
                    .iter()
                    .copied()
                    .filter(|t| !d.deleted.contains(t))
                    .collect();
                out.extend(d.added.iter().copied());
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// Membership set over the logical base triples (delta-aware).
    pub fn triple_set(&self) -> TripleSet {
        match &self.delta {
            None => TripleSet::from_triples(self.store.triples()),
            Some(_) => TripleSet::from_triples(&self.logical_triples()),
        }
    }

    /// Does the edge `(s, r, o)` exist (r may be base or inverse)?
    pub fn has_edge(&self, s: EntityId, r: RelationId, o: EntityId) -> bool {
        self.neighbors(s)
            .binary_search_by_key(&(r, o), |e| (e.relation, e.target))
            .is_ok()
    }

    /// Targets reachable from `s` via relation `r` (base or inverse).
    pub fn targets(&self, s: EntityId, r: RelationId) -> impl Iterator<Item = EntityId> + '_ {
        let bucket = self.neighbors(s);
        let start = bucket.partition_point(|e| e.relation < r);
        bucket[start..]
            .iter()
            .take_while(move |e| e.relation == r)
            .map(|e| e.target)
    }

    /// Mean out-degree — a sparsity diagnostic used by the harness.
    pub fn mean_out_degree(&self) -> f64 {
        if self.num_entities() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_entities() as f64
        }
    }

    /// Largest action space any walker will see.
    pub fn max_out_degree(&self) -> usize {
        let delta_max = match &self.delta {
            Some(d) => d.buckets.values().map(|b| b.len()).max().unwrap_or(0),
            None => 0,
        };
        let base_max = self
            .store
            .offsets_slice()
            .windows(2)
            .enumerate()
            .filter(|(e, _)| {
                self.delta
                    .as_ref()
                    .map(|d| !d.buckets.contains_key(&(*e as u32)))
                    .unwrap_or(true)
            })
            .map(|(_, w)| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);
        base_max.max(delta_max)
    }

    /// Rebuild the full sorted edge bucket of `e` under the given overlay
    /// sets. Base edges survive unless their base-orientation triple is
    /// deleted; added triples contribute a forward and/or inverse edge.
    fn rebuild_bucket(
        &self,
        e: EntityId,
        added: &BTreeSet<Triple>,
        deleted: &BTreeSet<Triple>,
    ) -> Vec<Edge> {
        let rs = self.relations();
        let mut edges: Vec<Edge> = self
            .store
            .neighbors(e)
            .iter()
            .copied()
            .filter(|edge| {
                let t = if rs.is_base(edge.relation) {
                    Triple {
                        s: e,
                        r: edge.relation,
                        o: edge.target,
                    }
                } else if rs.is_inverse(edge.relation) {
                    Triple {
                        s: edge.target,
                        r: rs.inverse(edge.relation),
                        o: e,
                    }
                } else {
                    return true; // NO_OP edges are never mutated
                };
                !deleted.contains(&t)
            })
            .collect();
        for &t in added {
            if t.s == e {
                edges.push(Edge {
                    relation: t.r,
                    target: t.o,
                });
            }
            if t.o == e {
                edges.push(Edge {
                    relation: rs.inverse(t.r),
                    target: t.s,
                });
            }
        }
        edges.sort_unstable_by_key(|edge| (edge.relation, edge.target));
        edges.dedup();
        edges
    }

    /// Apply one atomic batch of mutations, returning the successor graph
    /// (epoch + 1) and what actually changed. `self` is untouched — this
    /// is the copy-on-write publication point. Inserting a triple that
    /// already exists (or deleting one that does not) is a no-op, not an
    /// error; out-of-range ids and non-base relations reject the whole
    /// batch with nothing applied.
    pub fn apply_ops(
        &self,
        ops: &[TripleOp],
    ) -> Result<(KnowledgeGraph, MutationStats), MutationError> {
        let rs = self.relations();
        let n = self.num_entities();
        for op in ops {
            let t = op.triple();
            for e in [t.s, t.o] {
                if e.index() >= n {
                    return Err(MutationError::EntityOutOfRange {
                        entity: e,
                        num_entities: n,
                    });
                }
            }
            if !rs.is_base(t.r) {
                return Err(MutationError::NotBaseRelation {
                    relation: t.r,
                    num_base: rs.base(),
                });
            }
        }

        let (mut added, mut deleted) = match &self.delta {
            Some(d) => (d.added.clone(), d.deleted.clone()),
            None => (BTreeSet::new(), BTreeSet::new()),
        };
        let mut stats = MutationStats::default();
        let mut touched: BTreeSet<EntityId> = BTreeSet::new();
        for op in ops {
            let t = op.triple();
            let present =
                added.contains(&t) || (self.store.has_edge(t.s, t.r, t.o) && !deleted.contains(&t));
            match op {
                TripleOp::Insert(_) if !present => {
                    if !deleted.remove(&t) {
                        added.insert(t);
                    }
                    stats.inserted += 1;
                    touched.insert(t.s);
                    touched.insert(t.o);
                }
                TripleOp::Delete(_) if present => {
                    if !added.remove(&t) {
                        deleted.insert(t);
                    }
                    stats.deleted += 1;
                    touched.insert(t.s);
                    touched.insert(t.o);
                }
                _ => {} // idempotent no-op
            }
        }

        let mut buckets = match &self.delta {
            Some(d) => d.buckets.clone(),
            None => HashMap::new(),
        };
        for &e in &touched {
            buckets.insert(e.0, self.rebuild_bucket(e, &added, &deleted));
        }
        stats.touched = touched.into_iter().collect();

        let delta = (!added.is_empty() || !deleted.is_empty() || !buckets.is_empty())
            .then(|| {
                Arc::new(GraphDelta {
                    added,
                    deleted,
                    buckets,
                })
            })
            .or_else(|| self.delta.clone());
        Ok((
            KnowledgeGraph {
                store: Arc::clone(&self.store),
                delta,
                epoch: self.epoch + 1,
            },
            stats,
        ))
    }

    /// Compact the delta overlay into a fresh contiguous CSR store (the
    /// per-entity edge view is preserved exactly — buckets are copied, not
    /// rebuilt, so action-space truncation decisions survive). The epoch
    /// is unchanged: the logical content is identical. A delta-free graph
    /// folds to a cheap clone.
    pub fn fold(&self) -> KnowledgeGraph {
        let delta = match &self.delta {
            None => return self.clone(),
            Some(d) => d,
        };
        let n = self.num_entities();
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut edges: Vec<Edge> = Vec::with_capacity(self.num_edges());
        offsets.push(0);
        for e in 0..n {
            let id = EntityId(e as u32);
            let bucket = delta.bucket(id).unwrap_or_else(|| self.store.neighbors(id));
            edges.extend_from_slice(bucket);
            offsets.push(edges.len() as u32);
        }
        let triples = self.logical_triples();
        let store = CsrStore::from_parts(
            n,
            self.relations(),
            offsets.into(),
            edges.into(),
            triples.into(),
        )
        .expect("folded CSR preserves every structural invariant");
        KnowledgeGraph {
            store: Arc::new(store),
            delta: None,
            epoch: self.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        // 0 -r0-> 1, 1 -r1-> 2, 0 -r1-> 2
        let triples = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 1, 2),
            Triple::new(0, 1, 2),
        ];
        KnowledgeGraph::from_triples(3, 2, triples, None)
    }

    #[test]
    fn edge_counts_include_inverses() {
        let g = toy();
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_degree(EntityId(0)), 2);
        assert_eq!(g.out_degree(EntityId(1)), 2); // inverse of r0 + forward r1
        assert_eq!(g.out_degree(EntityId(2)), 2); // two inverse edges
    }

    #[test]
    fn neighbors_sorted_and_correct() {
        let g = toy();
        let n0 = g.neighbors(EntityId(0));
        assert_eq!(
            n0[0],
            Edge {
                relation: RelationId(0),
                target: EntityId(1)
            }
        );
        assert_eq!(
            n0[1],
            Edge {
                relation: RelationId(1),
                target: EntityId(2)
            }
        );
    }

    #[test]
    fn inverse_edges_use_inverse_relation_ids() {
        let g = toy();
        let rs = g.relations();
        // entity 1 has inverse edge back to 0 via inverse(r0) = r0 + 2 = r2
        assert!(g.has_edge(EntityId(1), rs.inverse(RelationId(0)), EntityId(0)));
    }

    #[test]
    fn targets_iterator_filters_by_relation() {
        let g = toy();
        let t: Vec<_> = g.targets(EntityId(0), RelationId(1)).collect();
        assert_eq!(t, vec![EntityId(2)]);
        let none: Vec<_> = g.targets(EntityId(2), RelationId(0)).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn truncation_caps_action_space() {
        let triples: Vec<Triple> = (1..=10).map(|o| Triple::new(0, 0, o)).collect();
        let g = KnowledgeGraph::from_triples(11, 1, triples, Some(4));
        assert_eq!(g.out_degree(EntityId(0)), 4);
        assert_eq!(g.max_out_degree(), 4);
    }

    #[test]
    fn has_edge_negative() {
        let g = toy();
        assert!(!g.has_edge(EntityId(0), RelationId(0), EntityId(2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_entities() {
        let _ = KnowledgeGraph::from_triples(2, 1, vec![Triple::new(0, 0, 5)], None);
    }

    #[test]
    #[should_panic(expected = "base relation")]
    fn rejects_inverse_relation_in_input() {
        let _ = KnowledgeGraph::from_triples(3, 1, vec![Triple::new(0, 1, 2)], None);
    }

    #[test]
    fn empty_entity_has_no_neighbors() {
        let g = KnowledgeGraph::from_triples(4, 1, vec![Triple::new(0, 0, 1)], None);
        assert_eq!(g.out_degree(EntityId(3)), 0);
        assert!(g.neighbors(EntityId(3)).is_empty());
    }

    #[test]
    fn mean_degree() {
        let g = toy();
        assert!((g.mean_out_degree() - 2.0).abs() < 1e-9);
    }

    // ------------------------------------------------ delta overlay tests

    #[test]
    fn insert_is_visible_in_both_directions() {
        let g = toy();
        let (g2, stats) = g
            .apply_ops(&[TripleOp::Insert(Triple::new(2, 0, 0))])
            .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 0);
        assert_eq!(stats.touched, vec![EntityId(0), EntityId(2)]);
        assert_eq!(g2.epoch(), 1);
        assert!(g2.has_edge(EntityId(2), RelationId(0), EntityId(0)));
        let rs = g2.relations();
        assert!(g2.has_edge(EntityId(0), rs.inverse(RelationId(0)), EntityId(2)));
        assert_eq!(g2.num_edges(), 8);
        // The original graph is untouched: epoch pinning works.
        assert!(!g.has_edge(EntityId(2), RelationId(0), EntityId(0)));
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn delete_removes_both_directions() {
        let g = toy();
        let (g2, stats) = g
            .apply_ops(&[TripleOp::Delete(Triple::new(0, 0, 1))])
            .unwrap();
        assert_eq!(stats.deleted, 1);
        assert!(!g2.has_edge(EntityId(0), RelationId(0), EntityId(1)));
        let rs = g2.relations();
        assert!(!g2.has_edge(EntityId(1), rs.inverse(RelationId(0)), EntityId(0)));
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(g2.out_degree(EntityId(0)), 1);
        // Untouched entity buckets still come from the base store.
        assert_eq!(g2.out_degree(EntityId(2)), 2);
    }

    #[test]
    fn mutations_are_idempotent() {
        let g = toy();
        let (g2, stats) = g
            .apply_ops(&[
                TripleOp::Insert(Triple::new(0, 0, 1)), // already present
                TripleOp::Delete(Triple::new(2, 1, 0)), // never existed
            ])
            .unwrap();
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.deleted, 0);
        assert!(stats.touched.is_empty());
        assert_eq!(g2.epoch(), 1); // batch still committed
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn insert_then_delete_round_trips_to_base() {
        let g = toy();
        let t = Triple::new(2, 0, 0);
        let (g2, _) = g.apply_ops(&[TripleOp::Insert(t)]).unwrap();
        let (g3, _) = g2.apply_ops(&[TripleOp::Delete(t)]).unwrap();
        assert!(!g3.has_edge(t.s, t.r, t.o));
        assert_eq!(g3.num_edges(), g.num_edges());
        assert_eq!(g3.logical_triples(), {
            let mut v = g.triples().to_vec();
            v.sort_unstable();
            v
        });
        // Delete of a base triple then re-insert also round-trips.
        let base = Triple::new(0, 0, 1);
        let (g4, _) = g.apply_ops(&[TripleOp::Delete(base)]).unwrap();
        let (g5, _) = g4.apply_ops(&[TripleOp::Insert(base)]).unwrap();
        assert!(g5.has_edge(base.s, base.r, base.o));
        assert_eq!(g5.num_edges(), g.num_edges());
    }

    #[test]
    fn invalid_ops_reject_the_whole_batch() {
        let g = toy();
        let err = g
            .apply_ops(&[
                TripleOp::Insert(Triple::new(0, 0, 2)),
                TripleOp::Insert(Triple::new(0, 0, 99)),
            ])
            .unwrap_err();
        assert!(matches!(err, MutationError::EntityOutOfRange { .. }));
        // Inverse relation ids are rejected too.
        let rs = g.relations();
        let err = g
            .apply_ops(&[TripleOp::Insert(Triple {
                s: EntityId(0),
                r: rs.inverse(RelationId(0)),
                o: EntityId(1),
            })])
            .unwrap_err();
        assert!(matches!(err, MutationError::NotBaseRelation { .. }));
    }

    #[test]
    fn fold_preserves_the_logical_view_exactly() {
        let g = toy();
        let (g2, _) = g
            .apply_ops(&[
                TripleOp::Insert(Triple::new(2, 0, 0)),
                TripleOp::Delete(Triple::new(0, 1, 2)),
            ])
            .unwrap();
        let folded = g2.fold();
        assert!(!folded.has_delta());
        assert_eq!(folded.epoch(), g2.epoch());
        assert_eq!(folded.num_edges(), g2.num_edges());
        for e in 0..3u32 {
            assert_eq!(
                folded.neighbors(EntityId(e)),
                g2.neighbors(EntityId(e)),
                "bucket of entity {e} must survive compaction"
            );
        }
        assert_eq!(folded.logical_triples(), g2.logical_triples());
        // Folded triples become the new base.
        let mut expect = g2.logical_triples();
        expect.sort_unstable();
        assert_eq!(folded.triples(), &expect[..]);
    }

    #[test]
    fn fold_preserves_truncated_action_spaces() {
        // Build with truncation, mutate an unrelated entity, fold: the
        // truncated bucket must not regain its dropped edges.
        let triples: Vec<Triple> = (1..=10).map(|o| Triple::new(0, 0, o)).collect();
        let g = KnowledgeGraph::from_triples(12, 1, triples, Some(4));
        assert_eq!(g.out_degree(EntityId(0)), 4);
        let (g2, _) = g
            .apply_ops(&[TripleOp::Insert(Triple::new(11, 0, 10))])
            .unwrap();
        let folded = g2.fold();
        assert_eq!(folded.out_degree(EntityId(0)), 4);
        assert!(folded.has_edge(EntityId(11), RelationId(0), EntityId(10)));
    }

    #[test]
    fn mutated_graph_matches_fresh_build_view() {
        // The delta view must agree edge-for-edge with a graph built from
        // scratch over the mutated triple set (no truncation in play).
        let g = toy();
        let (g2, _) = g
            .apply_ops(&[
                TripleOp::Insert(Triple::new(2, 0, 0)),
                TripleOp::Insert(Triple::new(1, 0, 2)),
                TripleOp::Delete(Triple::new(0, 0, 1)),
            ])
            .unwrap();
        let fresh = KnowledgeGraph::from_triples(3, 2, g2.logical_triples(), None);
        for e in 0..3u32 {
            assert_eq!(g2.neighbors(EntityId(e)), fresh.neighbors(EntityId(e)));
        }
        assert_eq!(g2.num_edges(), fresh.num_edges());
        let set = g2.triple_set();
        assert!(set.contains(EntityId(2), RelationId(0), EntityId(0)));
        assert!(!set.contains(EntityId(0), RelationId(0), EntityId(1)));
    }

    #[test]
    fn serialization_folds_the_delta() {
        let g = toy();
        let (g2, _) = g
            .apply_ops(&[TripleOp::Insert(Triple::new(2, 0, 0))])
            .unwrap();
        let json = serde_json::to_string(&g2).unwrap();
        let back: KnowledgeGraph = serde_json::from_str(&json).unwrap();
        assert!(back.has_edge(EntityId(2), RelationId(0), EntityId(0)));
        assert_eq!(back.num_edges(), g2.num_edges());
    }
}
