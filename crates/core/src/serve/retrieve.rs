//! KG-RAG retrieval: k-hop multimodal subgraphs plus diversity-ranked
//! reasoning-path contexts (`POST /v1/retrieve`).
//!
//! A retrieval-augmented generator grounds its output in two artifacts
//! this engine can produce cheaply: the bounded k-hop neighborhood of
//! the query's seed entities (see [`mmkgr_kg::subgraph`]) and a handful
//! of multi-hop reasoning paths connecting that neighborhood. The
//! [`Retriever`] assembles both:
//!
//! - **Subgraph** — deterministic bounded expansion over the shared CSR
//!   store, with modality-presence flags per entity.
//! - **Path contexts** — when the request names a relation and the model
//!   is a path reasoner, the beam frontier paths of
//!   [`KgReasoner::explain`] (one query per seed, unioned). Otherwise —
//!   KGE scorers have no beam, and seed-only requests have no query
//!   relation — a topology fallback derives BFS-tree paths from the
//!   nearest seed to each retrieved entity, scored by `-hops`. Either
//!   way every retrieval carries ≥1 path context when the subgraph has
//!   any non-seed entity.
//! - **Diversity rerank** — greedy MMR: each round selects the candidate
//!   maximizing `score − diversity · max_overlap(selected)`, where
//!   overlap is the Jaccard similarity of the paths' entity+relation
//!   item sets. At `diversity = 0` this is plain score order; higher
//!   weights push the selection toward distinct graph regions
//!   (TMR-style topology-aware reranking).
//!
//! Few-shot awareness: when relation training frequencies are injected
//! (the eval layer computes them via its `fewshot` machinery), responses
//! annotate the queried relation's frequency and whether it falls under
//! the few-shot threshold, so RAG callers can weigh sparse-relation
//! contexts accordingly.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use mmkgr_kg::subgraph::{extract, ModalPresence, Subgraph, SubgraphConfig};
use mmkgr_kg::{EntityId, GraphHandle, KnowledgeGraph, RelationId};

use super::{faults, KgReasoner, Query};

/// Relations with at most this many training triples count as few-shot
/// (the same `≤10` cutoff `mmkgr stats` reports).
pub const FEW_SHOT_THRESHOLD: usize = 10;

/// A resolved retrieval request (dense ids; the wire layer resolves
/// names and validates parameters before building one).
#[derive(Clone, Debug)]
pub struct RetrieveSpec {
    pub seeds: Vec<EntityId>,
    /// Query relation for beam-path contexts (None = subgraph-only
    /// request; paths fall back to topology).
    pub relation: Option<RelationId>,
    pub hops: usize,
    /// Cap on subgraph entities (0 = unlimited).
    pub max_entities: usize,
    /// Cap on selected path contexts (0 = unlimited).
    pub max_paths: usize,
    /// MMR diversity weight in `[0, 1]`.
    pub diversity: f32,
}

/// One reasoning-path context: a walk from `source` to `entity`.
///
/// `entities` lists the known node sequence (always `source` first and
/// `entity` last; topology paths include intermediates, beam paths only
/// the endpoints — the beam arena stores relation links, not node
/// sequences) — it feeds the overlap measure of the MMR reranker.
#[derive(Clone, Debug, PartialEq)]
pub struct ContextPath {
    pub source: EntityId,
    pub entity: EntityId,
    pub score: f32,
    pub hops: usize,
    pub relations: Vec<RelationId>,
    pub entities: Vec<EntityId>,
}

/// Few-shot annotation for the queried relation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FewShotInfo {
    pub relation: RelationId,
    /// Training triples of the relation's base orientation.
    pub train_frequency: usize,
    /// `train_frequency <= FEW_SHOT_THRESHOLD`.
    pub few_shot: bool,
}

/// The typed retrieval result (the wire twin is `RetrieveResponse`).
#[derive(Clone, Debug)]
pub struct Retrieval {
    pub subgraph: Subgraph,
    /// Selected path contexts, in MMR selection order.
    pub paths: Vec<ContextPath>,
    /// Candidate paths before the diversity rerank (observability).
    pub paths_considered: usize,
    pub few_shot: Option<FewShotInfo>,
}

/// Shared retrieval state for one served dataset: the graph, optional
/// modality presence (absent on snapshot boots, which carry no
/// [`mmkgr_kg::ModalBank`]), and optional relation training frequencies
/// for few-shot annotation.
pub struct Retriever {
    graph: GraphHandle,
    modal: Option<ModalPresence>,
    relation_freqs: Option<HashMap<RelationId, usize>>,
}

impl Retriever {
    pub fn new(graph: Arc<KnowledgeGraph>) -> Self {
        Self::new_live(GraphHandle::new(graph))
    }

    /// Build over a live [`GraphHandle`]: each retrieval pins the epoch
    /// current at its start, so a published mutation is visible to the
    /// next retrieval but never to one already in flight.
    pub fn new_live(graph: GraphHandle) -> Self {
        Retriever {
            graph,
            modal: None,
            relation_freqs: None,
        }
    }

    /// Attach per-entity modality presence flags.
    pub fn with_modal_presence(mut self, presence: ModalPresence) -> Self {
        self.modal = Some(presence);
        self
    }

    /// Attach relation training frequencies (the eval layer's
    /// `fewshot::relation_frequencies` output) for few-shot annotation.
    pub fn with_relation_frequencies(mut self, freqs: HashMap<RelationId, usize>) -> Self {
        self.relation_freqs = Some(freqs);
        self
    }

    /// Pin and return the currently published graph epoch.
    pub fn graph(&self) -> Arc<KnowledgeGraph> {
        self.graph.pin()
    }

    /// Run one retrieval. `reasoner` supplies beam paths when it has
    /// path evidence and the spec names a relation; pass `None` to force
    /// the topology fallback.
    pub fn retrieve(&self, reasoner: Option<&dyn KgReasoner>, spec: &RetrieveSpec) -> Retrieval {
        faults::on_retrieve();
        // Pin once: subgraph, fallback paths and annotations all read
        // the same epoch.
        let graph = self.graph.pin();
        let subgraph = extract(
            &graph,
            &spec.seeds,
            &SubgraphConfig {
                hops: spec.hops,
                max_entities: spec.max_entities,
                ..SubgraphConfig::default()
            },
            self.modal.as_ref(),
        );

        let mut candidates = Vec::new();
        if let (Some(relation), Some(r)) = (spec.relation, reasoner) {
            if r.has_path_evidence() {
                candidates = self.beam_paths(r, &spec.seeds, relation, spec.max_paths);
            }
        }
        if candidates.is_empty() {
            candidates = topology_paths(&graph, &spec.seeds, &subgraph);
        }
        let paths_considered = candidates.len();
        let paths = mmr_rerank(candidates, spec.diversity, spec.max_paths);

        let few_shot = spec.relation.map(|r| {
            let rs = graph.relations();
            let base = if rs.is_inverse(r) { rs.inverse(r) } else { r };
            let train_frequency = self
                .relation_freqs
                .as_ref()
                .and_then(|f| f.get(&base).copied())
                .unwrap_or(0);
            FewShotInfo {
                relation: r,
                train_frequency,
                few_shot: train_frequency <= FEW_SHOT_THRESHOLD,
            }
        });

        Retrieval {
            subgraph,
            paths,
            paths_considered,
            few_shot,
        }
    }

    /// Beam frontier paths: one explain query per distinct seed, unioned
    /// and deduped. Each seed asks for a pool larger than the final
    /// selection so the reranker has genuine alternatives to diversify
    /// over.
    fn beam_paths(
        &self,
        reasoner: &dyn KgReasoner,
        seeds: &[EntityId],
        relation: RelationId,
        max_paths: usize,
    ) -> Vec<ContextPath> {
        let pool = if max_paths == 0 { 0 } else { max_paths * 4 };
        let mut out = Vec::new();
        let mut seen_seeds = HashSet::new();
        for &seed in seeds {
            if !seen_seeds.insert(seed) {
                continue;
            }
            let query = Query::new(seed, relation).with_top_k(pool);
            for p in reasoner.explain(&query).unwrap_or_default() {
                out.push(ContextPath {
                    source: seed,
                    entity: p.entity,
                    score: p.logp,
                    hops: p.hops,
                    entities: vec![seed, p.entity],
                    relations: p.relations,
                });
            }
        }
        out.sort_by(context_path_cmp);
        out.dedup_by(|a, b| {
            a.source == b.source && a.entity == b.entity && a.relations == b.relations
        });
        out
    }
}

/// Candidate rank order: descending score, then ascending terminal
/// entity, then ascending source — the serving layer's shared tie-break
/// extended to the path's second identity axis.
fn context_path_cmp(a: &ContextPath, b: &ContextPath) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.entity.0.cmp(&b.entity.0))
        .then_with(|| a.source.0.cmp(&b.source.0))
}

/// Topology fallback: a BFS spanning tree over the extracted subgraph
/// (parents resolved in ascending entity order, edges in CSR bucket
/// order — deterministic), yielding one shortest path from the nearest
/// seed to every reached non-seed entity, scored `-hops`.
fn topology_paths(
    graph: &KnowledgeGraph,
    seeds: &[EntityId],
    subgraph: &Subgraph,
) -> Vec<ContextPath> {
    let hop_of: BTreeMap<EntityId, usize> = subgraph
        .entities
        .iter()
        .map(|e| (e.entity, e.hops))
        .collect();
    let max_hop = hop_of.values().copied().max().unwrap_or(0);
    let rs = graph.relations();

    // parent[child] = (parent entity, relation walked parent → child)
    let mut parent: BTreeMap<EntityId, (EntityId, RelationId)> = BTreeMap::new();
    let mut frontier: Vec<EntityId> = {
        let mut roots: Vec<EntityId> = seeds
            .iter()
            .copied()
            .filter(|s| hop_of.get(s) == Some(&0))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    };
    for hop in 1..=max_hop {
        let mut next = Vec::new();
        for &e in &frontier {
            for edge in graph.neighbors(e) {
                if edge.relation == rs.no_op() {
                    continue;
                }
                let t = edge.target;
                if hop_of.get(&t) == Some(&hop) && !parent.contains_key(&t) {
                    parent.insert(t, (e, edge.relation));
                    next.push(t);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
    }

    let mut out = Vec::new();
    for (&entity, &hops) in &hop_of {
        if hops == 0 {
            continue;
        }
        let mut relations = Vec::with_capacity(hops);
        let mut entities = vec![entity];
        let mut cur = entity;
        while let Some(&(p, r)) = parent.get(&cur) {
            relations.push(r);
            entities.push(p);
            cur = p;
        }
        relations.reverse();
        entities.reverse();
        out.push(ContextPath {
            source: cur,
            entity,
            score: -(hops as f32),
            hops,
            relations,
            entities,
        });
    }
    out.sort_by(context_path_cmp);
    out
}

/// Jaccard similarity of two paths' item sets (entities ∪ relations,
/// tagged so an entity id never collides with a relation id).
fn path_overlap(a: &HashSet<(u8, u32)>, b: &HashSet<(u8, u32)>) -> f32 {
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f32 / union as f32
    }
}

/// Greedy MMR selection over score-ranked candidates: each round picks
/// the candidate maximizing `score − diversity · max_overlap(selected)`,
/// ties broken by original rank. `max_paths = 0` keeps every candidate
/// (the rerank still reorders them). Deterministic for a fixed input.
pub fn mmr_rerank(
    mut candidates: Vec<ContextPath>,
    diversity: f32,
    max_paths: usize,
) -> Vec<ContextPath> {
    candidates.sort_by(context_path_cmp);
    let items: Vec<HashSet<(u8, u32)>> = candidates
        .iter()
        .map(|p| {
            p.entities
                .iter()
                .map(|e| (0u8, e.0))
                .chain(p.relations.iter().map(|r| (1u8, r.0)))
                .collect()
        })
        .collect();
    let limit = if max_paths == 0 {
        candidates.len()
    } else {
        max_paths.min(candidates.len())
    };
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut selected: Vec<usize> = Vec::with_capacity(limit);
    while selected.len() < limit && !remaining.is_empty() {
        let mut best_pos = 0usize;
        let mut best_adj = f32::NEG_INFINITY;
        for (pos, &i) in remaining.iter().enumerate() {
            let penalty = selected
                .iter()
                .map(|&j| path_overlap(&items[i], &items[j]))
                .fold(0.0f32, f32::max);
            let adj = candidates[i].score - diversity * penalty;
            // Strictly-greater keeps the earliest (best-ranked) candidate
            // on ties.
            if adj.total_cmp(&best_adj) == std::cmp::Ordering::Greater {
                best_adj = adj;
                best_pos = pos;
            }
        }
        selected.push(remaining.remove(best_pos));
    }
    let mut keep: Vec<Option<ContextPath>> = candidates.into_iter().map(Some).collect();
    selected
        .into_iter()
        .map(|i| keep[i].take().expect("selected once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmkgr_kg::Triple;

    fn t(s: u32, r: u32, o: u32) -> Triple {
        Triple {
            s: EntityId(s),
            r: RelationId(r),
            o: EntityId(o),
        }
    }

    fn graph() -> Arc<KnowledgeGraph> {
        // 0-1-2-3 chain on r0, 1→{4,5} fan on r1.
        Arc::new(KnowledgeGraph::from_triples(
            6,
            2,
            vec![t(0, 0, 1), t(1, 0, 2), t(2, 0, 3), t(1, 1, 4), t(1, 1, 5)],
            None,
        ))
    }

    fn path(score: f32, entities: &[u32], relations: &[u32]) -> ContextPath {
        ContextPath {
            source: EntityId(entities[0]),
            entity: EntityId(*entities.last().unwrap()),
            score,
            hops: relations.len(),
            relations: relations.iter().map(|&r| RelationId(r)).collect(),
            entities: entities.iter().map(|&e| EntityId(e)).collect(),
        }
    }

    /// Mean pairwise Jaccard overlap of the selected paths' entity sets.
    fn mean_entity_overlap(paths: &[ContextPath]) -> f32 {
        let sets: Vec<HashSet<u32>> = paths
            .iter()
            .map(|p| p.entities.iter().map(|e| e.0).collect())
            .collect();
        let mut total = 0.0f32;
        let mut pairs = 0usize;
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let inter = sets[i].intersection(&sets[j]).count();
                let union = sets[i].len() + sets[j].len() - inter;
                total += inter as f32 / union.max(1) as f32;
                pairs += 1;
            }
        }
        total / pairs.max(1) as f32
    }

    #[test]
    fn diversity_reduces_pairwise_entity_overlap() {
        // Two near-duplicate high-scoring paths through {0,1,2} and two
        // lower-scoring paths through disjoint regions.
        let candidates = vec![
            path(1.0, &[0, 1, 2], &[0, 0]),
            path(0.9, &[0, 1, 2], &[0, 1]),
            path(0.5, &[3, 4], &[1]),
            path(0.4, &[5], &[]),
        ];
        let plain = mmr_rerank(candidates.clone(), 0.0, 3);
        let diverse = mmr_rerank(candidates, 0.8, 3);
        assert_eq!(plain.len(), 3);
        assert_eq!(diverse.len(), 3);
        // Score order keeps both near-duplicates; the diverse selection
        // trades the second duplicate for a distinct region.
        let plain_overlap = mean_entity_overlap(&plain);
        let diverse_overlap = mean_entity_overlap(&diverse);
        assert!(
            diverse_overlap < plain_overlap,
            "diversity must reduce overlap: {diverse_overlap} vs {plain_overlap}"
        );
        // The top-scored path always survives.
        assert_eq!(diverse[0].score, 1.0);
    }

    #[test]
    fn zero_diversity_is_score_order() {
        let candidates = vec![
            path(0.2, &[5], &[]),
            path(0.9, &[0, 1], &[0]),
            path(0.5, &[3, 4], &[1]),
        ];
        let out = mmr_rerank(candidates, 0.0, 0);
        let scores: Vec<f32> = out.iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.2]);
    }

    #[test]
    fn mmr_ties_break_by_rank() {
        // Equal scores and disjoint items: selection must follow the
        // deterministic rank order (ascending entity id).
        let candidates = vec![
            path(0.5, &[9], &[]),
            path(0.5, &[1], &[]),
            path(0.5, &[4], &[]),
        ];
        let out = mmr_rerank(candidates, 0.7, 2);
        let ids: Vec<u32> = out.iter().map(|p| p.entity.0).collect();
        assert_eq!(ids, vec![1, 4]);
    }

    #[test]
    fn topology_fallback_yields_shortest_paths() {
        let g = graph();
        let retriever = Retriever::new(Arc::clone(&g));
        let spec = RetrieveSpec {
            seeds: vec![EntityId(0)],
            relation: None,
            hops: 2,
            max_entities: 0,
            max_paths: 0,
            diversity: 0.0,
        };
        let r = retriever.retrieve(None, &spec);
        assert_eq!(r.subgraph.entities.len(), 5); // 0,1,2,4,5
        assert_eq!(r.paths_considered, 4);
        // Every non-seed entity gets exactly one path, rooted at the seed.
        for p in &r.paths {
            assert_eq!(p.source, EntityId(0));
            assert_eq!(p.hops, r.subgraph.hop_of(p.entity).unwrap());
            assert_eq!(p.relations.len(), p.hops);
            assert_eq!(p.entities.first(), Some(&EntityId(0)));
            assert_eq!(p.entities.last(), Some(&p.entity));
            assert_eq!(p.score, -(p.hops as f32));
        }
        // -1 before -2, ascending entity within a hop band.
        let ids: Vec<u32> = r.paths.iter().map(|p| p.entity.0).collect();
        assert_eq!(ids, vec![1, 2, 4, 5]);
    }

    #[test]
    fn retrieval_is_deterministic() {
        let g = graph();
        let retriever = Retriever::new(Arc::clone(&g));
        let spec = RetrieveSpec {
            seeds: vec![EntityId(1), EntityId(0)],
            relation: None,
            hops: 2,
            max_entities: 4,
            max_paths: 3,
            diversity: 0.5,
        };
        let a = retriever.retrieve(None, &spec);
        let b = retriever.retrieve(None, &spec);
        assert_eq!(a.subgraph.entities, b.subgraph.entities);
        assert_eq!(a.subgraph.triples, b.subgraph.triples);
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    fn few_shot_annotation_uses_injected_frequencies() {
        let g = graph();
        let mut freqs = HashMap::new();
        freqs.insert(RelationId(0), 120usize);
        freqs.insert(RelationId(1), 3usize);
        let retriever = Retriever::new(Arc::clone(&g)).with_relation_frequencies(freqs);
        let spec = |r: u32| RetrieveSpec {
            seeds: vec![EntityId(1)],
            relation: Some(RelationId(r)),
            hops: 1,
            max_entities: 0,
            max_paths: 2,
            diversity: 0.0,
        };
        let common = retriever.retrieve(None, &spec(0)).few_shot.unwrap();
        assert_eq!(common.train_frequency, 120);
        assert!(!common.few_shot);
        let rare = retriever.retrieve(None, &spec(1)).few_shot.unwrap();
        assert_eq!(rare.train_frequency, 3);
        assert!(rare.few_shot);
        // Inverse orientation maps to the base relation's frequency.
        let rs = g.relations();
        let inv_spec = RetrieveSpec {
            relation: Some(rs.inverse(RelationId(0))),
            ..spec(0)
        };
        let inv = retriever.retrieve(None, &inv_spec).few_shot.unwrap();
        assert_eq!(inv.train_frequency, 120);
    }
}
