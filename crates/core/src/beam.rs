//! The reusable beam-search engine: the hot path of every serving and
//! evaluation query.
//!
//! [`BeamEngine`] re-implements [`crate::infer::beam_search`] with the
//! allocation profile of a long-lived server instead of a one-shot
//! function:
//!
//! - **Flat SoA frontier**: recurrent `(h, c)` state lives in two
//!   contiguous `Vec<f32>`s indexed by beam slot, not one heap `Vec` per
//!   beam. Survivors copy rows; nothing else is cloned.
//! - **Path arena**: relation paths are `(parent_idx, rel)` links in an
//!   arena, materialized into `Vec<RelationId>` only for final survivors
//!   (and only when the caller asks for paths at all — ranking callers
//!   read the frontier directly).
//! - **Lightweight candidates**: expansion emits `(parent_slot, edge,
//!   logp)` records; pruning uses `select_nth_unstable_by` (O(n)) instead
//!   of a full sort, with a deterministic `(logp desc, emission order)`
//!   total order that reproduces the legacy stable sort exactly.
//! - **Owned scratch**: every buffer is owned by the engine, so a query
//!   after the first allocates nothing (the output paths, if requested,
//!   are the only allocation).
//!
//! The search is the exact MINERVA protocol the paper evaluates with
//! (§V): bit-identical to the original `beam_search` — same entities,
//! same log-probs, same relation paths, same tie-breaks. Every entry
//! point (`beam_search`, `rank_query`, `evaluate_ranking`,
//! `relation_scores` and [`crate::serve::PolicyReasoner`]) runs it, and
//! property tests pin it against [`beam_search_reference`], a
//! deliberately naive retained implementation of the same contract.

use std::collections::HashMap;

use mmkgr_kg::{Edge, EntityId, KnowledgeGraph, RelationId};

use crate::infer::{BeamPath, RolloutPolicy};
use crate::mdp::{Env, RolloutQuery, RolloutState};

/// Search shape for one [`BeamEngine::run`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BeamConfig {
    /// Beam width (frontier capacity per step).
    pub width: usize,
    /// Step horizon `T`.
    pub steps: usize,
}

impl BeamConfig {
    pub fn new(width: usize, steps: usize) -> Self {
        BeamConfig { width, steps }
    }
}

/// One beam of the final frontier, viewed without materializing its path.
#[derive(Copy, Clone, Debug)]
pub struct FrontierBeam {
    pub entity: EntityId,
    pub logp: f32,
    /// Non-NO_OP hops.
    pub hops: usize,
}

/// Sentinel for "no path node": the root of the arena.
const NO_NODE: u32 = u32::MAX;

/// Per-slot metadata (the non-recurrent half of the SoA frontier).
#[derive(Copy, Clone)]
struct Slot {
    current: EntityId,
    last_rel: RelationId,
    hops: u32,
    logp: f32,
    /// Arena link of the last non-NO_OP hop (NO_NODE for the empty path).
    path: u32,
}

/// A candidate expansion: everything needed to score, prune, and — for
/// survivors only — materialize the next frontier slot.
#[derive(Copy, Clone)]
struct Cand {
    parent: u32,
    edge: Edge,
    hops: u32,
    logp: f32,
    /// Emission order; the tie-break that reproduces the legacy stable
    /// sort (and keeps `select_nth_unstable_by` deterministic).
    seq: u32,
}

/// Reusable beam-search engine. Create once (per worker thread), run many
/// queries; see the module docs for the design.
#[derive(Default)]
pub struct BeamEngine {
    // ---- frontier (SoA, double-buffered) ----
    slots: Vec<Slot>,
    h: Vec<f32>,
    c: Vec<f32>,
    next_slots: Vec<Slot>,
    next_h: Vec<f32>,
    next_c: Vec<f32>,
    /// Post-recurrent-step state per frontier slot, gathered by survivors.
    h_post: Vec<f32>,
    c_post: Vec<f32>,
    // ---- per-step scratch ----
    cands: Vec<Cand>,
    action_buf: Vec<Edge>,
    prob_buf: Vec<f32>,
    /// Slot indices sorted by current entity: the grouped-forward order.
    order: Vec<u32>,
    /// Post-step `h` rows of one entity group, gathered contiguously.
    group_h: Vec<f32>,
    /// All probabilities of the step, segment per slot (see `slot_seg`).
    flat_probs: Vec<f32>,
    /// Action lists of the query, one segment per distinct entity
    /// (persisted across steps — an entity's actions never change within
    /// a query).
    flat_actions: Vec<Edge>,
    /// Per slot: (probs offset, actions offset, action count).
    slot_seg: Vec<(u32, u32, u32)>,
    /// Entity → index into `preps`, for the lifetime of one query.
    prep_memo: HashMap<u32, u32>,
    /// Memoized per-entity contexts: (actions offset, action count,
    /// policy-prepared context from [`RolloutPolicy::prepare_actions`]).
    preps: Vec<(u32, u32, Box<dyn std::any::Any>)>,
    /// `(last_rel, current)` → index into `step_preps`, for one query.
    step_memo: HashMap<(u32, u32), u32>,
    /// Memoized recurrent-step input halves
    /// ([`RolloutPolicy::prepare_step`]).
    step_preps: Vec<Box<dyn std::any::Any>>,
    // ---- path arena ----
    path_nodes: Vec<(u32, RelationId)>,
    rel_scratch: Vec<RelationId>,
}

impl BeamEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of beams in the final frontier of the last `run`.
    pub fn frontier_len(&self) -> usize {
        self.slots.len()
    }

    /// The final frontier of the last `run`, in rank order (descending
    /// log-prob, legacy tie-breaks), without materializing paths.
    pub fn frontier(&self) -> impl Iterator<Item = FrontierBeam> + '_ {
        self.slots.iter().map(|s| FrontierBeam {
            entity: s.current,
            logp: s.logp,
            hops: s.hops as usize,
        })
    }

    /// Best final log-prob reaching `entity` (−∞ if no beam ended there).
    pub fn best_logp_to(&self, entity: EntityId) -> f32 {
        self.slots
            .iter()
            .filter(|s| s.current == entity)
            .map(|s| s.logp)
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Run beam search from `(source, relation)`. The result stays inside
    /// the engine: read it with [`Self::frontier`] / [`Self::paths_into`].
    pub fn run<P: RolloutPolicy + ?Sized>(
        &mut self,
        policy: &P,
        graph: &KnowledgeGraph,
        source: EntityId,
        relation: RelationId,
        cfg: &BeamConfig,
    ) {
        let env = Env::new(graph, false);
        let no_op = env.no_op();
        let ds = policy.hidden_dim();

        self.slots.clear();
        self.path_nodes.clear();
        self.prep_memo.clear();
        self.preps.clear();
        self.step_memo.clear();
        self.step_preps.clear();
        self.flat_actions.clear();
        self.h.clear();
        self.c.clear();
        self.slots.push(Slot {
            current: source,
            last_rel: no_op,
            hops: 0,
            logp: 0.0,
            path: NO_NODE,
        });
        self.h.resize(ds, 0.0);
        self.c.resize(ds, 0.0);

        // Scratch state for Env::fill_actions (no masking at eval time).
        let query = RolloutQuery {
            source,
            relation,
            answer: source,
        };
        let mut state = RolloutState::new(query, no_op);

        for _ in 0..cfg.steps {
            let n = self.slots.len();
            self.cands.clear();
            self.h_post.resize(n * ds, 0.0);
            self.c_post.resize(n * ds, 0.0);

            // Phase 1: recurrent update per slot (post-step state kept
            // for survivors to gather). The input-dependent half of the
            // step is memoized per traversed `(last_rel, current)` edge
            // for the whole query.
            for i in 0..n {
                let slot = self.slots[i];
                let key = (slot.last_rel.0, slot.current.0);
                let step_idx = match self.step_memo.get(&key) {
                    Some(&idx) => idx as usize,
                    None => {
                        self.step_preps
                            .push(policy.prepare_step(slot.last_rel, slot.current));
                        let idx = self.step_preps.len() - 1;
                        self.step_memo.insert(key, idx as u32);
                        idx
                    }
                };
                self.h_post[i * ds..(i + 1) * ds].copy_from_slice(&self.h[i * ds..(i + 1) * ds]);
                self.c_post[i * ds..(i + 1) * ds].copy_from_slice(&self.c[i * ds..(i + 1) * ds]);
                let (h_rows, c_rows) = (&mut self.h_post, &mut self.c_post);
                policy.lstm_step_prepared(
                    slot.last_rel,
                    slot.current,
                    self.step_preps[step_idx].as_ref(),
                    &mut h_rows[i * ds..(i + 1) * ds],
                    &mut c_rows[i * ds..(i + 1) * ds],
                );
            }

            // Phase 2: policy forwards, grouped by current entity so the
            // policy shares action-dependent work across co-located
            // beams. Probabilities land in per-slot segments; candidate
            // emission below replays them in slot order, so ordering
            // (and therefore tie-breaking) is identical to the
            // ungrouped reference.
            self.order.clear();
            self.order.extend(0..n as u32);
            let slots = &self.slots;
            self.order
                .sort_unstable_by_key(|&i| (slots[i as usize].current.0, i));
            self.flat_probs.clear();
            self.slot_seg.resize(n, (0, 0, 0));
            let mut g = 0usize;
            while g < n {
                let entity = self.slots[self.order[g] as usize].current;
                let mut end = g + 1;
                while end < n && self.slots[self.order[end] as usize].current == entity {
                    end += 1;
                }
                // Per-entity context, memoized for the whole query: the
                // action set and the policy's action-dependent
                // precomputation never change between steps.
                let prep_idx = match self.prep_memo.get(&entity.0) {
                    Some(&i) => i as usize,
                    None => {
                        state.current = entity;
                        env.fill_actions(&state, &mut self.action_buf);
                        let act_off = self.flat_actions.len() as u32;
                        self.flat_actions.extend_from_slice(&self.action_buf);
                        let prep = policy.prepare_actions(&self.action_buf);
                        self.preps
                            .push((act_off, self.action_buf.len() as u32, prep));
                        let i = self.preps.len() - 1;
                        self.prep_memo.insert(entity.0, i as u32);
                        i
                    }
                };
                let (act_off, m) = {
                    let p = &self.preps[prep_idx];
                    (p.0 as usize, p.1 as usize)
                };
                self.group_h.clear();
                for &si in &self.order[g..end] {
                    let si = si as usize;
                    self.group_h
                        .extend_from_slice(&self.h_post[si * ds..(si + 1) * ds]);
                }
                policy.action_probs_group_prepared(
                    source,
                    &self.group_h,
                    end - g,
                    relation,
                    &self.flat_actions[act_off..act_off + m],
                    self.preps[prep_idx].2.as_ref(),
                    &mut self.prob_buf,
                );
                for (k, &si) in self.order[g..end].iter().enumerate() {
                    let prob_off = self.flat_probs.len() as u32;
                    self.flat_probs
                        .extend_from_slice(&self.prob_buf[k * m..(k + 1) * m]);
                    self.slot_seg[si as usize] = (prob_off, act_off as u32, m as u32);
                }
                g = end;
            }

            // Phase 3: emit candidates in slot order (legacy emission
            // order — the tie-break of the pruning step).
            for i in 0..n {
                let slot = self.slots[i];
                let (prob_off, act_off, m) = self.slot_seg[i];
                for k in 0..m as usize {
                    let a = self.flat_actions[act_off as usize + k];
                    let p = self.flat_probs[prob_off as usize + k];
                    let lp = p.max(1e-12).ln();
                    let hops = if a.relation == no_op {
                        slot.hops
                    } else {
                        slot.hops + 1
                    };
                    self.cands.push(Cand {
                        parent: i as u32,
                        edge: a,
                        hops,
                        logp: slot.logp + lp,
                        seq: self.cands.len() as u32,
                    });
                }
            }

            // Prune to width with a deterministic total order equal to the
            // legacy stable sort: logp descending, emission order on ties.
            let by_rank =
                |a: &Cand, b: &Cand| b.logp.total_cmp(&a.logp).then_with(|| a.seq.cmp(&b.seq));
            if cfg.width == 0 {
                self.cands.clear();
            } else if self.cands.len() > cfg.width {
                self.cands.select_nth_unstable_by(cfg.width - 1, by_rank);
                self.cands.truncate(cfg.width);
            }
            self.cands.sort_unstable_by(by_rank);

            // Materialize the surviving frontier (row copies only).
            self.next_slots.clear();
            self.next_h.resize(self.cands.len() * ds, 0.0);
            self.next_c.resize(self.cands.len() * ds, 0.0);
            for (j, cand) in self.cands.iter().enumerate() {
                let p = cand.parent as usize;
                let parent_path = self.slots[p].path;
                let path = if cand.edge.relation == no_op {
                    parent_path
                } else {
                    self.path_nodes.push((parent_path, cand.edge.relation));
                    (self.path_nodes.len() - 1) as u32
                };
                self.next_slots.push(Slot {
                    current: cand.edge.target,
                    last_rel: cand.edge.relation,
                    hops: cand.hops,
                    logp: cand.logp,
                    path,
                });
                self.next_h[j * ds..(j + 1) * ds]
                    .copy_from_slice(&self.h_post[p * ds..(p + 1) * ds]);
                self.next_c[j * ds..(j + 1) * ds]
                    .copy_from_slice(&self.c_post[p * ds..(p + 1) * ds]);
            }
            std::mem::swap(&mut self.slots, &mut self.next_slots);
            std::mem::swap(&mut self.h, &mut self.next_h);
            std::mem::swap(&mut self.c, &mut self.next_c);
            if self.slots.is_empty() {
                break;
            }
        }
    }

    /// Materialize the relation path of final-frontier beam `idx` into
    /// `out` (cleared first, hop order). Lets ranking callers pull paths
    /// for the few beams they keep instead of all of them.
    pub fn path_into(&self, idx: usize, out: &mut Vec<RelationId>) {
        out.clear();
        let mut node = self.slots[idx].path;
        while node != NO_NODE {
            let (parent, rel) = self.path_nodes[node as usize];
            out.push(rel);
            node = parent;
        }
        out.reverse();
    }

    /// Materialize the final frontier as [`BeamPath`]s (appended to
    /// `out`, which is cleared first). The only allocating accessor.
    pub fn paths_into(&mut self, out: &mut Vec<BeamPath>) {
        out.clear();
        out.reserve(self.slots.len());
        let mut rel_scratch = std::mem::take(&mut self.rel_scratch);
        for (i, s) in self.slots.iter().enumerate() {
            self.path_into(i, &mut rel_scratch);
            out.push(BeamPath {
                entity: s.current,
                logp: s.logp,
                hops: s.hops as usize,
                relations: rel_scratch.clone(),
            });
        }
        self.rel_scratch = rel_scratch;
    }

    /// Convenience: run + materialize paths.
    pub fn search<P: RolloutPolicy + ?Sized>(
        &mut self,
        policy: &P,
        graph: &KnowledgeGraph,
        source: EntityId,
        relation: RelationId,
        cfg: &BeamConfig,
    ) -> Vec<BeamPath> {
        self.run(policy, graph, source, relation, cfg);
        let mut out = Vec::new();
        self.paths_into(&mut out);
        out
    }
}

/// Run `f` with this thread's shared [`BeamEngine`] (lazily created).
/// Legacy free functions (`beam_search`, `rank_query`, …) use this so
/// repeated calls allocate nothing while the public API stays unchanged;
/// the serving worker pool gets an engine per worker thread for free.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut BeamEngine) -> R) -> R {
    thread_local! {
        static ENGINE: std::cell::RefCell<BeamEngine> =
            std::cell::RefCell::new(BeamEngine::new());
    }
    ENGINE.with(|e| f(&mut e.borrow_mut()))
}

/// The retained reference implementation the engine is pinned against:
/// the original clone-per-candidate beam search. Deliberately naive —
/// kept for parity tests and the `BENCH_serve.json` before/after
/// baseline, not for serving.
pub fn beam_search_reference<P: RolloutPolicy + ?Sized>(
    policy: &P,
    graph: &KnowledgeGraph,
    source: EntityId,
    relation: RelationId,
    cfg: &BeamConfig,
) -> Vec<BeamPath> {
    #[derive(Clone)]
    struct Beam {
        current: EntityId,
        last_rel: RelationId,
        hops: usize,
        h: Vec<f32>,
        c: Vec<f32>,
        logp: f32,
        rels: Vec<RelationId>,
    }

    let env = Env::new(graph, false);
    let no_op = env.no_op();
    let ds = policy.hidden_dim();
    let mut beams = vec![Beam {
        current: source,
        last_rel: no_op,
        hops: 0,
        h: vec![0.0; ds],
        c: vec![0.0; ds],
        logp: 0.0,
        rels: Vec::new(),
    }];
    let mut action_buf: Vec<Edge> = Vec::new();
    let mut prob_buf: Vec<f32> = Vec::new();
    let query = RolloutQuery {
        source,
        relation,
        answer: source,
    };

    for _ in 0..cfg.steps {
        let mut candidates: Vec<Beam> = Vec::with_capacity(beams.len() * 8);
        for beam in &beams {
            let x = policy.lstm_input(beam.last_rel, beam.current);
            let mut h = beam.h.clone();
            let mut c = beam.c.clone();
            policy.lstm_step(&x, &mut h, &mut c);

            let mut state = RolloutState::new(query, no_op);
            state.current = beam.current;
            env.fill_actions(&state, &mut action_buf);
            policy.action_probs(source, &h, relation, &action_buf, &mut prob_buf);

            for (a, &p) in action_buf.iter().zip(&prob_buf) {
                let lp = p.max(1e-12).ln();
                let mut rels = beam.rels.clone();
                let hops = if a.relation == no_op {
                    beam.hops
                } else {
                    rels.push(a.relation);
                    beam.hops + 1
                };
                candidates.push(Beam {
                    current: a.target,
                    last_rel: a.relation,
                    hops,
                    h: h.clone(),
                    c: c.clone(),
                    logp: beam.logp + lp,
                    rels,
                });
            }
        }
        candidates.sort_by(|a, b| b.logp.total_cmp(&a.logp));
        candidates.truncate(cfg.width);
        beams = candidates;
        if beams.is_empty() {
            break;
        }
    }

    beams
        .into_iter()
        .map(|b| BeamPath {
            entity: b.current,
            logp: b.logp,
            hops: b.hops,
            relations: b.rels,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MmkgrConfig;
    use crate::model::MmkgrModel;
    use mmkgr_datagen::{generate, GenConfig};

    fn tiny() -> (mmkgr_kg::MultiModalKG, MmkgrModel) {
        let kg = generate(&GenConfig::tiny());
        let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
        (kg, model)
    }

    fn assert_paths_identical(a: &[BeamPath], b: &[BeamPath]) {
        assert_eq!(a.len(), b.len(), "frontier sizes differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.entity, y.entity);
            assert_eq!(x.hops, y.hops);
            assert_eq!(x.relations, y.relations);
            assert_eq!(
                x.logp.to_bits(),
                y.logp.to_bits(),
                "log-probs must be bit-identical: {} vs {}",
                x.logp,
                y.logp
            );
        }
    }

    #[test]
    fn exact_mode_matches_reference_bitwise() {
        let (kg, model) = tiny();
        let mut engine = BeamEngine::new();
        for (src, rel, w, t) in [
            (0u32, 0u32, 4, 3),
            (1, 1, 8, 4),
            (5, 2, 64, 4),
            (9, 0, 1, 2),
        ] {
            let cfg = BeamConfig::new(w, t);
            let want =
                beam_search_reference(&model, &kg.graph, EntityId(src), RelationId(rel), &cfg);
            let got = engine.search(&model, &kg.graph, EntityId(src), RelationId(rel), &cfg);
            assert_paths_identical(&got, &want);
        }
    }

    #[test]
    fn engine_reuse_is_stateless_across_queries() {
        // A warm engine must answer exactly like a cold one.
        let (kg, model) = tiny();
        let cfg = BeamConfig::new(8, 4);
        let mut warm = BeamEngine::new();
        for s in 0..6u32 {
            warm.run(&model, &kg.graph, EntityId(s), RelationId(1), &cfg);
        }
        let warm_paths = warm.search(&model, &kg.graph, EntityId(2), RelationId(0), &cfg);
        let cold_paths =
            BeamEngine::new().search(&model, &kg.graph, EntityId(2), RelationId(0), &cfg);
        assert_paths_identical(&warm_paths, &cold_paths);
    }

    #[test]
    fn frontier_view_agrees_with_paths() {
        let (kg, model) = tiny();
        let mut engine = BeamEngine::new();
        let paths = engine.search(
            &model,
            &kg.graph,
            EntityId(0),
            RelationId(0),
            &BeamConfig::new(8, 4),
        );
        let fronts: Vec<FrontierBeam> = engine.frontier().collect();
        assert_eq!(fronts.len(), paths.len());
        for (f, p) in fronts.iter().zip(&paths) {
            assert_eq!(f.entity, p.entity);
            assert_eq!(f.hops, p.hops);
            assert_eq!(f.logp.to_bits(), p.logp.to_bits());
        }
        let best = paths
            .iter()
            .filter(|p| p.entity == paths[0].entity)
            .map(|p| p.logp)
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(
            engine.best_logp_to(paths[0].entity).to_bits(),
            best.to_bits()
        );
    }

    #[test]
    fn width_zero_yields_empty_frontier() {
        let (kg, model) = tiny();
        let mut engine = BeamEngine::new();
        let paths = engine.search(
            &model,
            &kg.graph,
            EntityId(0),
            RelationId(0),
            &BeamConfig::new(0, 3),
        );
        assert!(paths.is_empty());
        let want = beam_search_reference(
            &model,
            &kg.graph,
            EntityId(0),
            RelationId(0),
            &BeamConfig::new(0, 3),
        );
        assert!(want.is_empty());
    }

    #[test]
    fn zero_steps_returns_source_only() {
        let (kg, model) = tiny();
        let mut engine = BeamEngine::new();
        let paths = engine.search(
            &model,
            &kg.graph,
            EntityId(4),
            RelationId(0),
            &BeamConfig::new(8, 0),
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].entity, EntityId(4));
        assert_eq!(paths[0].logp, 0.0);
        assert!(paths[0].relations.is_empty());
    }
}
