//! Triple generation and split construction.
//!
//! Atomic relations link latent-compatible entity pairs; composed relations
//! are materialized from 2-hop chains with probability `close_prob`. The
//! *unmaterialized* chains form the pool of multi-hop-inferable facts that
//! valid/test sets are preferentially drawn from — this is what plants
//! genuine multi-hop structure in the benchmark, mirroring the paper's
//! observation that "KGs have the most inferred potential knowledge within
//! multiple hops".

use std::collections::{HashMap, HashSet};

use mmkgr_kg::{hop_distance, KnowledgeGraph, Split, Triple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::GenConfig;
use crate::schema::{translate_score, LatentWorld, RelationSchema};

pub struct GeneratedTriples {
    pub split: Split,
}

pub fn generate_triples(
    cfg: &GenConfig,
    world: &LatentWorld,
    schemas: &[RelationSchema],
    rng: &mut StdRng,
) -> GeneratedTriples {
    // Entities per cluster for source/target sampling.
    let mut by_cluster: Vec<Vec<u32>> = vec![Vec::new(); cfg.clusters];
    for (e, &c) in world.cluster_of.iter().enumerate() {
        by_cluster[c].push(e as u32);
    }
    for bucket in &mut by_cluster {
        if bucket.is_empty() {
            // Guarantee every cluster is populated so schemas stay valid.
            bucket.push(rng.gen_range(0..cfg.entities) as u32);
        }
    }

    let total_target =
        (cfg.train_triples as f64 / (1.0 - cfg.valid_frac - cfg.test_frac)).ceil() as usize;
    let num_atomic = schemas.iter().filter(|s| s.composed_of.is_none()).count();
    // 0.68 atomic share: composed-relation closure then fills the rest so
    // the final train count lands near `cfg.train_triples` (tuned against
    // the WN9/FB presets).
    let quota = (total_target as f64 * 0.68 / num_atomic as f64).ceil() as usize;

    let mut materialized: Vec<Triple> = Vec::with_capacity(total_target + total_target / 4);
    let mut seen: HashSet<u64> = HashSet::with_capacity(total_target * 2);

    // --- atomic relations -------------------------------------------------
    for (r, schema) in schemas.iter().enumerate() {
        if schema.composed_of.is_some() {
            continue;
        }
        let sources = &by_cluster[schema.src_cluster];
        let targets = &by_cluster[schema.tgt_cluster];
        let mut produced = 0usize;
        let mut attempts = 0usize;
        let max_attempts = quota * 8;
        while produced < quota && attempts < max_attempts {
            attempts += 1;
            let s = sources[rng.gen_range(0..sources.len())];
            // Score a small candidate pool and keep the best `fanout`.
            let pool = 24.min(targets.len());
            let mut cands: Vec<(f32, u32)> = (0..pool)
                .map(|_| {
                    let o = targets[rng.gen_range(0..targets.len())];
                    (
                        translate_score(&world.latents, s as usize, &schema.offset, o as usize),
                        o,
                    )
                })
                .collect();
            cands.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, o) in cands.iter().take(schema.fanout) {
                if s == o {
                    continue;
                }
                let t = Triple::new(s, r as u32, o);
                if seen.insert(t.key()) {
                    materialized.push(t);
                    produced += 1;
                }
            }
        }
    }

    // --- composed relations -----------------------------------------------
    // Index atomic triples by relation for chain enumeration.
    let mut by_rel_src: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    for t in &materialized {
        by_rel_src.entry((t.r.0, t.s.0)).or_default().push(t.o.0);
    }
    let mut derivable: Vec<Triple> = Vec::new();
    for (r3, schema) in schemas.iter().enumerate() {
        let Some((r1, r2)) = schema.composed_of else {
            continue;
        };
        // Enumerate all syntactic chain instances s →r1→ m →r2→ o, scored
        // by latent compatibility under the composed offset.
        let heads: Vec<(u32, u32)> = materialized
            .iter()
            .filter(|t| t.r.0 == r1 as u32)
            .map(|t| (t.s.0, t.o.0))
            .collect();
        let mut chains: Vec<(f32, u32, u32)> = Vec::new();
        let mut chain_seen: HashSet<u64> = HashSet::new();
        for (s, m) in heads {
            let Some(outs) = by_rel_src.get(&(r2 as u32, m)) else {
                continue;
            };
            for &o in outs {
                if s == o {
                    continue;
                }
                let key = ((s as u64) << 32) | o as u64;
                if !chain_seen.insert(key) {
                    continue;
                }
                let score = translate_score(&world.latents, s as usize, &schema.offset, o as usize);
                chains.push((score, s, o));
            }
        }
        // Latent-compatibility filter: only the best `rule_precision`
        // fraction of chain endpoints are true facts. The remaining
        // chains stay walkable in the graph but are *not* facts — this is
        // what keeps pure symbolic rule-following from being sufficient.
        chains.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((chains.len() as f64) * cfg.rule_precision).round() as usize;
        chains.truncate(keep);
        // Shuffle so materialized/derivable split is score-independent.
        chains.shuffle(rng);

        // Cap each composed relation near the atomic quota so the dataset
        // lands on the configured size even when chains are abundant.
        let mut mat_budget = quota;
        let mut der_budget = quota;
        for (_, s, o) in chains {
            if mat_budget == 0 && der_budget == 0 {
                break;
            }
            let t = Triple::new(s, r3 as u32, o);
            if seen.contains(&t.key()) {
                continue;
            }
            if rng.gen_bool(cfg.close_prob) {
                if mat_budget > 0 {
                    seen.insert(t.key());
                    materialized.push(t);
                    mat_budget -= 1;
                }
            } else if der_budget > 0 && seen.insert(t.key()) {
                derivable.push(t);
                der_budget -= 1;
            }
        }
    }

    // --- split -------------------------------------------------------------
    materialized.shuffle(rng);
    derivable.shuffle(rng);

    let total = materialized.len() + derivable.len().min(total_target / 5);
    let test_quota = ((total as f64) * cfg.test_frac).round() as usize;
    let valid_quota = ((total as f64) * cfg.valid_frac).round() as usize;

    // Prefer derivable (multi-hop-only) facts for evaluation.
    let mut holdout: Vec<Triple> = Vec::with_capacity(test_quota + valid_quota);
    let from_derivable = derivable.len().min((test_quota + valid_quota) * 7 / 10);
    holdout.extend(derivable.drain(..from_derivable));

    // Backfill from materialized (they get removed from train below).
    let backfill = (test_quota + valid_quota).saturating_sub(holdout.len());
    let mut train: Vec<Triple> = materialized;
    let mut removed: Vec<Triple> = Vec::with_capacity(backfill);
    while removed.len() < backfill {
        match train.pop() {
            Some(t) => removed.push(t),
            None => break,
        }
    }
    holdout.extend(removed);
    holdout.shuffle(rng);

    // Connectivity filter: a held-out fact must be answerable from the
    // train graph (both endpoints present, goal within 3 hops); failures
    // return to train so no knowledge is silently dropped.
    let graph = KnowledgeGraph::from_triples(cfg.entities, cfg.base_relations, train.clone(), None);
    let mut kept: Vec<Triple> = Vec::with_capacity(holdout.len());
    for t in holdout {
        let connected = graph.out_degree(t.s) > 0
            && graph.out_degree(t.o) > 0
            && hop_distance(&graph, t.s, t.o, 3).is_some();
        if connected {
            kept.push(t);
        } else {
            train.push(t);
        }
    }

    let test_n = kept.len().min(test_quota);
    let test: Vec<Triple> = kept.drain(..test_n).collect();
    let valid_n = kept.len().min(valid_quota);
    let valid: Vec<Triple> = kept.drain(..valid_n).collect();
    train.extend(kept); // leftover hold-outs return to train

    GeneratedTriples {
        split: Split { train, valid, test },
    }
}

/// Check that a split has no leakage: valid/test triples absent from train.
pub fn verify_no_leakage(split: &Split) -> bool {
    let train: HashSet<u64> = split.train.iter().map(|t| t.key()).collect();
    split
        .valid
        .iter()
        .chain(&split.test)
        .all(|t| !train.contains(&t.key()))
}

/// Fraction of held-out triples whose gold answer is ≤ `k` hops from the
/// source in the train graph — the "multi-hop inferability" diagnostic.
pub fn inferable_fraction(graph: &KnowledgeGraph, triples: &[Triple], k: usize) -> f64 {
    if triples.is_empty() {
        return 0.0;
    }
    let hits = triples
        .iter()
        .filter(|t| hop_distance(graph, t.s, t.o, k).is_some())
        .count();
    hits as f64 / triples.len() as f64
}
