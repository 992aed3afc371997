//! Cross-model protocol invariants: every multi-hop reasoner in the
//! workspace implements `RolloutPolicy` and is evaluated by the same beam
//! search — these tests pin the contract all Table III comparisons rest
//! on, across MMKGR, the baseline walkers, and the fused walkers.

use mmkgr::baselines::{FusedWalker, NaiveFusion, RlWalker, WalkerConfig, WalkerKind};
use mmkgr::core::prelude::*;
use mmkgr::datagen::{generate, GenConfig};
use mmkgr::kg::{Edge, EntityId, MultiModalKG, RelationId};

fn kg() -> MultiModalKG {
    generate(&GenConfig::tiny())
}

fn policies(kg: &MultiModalKG) -> Vec<(&'static str, Box<dyn RolloutPolicy>)> {
    let n = kg.num_entities();
    let r = kg.graph.relations().total();
    let wcfg = WalkerConfig {
        epochs: 0,
        ..Default::default()
    };
    let mmkgr = {
        let cfg = MmkgrConfig::quick();
        MmkgrModel::new(kg, cfg, None)
    };
    let minerva = RlWalker::new(n, r, WalkerKind::Minerva, wcfg.clone());
    let fused = FusedWalker::new(kg, NaiveFusion::Attention, 8, wcfg);
    vec![
        ("MMKGR", Box::new(mmkgr)),
        ("MINERVA", Box::new(minerva)),
        ("Fused/Attention", Box::new(fused)),
    ]
}

fn action_space(kg: &MultiModalKG, e: EntityId) -> Vec<Edge> {
    let mut actions = vec![Edge {
        relation: kg.graph.relations().no_op(),
        target: e,
    }];
    actions.extend_from_slice(kg.graph.neighbors(e));
    actions
}

#[test]
fn every_policy_emits_a_probability_distribution() {
    let kg = kg();
    let actions = action_space(&kg, EntityId(0));
    for (name, p) in policies(&kg) {
        let h = vec![0.1f32; p.hidden_dim()];
        let mut probs = Vec::new();
        p.action_probs(EntityId(0), &h, RelationId(0), &actions, &mut probs);
        assert_eq!(probs.len(), actions.len(), "{name}: one prob per action");
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "{name}: probs sum to {sum}");
        assert!(probs.iter().all(|&v| (0.0..=1.0).contains(&v)), "{name}");
    }
}

#[test]
fn every_policy_recurrent_step_is_deterministic_and_finite() {
    let kg = kg();
    for (name, p) in policies(&kg) {
        let x = p.lstm_input(RelationId(1), EntityId(2));
        assert!(!x.is_empty(), "{name}: recurrent input non-empty");
        let mut h1 = vec![0.0f32; p.hidden_dim()];
        let mut c1 = vec![0.0f32; p.hidden_dim()];
        p.lstm_step(&x, &mut h1, &mut c1);
        let mut h2 = vec![0.0f32; p.hidden_dim()];
        let mut c2 = vec![0.0f32; p.hidden_dim()];
        p.lstm_step(&x, &mut h2, &mut c2);
        assert_eq!(h1, h2, "{name}: same input+state → same state");
        assert!(h1.iter().all(|v| v.is_finite()), "{name}");
        assert_ne!(h1, vec![0.0f32; p.hidden_dim()], "{name}: state must move");
    }
}

#[test]
fn beam_search_respects_width_and_scores() {
    let kg = kg();
    let t = kg.split.test[0];
    for (name, p) in policies(&kg) {
        for width in [1usize, 4, 8] {
            let paths = beam_search(&*p, &kg.graph, t.s, t.r, width, 4);
            assert!(
                paths.len() <= width,
                "{name}: {} beams > width {width}",
                paths.len()
            );
            assert!(!paths.is_empty(), "{name}: NO_OP guarantees one beam");
            for path in &paths {
                assert!(
                    path.logp.is_finite() && path.logp <= 1e-6,
                    "{name}: logp ≤ 0"
                );
                assert!(path.hops <= 4, "{name}: hop budget respected");
                assert_eq!(
                    path.relations.len(),
                    path.hops,
                    "{name}: relation trace matches hop count"
                );
            }
            // beams arrive sorted by logp (best first)
            for w in paths.windows(2) {
                assert!(w[0].logp >= w[1].logp, "{name}: beams sorted");
            }
        }
    }
}

#[test]
fn ranking_summary_is_bounded_for_every_policy() {
    let kg = kg();
    let known = kg.all_known();
    let queries = mmkgr::core::queries_from_triples(
        &kg.split.test[..6.min(kg.split.test.len())],
        kg.graph.relations(),
        false,
    );
    for (name, p) in policies(&kg) {
        let s = evaluate_ranking(&*p, &kg.graph, &queries, &known, 4, 4);
        assert!((0.0..=1.0).contains(&s.mrr), "{name}");
        assert!(
            s.hits1 <= s.hits5 && s.hits5 <= s.hits10,
            "{name}: Hits@N monotone"
        );
        assert_eq!(s.total, queries.len(), "{name}");
    }
}
