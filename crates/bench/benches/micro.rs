//! Criterion micro-benchmarks for the hot components of the MMKGR stack:
//! the gate-attention fusion forward (with/without each module — the cost
//! side of the Fig. 4 ablation), a policy rollout step, a TransE training
//! epoch, full-candidate ranking, and graph adjacency ops.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mmkgr_core::infer::RolloutPolicy;
use mmkgr_core::prelude::*;
use mmkgr_datagen::{generate, GenConfig};
use mmkgr_embed::{KgeTrainConfig, TransE, TripleScorer};
use mmkgr_kg::{Edge, EntityId, RelationId};
use mmkgr_nn::{Ctx, Params};
use mmkgr_tensor::init::seeded_rng;
use mmkgr_tensor::{Matrix, Tape};

fn bench_matmul(c: &mut Criterion) {
    let mut rng = seeded_rng(0);
    let a = mmkgr_tensor::init::xavier(&mut rng, 64, 64);
    let b = mmkgr_tensor::init::xavier(&mut rng, 64, 64);
    c.bench_function("matmul_64x64", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)))
    });
}

fn bench_fusion_forward(c: &mut Criterion) {
    // The unified gate-attention network on a typical action space (m=16).
    let mut params = Params::new();
    let mut rng = seeded_rng(1);
    let gate = mmkgr_core::GateAttention::new(&mut params, &mut rng, 96, 32, 32, 32);
    let y = mmkgr_tensor::init::xavier(&mut rng, 1, 96);
    let x = mmkgr_tensor::init::xavier(&mut rng, 16, 32);
    let mut group = c.benchmark_group("gate_attention");
    group.bench_function("full", |b| {
        b.iter(|| std::hint::black_box(gate.forward_raw(&params, &y, &x, true, true)))
    });
    group.bench_function("no_filtration_FAKGR", |b| {
        b.iter(|| std::hint::black_box(gate.forward_raw(&params, &y, &x, true, false)))
    });
    group.bench_function("no_attention_FGKGR", |b| {
        b.iter(|| std::hint::black_box(gate.forward_raw(&params, &y, &x, false, true)))
    });
    group.finish();
}

fn bench_rollout_step(c: &mut Criterion) {
    let kg = generate(&GenConfig::tiny());
    let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
    let no_op = kg.graph.relations().no_op();
    let mut actions = vec![Edge {
        relation: no_op,
        target: EntityId(0),
    }];
    actions.extend_from_slice(kg.graph.neighbors(EntityId(0)));
    let h = vec![0.1f32; model.hidden_dim()];
    let mut probs = Vec::new();
    c.bench_function("policy_action_probs", |b| {
        b.iter(|| {
            model.raw_state_probs(EntityId(0), &h, RelationId(0), &actions, &mut probs);
            std::hint::black_box(&probs);
        })
    });
}

fn bench_transe_epoch(c: &mut Criterion) {
    let kg = generate(&GenConfig::tiny());
    let known = kg.all_known();
    c.bench_function("transe_epoch_tiny", |b| {
        b.iter_batched(
            || TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 0),
            |mut m| {
                m.train(
                    &kg.split.train,
                    &known,
                    &KgeTrainConfig {
                        epochs: 1,
                        ..KgeTrainConfig::quick()
                    },
                );
                std::hint::black_box(m.entity_matrix().get(0, 0));
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ranking(c: &mut Criterion) {
    let kg = generate(&GenConfig::tiny());
    let model = TransE::new(kg.num_entities(), kg.graph.relations().total(), 16, 2);
    let mut out = Vec::new();
    c.bench_function("score_all_objects", |b| {
        b.iter(|| {
            model.score_all_objects(EntityId(0), RelationId(0), kg.num_entities(), &mut out);
            std::hint::black_box(out.len());
        })
    });
}

fn bench_beam_search(c: &mut Criterion) {
    use mmkgr_core::beam::{beam_search_reference, BeamConfig, BeamEngine};
    let kg = generate(&GenConfig::tiny());
    let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
    let mut group = c.benchmark_group("beam_search");
    group.bench_function("legacy_api_w8_t4", |b| {
        b.iter(|| {
            std::hint::black_box(mmkgr_core::beam_search(
                &model,
                &kg.graph,
                EntityId(0),
                RelationId(0),
                8,
                4,
            ))
        })
    });
    let mut engine = BeamEngine::new();
    for width in [8usize, 64] {
        group.bench_function(&format!("reference_w{width}_t4"), |b| {
            b.iter(|| {
                std::hint::black_box(beam_search_reference(
                    &model,
                    &kg.graph,
                    EntityId(0),
                    RelationId(0),
                    &BeamConfig::new(width, 4),
                ))
            })
        });
        group.bench_function(&format!("engine_exact_w{width}_t4"), |b| {
            b.iter(|| {
                engine.run(
                    &model,
                    &kg.graph,
                    EntityId(0),
                    RelationId(0),
                    &BeamConfig::new(width, 4),
                );
                std::hint::black_box(engine.frontier_len())
            })
        });
    }
    group.finish();
}

fn bench_serve_answer(c: &mut Criterion) {
    use mmkgr_core::serve::{KgReasoner, PolicyReasoner, Query, ServeConfig};
    use std::sync::Arc;
    let kg = generate(&GenConfig::tiny());
    let graph = Arc::new(kg.graph.clone());
    let cold = PolicyReasoner::new(
        "MMKGR",
        MmkgrModel::new(&kg, MmkgrConfig::quick(), None),
        Arc::clone(&graph),
        ServeConfig::default(),
    );
    let cached = PolicyReasoner::new(
        "MMKGR",
        MmkgrModel::new(&kg, MmkgrConfig::quick(), None),
        graph,
        ServeConfig::default().with_cache(1024),
    );
    let q = Query::new(EntityId(0), RelationId(0))
        .with_beam(8)
        .with_steps(3);
    let mut group = c.benchmark_group("serve_answer");
    group.bench_function("uncached", |b| {
        b.iter(|| std::hint::black_box(cold.answer(&q)))
    });
    cached.answer(&q); // prime
    group.bench_function("cache_hit", |b| {
        b.iter(|| std::hint::black_box(cached.answer(&q)))
    });
    group.finish();
}

fn bench_graph_ops(c: &mut Criterion) {
    let kg = generate(&GenConfig::tiny());
    let mut group = c.benchmark_group("graph");
    group.bench_function("neighbors", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for e in 0..kg.num_entities() as u32 {
                acc += kg.graph.neighbors(EntityId(e)).len();
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("hop_distance_3", |b| {
        b.iter(|| {
            std::hint::black_box(mmkgr_kg::hop_distance(
                &kg.graph,
                EntityId(0),
                EntityId(kg.num_entities() as u32 - 1),
                3,
            ))
        })
    });
    group.finish();
}

fn bench_autograd_tape(c: &mut Criterion) {
    // One REINFORCE-shaped forward/backward: the training inner loop.
    let mut rng = seeded_rng(3);
    let w = mmkgr_tensor::init::xavier(&mut rng, 64, 64);
    let x = mmkgr_tensor::init::xavier(&mut rng, 16, 64);
    c.bench_function("tape_forward_backward", |b| {
        b.iter(|| {
            let tape = Tape::new();
            let vw = tape.input(w.clone());
            let vx = tape.input(x.clone());
            let h = tape.tanh(tape.matmul(vx, vw));
            let p = tape.log_softmax_rows(h);
            let picked = tape.pick_per_row(p, &[0; 16]);
            let loss = tape.mean(picked);
            std::hint::black_box(tape.backward(loss).get(vw).is_some())
        })
    });
    let _ = Ctx::new(&Tape::new(), &Params::new());
    let _ = Matrix::zeros(1, 1);
}

criterion_group!(
    benches,
    bench_matmul,
    bench_fusion_forward,
    bench_rollout_step,
    bench_transe_epoch,
    bench_ranking,
    bench_beam_search,
    bench_serve_answer,
    bench_graph_ops,
    bench_autograd_tape,
);
criterion_main!(benches);
