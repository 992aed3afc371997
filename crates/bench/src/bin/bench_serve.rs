//! Serving-performance trajectory: `BENCH_serve.json`.
//!
//! Measures the beam-search hot path and batch serving throughput on the
//! `tiny` dataset, comparing two implementations of the same search:
//!
//! - **reference** — `beam_search_reference`, the retained pre-engine
//!   *algorithm* (clone-per-candidate, full sort, per-slot policy
//!   forwards), compiled against the current kernels.
//! - **engine** — `BeamEngine`: bit-identical output, zero steady-state
//!   allocation, grouped/memoized policy forwards.
//!
//! Every ratio it writes compares two numbers taken in the same run
//! (`speedup_exact_vs_reference`, the median of per-trial-pair ratios),
//! never a live number against one recorded on another machine.
//!
//! Plus `answer_batch` throughput on a persistent [`WorkerPool`] at 1
//! and 4 workers, and the frontier-cache hit path.
//!
//! The `engine` section times the engine and its two policy layers at
//! servebench's answer-cold shape (`fb_img_txt` scaled by 0.3, the
//! default model config, width 16, T 4, distinct train keys): engine
//! time per query, `raw_prepare_actions` per distinct entity, and the
//! gate-attention action distribution per beam state with its mean
//! action count. After one warm-up pass it runs several timed passes
//! over the keys, alternating the bare engine with the layer-timed one,
//! and records each time's median and quartiles over the passes. Its
//! `frontier_checksum` hashes every final frontier's entities and `logp`
//! bits, so a build that moves any of those bits on these keys reads a
//! different checksum (up to hash collisions).
//!
//! Usage: `cargo run --release -p mmkgr-bench --bin bench_serve`
//! (writes `BENCH_serve.json` to the current directory).

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use mmkgr_core::beam::{beam_search_reference, BeamConfig, BeamEngine};
use mmkgr_core::prelude::*;
use mmkgr_core::serve::{KgReasoner, PolicyReasoner, Query, ServeConfig, WorkerPool};
use mmkgr_core::RolloutPolicy;
use mmkgr_datagen::{generate, GenConfig};
use mmkgr_kg::{Edge, EntityId, RelationId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct BeamBench {
    width: usize,
    steps: usize,
    /// Live: retained pre-engine algorithm on current kernels. Both
    /// times are each side's best trial.
    reference_ns_per_query: u64,
    engine_exact_ns_per_query: u64,
    /// Median over the alternating trial pairs of reference / engine:
    /// the engine-structure win alone.
    speedup_exact_vs_reference: f64,
}

#[derive(Serialize)]
struct BatchBench {
    queries: usize,
    beam: usize,
    steps: usize,
    workers1_qps: f64,
    workers4_qps: f64,
    cached_qps: f64,
}

/// Median and quartiles of a sample (nearest rank).
#[derive(Serialize)]
struct Spread {
    p25: f64,
    p50: f64,
    p75: f64,
}

fn spread(mut xs: Vec<f64>) -> Spread {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    Spread {
        p25: at(0.25),
        p50: at(0.5),
        p75: at(0.75),
    }
}

#[derive(Serialize)]
struct EngineBench {
    dataset: String,
    width: usize,
    steps: usize,
    queries: usize,
    /// Timed passes over the keys, after one warm-up pass.
    passes: usize,
    /// Per pass, the median engine time of one query.
    engine_ms_per_query: Spread,
    prepare_actions_us_per_entity: Spread,
    entities_per_query: f64,
    action_probs_us_per_state: Spread,
    states_per_query: f64,
    /// Mean action count `m` over the timed states.
    mean_actions: f64,
    frontier_checksum: String,
}

#[derive(Serialize)]
struct ServeBench {
    dataset: String,
    machine: String,
    cpus: usize,
    cpu_model: String,
    rustc: String,
    commit: String,
    beam_search: Vec<BeamBench>,
    answer_batch: BatchBench,
    engine: EngineBench,
}

/// Fixed budget of one timing trial, and trials per side.
const TRIAL: std::time::Duration = std::time::Duration::from_millis(200);
const TRIALS: usize = 10;

/// Mean nanoseconds per call of `f` over one [`TRIAL`].
fn trial_ns(f: &mut impl FnMut()) -> u64 {
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < TRIAL {
        f();
        iters += 1;
    }
    (start.elapsed().as_nanos() / u128::from(iters.max(1))) as u64
}

/// Time `a` and `b` per call in nanoseconds: after warmup, their trials
/// alternate (a, b, a, b, …). Returns each side's best (minimum) mean —
/// scheduler interference only ever inflates a trial — and the median
/// over the trial pairs of `a / b`. A pair runs back to back, so a spell
/// of host contention moves both of its sides, and the median ratio
/// does not hinge on one side alone catching a quiet spell.
fn time_pair_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (u64, u64, f64) {
    for _ in 0..3 {
        a();
        b();
    }
    let mut best = (u64::MAX, u64::MAX);
    let mut ratios = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let (ta, tb) = (trial_ns(&mut a), trial_ns(&mut b));
        best = (best.0.min(ta), best.1.min(tb));
        ratios.push(ta as f64 / tb.max(1) as f64);
    }
    (best.0, best.1, spread(ratios).p50)
}

fn bench_beam(
    model: &MmkgrModel,
    kg: &mmkgr_kg::MultiModalKG,
    sources: &[EntityId],
    width: usize,
    steps: usize,
) -> BeamBench {
    let cursor = Cell::new(0usize);
    let next = || {
        let i = cursor.get();
        cursor.set(i + 1);
        sources[i % sources.len()]
    };
    let cfg = BeamConfig::new(width, steps);
    let mut engine = BeamEngine::new();
    let (reference, engine_exact, speedup) = time_pair_ns(
        || {
            let paths = beam_search_reference(model, &kg.graph, next(), RelationId(0), &cfg);
            std::hint::black_box(paths.len());
        },
        || {
            engine.run(model, &kg.graph, next(), RelationId(0), &cfg);
            std::hint::black_box(engine.frontier_len());
        },
    );
    BeamBench {
        width,
        steps,
        reference_ns_per_query: reference,
        engine_exact_ns_per_query: engine_exact,
        speedup_exact_vs_reference: speedup,
    }
}

/// Distinct training keys timed by the `engine` section, and its shape.
const ENGINE_KEYS: usize = 400;
const ENGINE_WIDTH: usize = 16;
const ENGINE_STEPS: usize = 4;
/// Timed passes over the keys, after one warm-up pass.
const ENGINE_PASSES: usize = 5;

/// [`MmkgrModel`] with the engine's two policy layers timed: the
/// per-entity `prepare_actions` and the per-group action distribution.
/// Pure delegation, so the engine's outputs are unchanged.
struct TimedPolicy<'a> {
    model: &'a MmkgrModel,
    prepare_ns: Cell<u64>,
    prepares: Cell<u64>,
    probs_ns: Cell<u64>,
    states: Cell<u64>,
    /// Σ states × action count, for the mean `m`.
    state_actions: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

impl RolloutPolicy for TimedPolicy<'_> {
    fn hidden_dim(&self) -> usize {
        self.model.hidden_dim()
    }

    fn lstm_input(&self, last_rel: RelationId, current: EntityId) -> Vec<f32> {
        self.model.lstm_input(last_rel, current)
    }

    fn lstm_step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        self.model.lstm_step(x, h, c)
    }

    fn action_probs(
        &self,
        source: EntityId,
        h: &[f32],
        rq: RelationId,
        actions: &[Edge],
        out: &mut Vec<f32>,
    ) {
        self.model.action_probs(source, h, rq, actions, out)
    }

    fn prepare_actions(&self, actions: &[Edge]) -> Box<dyn Any> {
        let t = Instant::now();
        let prepared = self.model.prepare_actions(actions);
        add(&self.prepare_ns, t.elapsed().as_nanos() as u64);
        add(&self.prepares, 1);
        prepared
    }

    fn action_probs_group_prepared(
        &self,
        source: EntityId,
        hs: &[f32],
        states: usize,
        rq: RelationId,
        actions: &[Edge],
        prepared: &dyn Any,
        out: &mut Vec<f32>,
    ) {
        let t = Instant::now();
        self.model
            .action_probs_group_prepared(source, hs, states, rq, actions, prepared, out);
        add(&self.probs_ns, t.elapsed().as_nanos() as u64);
        add(&self.states, states as u64);
        add(&self.state_actions, (states * actions.len()) as u64);
    }

    fn prepare_step(&self, last_rel: RelationId, current: EntityId) -> Box<dyn Any> {
        self.model.prepare_step(last_rel, current)
    }

    fn lstm_step_prepared(
        &self,
        last_rel: RelationId,
        current: EntityId,
        prepared: &dyn Any,
        h: &mut [f32],
        c: &mut [f32],
    ) {
        self.model
            .lstm_step_prepared(last_rel, current, prepared, h, c)
    }
}

/// FNV-1a over the frontier's entities and `logp` bits, folded into `h`.
fn fold_frontier(engine: &BeamEngine, mut h: u64) -> u64 {
    for beam in engine.frontier() {
        for word in [u64::from(beam.entity.0), u64::from(beam.logp.to_bits())] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

fn bench_engine() -> EngineBench {
    let kg = generate(&GenConfig::fb_img_txt().scaled(0.3));
    let model = MmkgrModel::new(&kg, MmkgrConfig::default(), None);
    let mut keys: Vec<(u32, u32)> = kg
        .split
        .train
        .iter()
        .map(|t| (t.s.0, t.r.0))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    keys.shuffle(&mut StdRng::seed_from_u64(0));
    keys.truncate(ENGINE_KEYS);
    let cfg = BeamConfig::new(ENGINE_WIDTH, ENGINE_STEPS);
    let mut engine = BeamEngine::new();

    // The warm-up pass: the first query also builds the model's lazy
    // tables, and every later pass must produce the same frontiers.
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for &(s, r) in &keys {
        engine.run(&model, &kg.graph, EntityId(s), RelationId(r), &cfg);
        checksum = fold_frontier(&engine, checksum);
    }

    // Alternate a pass of the bare engine (untimed inside) with a pass
    // timing its two policy layers through a delegating policy, so a
    // spell of host contention lands on both kinds of pass.
    let (mut engine_ms, mut prepare_us, mut probs_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed = None;
    for _ in 0..ENGINE_PASSES {
        let mut query_ms = Vec::with_capacity(keys.len());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(s, r) in &keys {
            let t = Instant::now();
            engine.run(&model, &kg.graph, EntityId(s), RelationId(r), &cfg);
            query_ms.push(t.elapsed().as_secs_f64() * 1e3);
            h = fold_frontier(&engine, h);
        }
        assert_eq!(
            h, checksum,
            "engine passes disagree: the engine is not deterministic"
        );
        engine_ms.push(spread(query_ms).p50);

        let pass = TimedPolicy {
            model: &model,
            prepare_ns: Cell::new(0),
            prepares: Cell::new(0),
            probs_ns: Cell::new(0),
            states: Cell::new(0),
            state_actions: Cell::new(0),
        };
        for &(s, r) in &keys {
            engine.run(&pass, &kg.graph, EntityId(s), RelationId(r), &cfg);
        }
        let per = |ns: &Cell<u64>, n: &Cell<u64>| ns.get() as f64 / 1e3 / n.get().max(1) as f64;
        prepare_us.push(per(&pass.prepare_ns, &pass.prepares));
        probs_us.push(per(&pass.probs_ns, &pass.states));
        timed = Some(pass);
    }
    // Every pass visits the same entities and states; read the counts
    // from the last one.
    let timed = timed.expect("at least one timed pass");
    let queries = keys.len() as f64;
    EngineBench {
        dataset: kg.name.clone(),
        width: ENGINE_WIDTH,
        steps: ENGINE_STEPS,
        queries: keys.len(),
        passes: ENGINE_PASSES,
        engine_ms_per_query: spread(engine_ms),
        prepare_actions_us_per_entity: spread(prepare_us),
        entities_per_query: timed.prepares.get() as f64 / queries,
        action_probs_us_per_state: spread(probs_us),
        states_per_query: timed.states.get() as f64 / queries,
        mean_actions: timed.state_actions.get() as f64 / timed.states.get().max(1) as f64,
        frontier_checksum: format!("{checksum:016x}"),
    }
}

fn qps(queries: usize, elapsed: std::time::Duration) -> f64 {
    queries as f64 / elapsed.as_secs_f64()
}

fn main() {
    let kg = generate(&GenConfig::tiny());
    let model = MmkgrModel::new(&kg, MmkgrConfig::quick(), None);
    let sources: Vec<EntityId> = (0..kg.num_entities() as u32).map(EntityId).collect();

    println!("beam-search microbench (tiny dataset, untrained quick model)");
    let mut beam_rows = Vec::new();
    for width in [8, 64] {
        let row = bench_beam(&model, &kg, &sources, width, 4);
        println!(
            "  w{width}: reference {}ns  engine {}ns ({:.2}x)",
            row.reference_ns_per_query,
            row.engine_exact_ns_per_query,
            row.speedup_exact_vs_reference,
        );
        beam_rows.push(row);
    }

    // Batch throughput over the persistent pool (cache off → raw compute).
    let queries: Vec<Query> = kg
        .split
        .test
        .iter()
        .chain(kg.split.valid.iter())
        .map(|t| Query::new(t.s, t.r).with_beam(8).with_steps(3))
        .collect();
    let serve = ServeConfig::default();
    let reasoner: Arc<dyn KgReasoner + Send + Sync> = Arc::new(PolicyReasoner::new(
        "MMKGR",
        MmkgrModel::new(&kg, MmkgrConfig::quick(), None),
        Arc::new(kg.graph.clone()),
        serve,
    ));
    let pool1 = WorkerPool::new(Arc::clone(&reasoner), 1);
    let pool4 = WorkerPool::new(Arc::clone(&reasoner), 4);
    // Warm both pools (thread-local engines allocate on first query).
    std::hint::black_box(pool1.answer_batch(&queries));
    std::hint::black_box(pool4.answer_batch(&queries));
    let t = Instant::now();
    std::hint::black_box(pool1.answer_batch(&queries));
    let w1 = qps(queries.len(), t.elapsed());
    let t = Instant::now();
    std::hint::black_box(pool4.answer_batch(&queries));
    let w4 = qps(queries.len(), t.elapsed());

    // Cached serving: same batch twice on a cache-enabled reasoner.
    let cached: Arc<dyn KgReasoner + Send + Sync> = Arc::new(PolicyReasoner::new(
        "MMKGR",
        MmkgrModel::new(&kg, MmkgrConfig::quick(), None),
        Arc::new(kg.graph.clone()),
        serve.with_cache(4096),
    ));
    std::hint::black_box(cached.answer(&queries[0]));
    for q in &queries {
        std::hint::black_box(cached.answer(q));
    }
    let t = Instant::now();
    for q in &queries {
        std::hint::black_box(cached.answer(q));
    }
    let cached_qps = qps(queries.len(), t.elapsed());
    println!(
        "answer_batch ({} queries, beam 8, T=3): 1 worker {w1:.0} q/s, 4 workers {w4:.0} q/s, cache-hit {cached_qps:.0} q/s",
        queries.len()
    );

    let engine = bench_engine();
    let quartiles = |s: &Spread| format!("{:.2} [{:.2}, {:.2}]", s.p50, s.p25, s.p75);
    println!(
        "engine ({}, w{} T{}, {} keys, {} passes; median [p25, p75]): {} ms/query; prepare_actions {} us x {:.1}/query; action probs {} us x {:.1} states/query (mean m {:.1}); checksum {}",
        engine.dataset,
        engine.width,
        engine.steps,
        engine.queries,
        engine.passes,
        quartiles(&engine.engine_ms_per_query),
        quartiles(&engine.prepare_actions_us_per_entity),
        engine.entities_per_query,
        quartiles(&engine.action_probs_us_per_state),
        engine.states_per_query,
        engine.mean_actions,
        engine.frontier_checksum,
    );

    let stamp = mmkgr_bench::RunStamp::capture();
    let out = ServeBench {
        dataset: "tiny".into(),
        machine: stamp.machine,
        cpus: stamp.cpus,
        cpu_model: stamp.cpu_model,
        rustc: stamp.rustc,
        commit: stamp.commit,
        beam_search: beam_rows,
        answer_batch: BatchBench {
            queries: queries.len(),
            beam: 8,
            steps: 3,
            workers1_qps: w1,
            workers4_qps: w4,
            cached_qps,
        },
        engine,
    };
    // Field-wise merge: this binary owns the top-level engine keys,
    // while `bench_http` / `bench_store` own the "http" / "store"
    // sections of the same file — never clobber theirs.
    if let serde::Value::Object(fields) = out.serialize_value() {
        for (key, value) in fields {
            mmkgr_bench::merge_bench_section("BENCH_serve.json", &key, value);
        }
    }
    println!("[saved BENCH_serve.json]");
}
