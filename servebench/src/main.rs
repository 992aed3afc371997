//! Serving benchmark for the MMKGR stack.
//!
//! ```text
//! servebench --workload <answer-cold|answer-hot|rag-live> --seed <n>
//!            --seconds <s> --trace <0|1>
//!            [--dataset fb|tiny] [--ops <n>]
//! ```
//!
//! Generates the inputs from the seed, boots the real stack in-process
//! (live primary + HTTP server + WAL-tailing follower) [`SETUPS`] times
//! to time set-up, drives one closed-loop client for `--seconds` (or a fixed
//! `--ops` count), checks every response against a cache-off reference,
//! and prints one JSON result as its last line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. See `README.md` in this directory.

mod ops;
mod run;
mod stack;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mmkgr_core::serve::{AnswerRequest, KgReasoner, NameIndex};
use mmkgr_core::{MmkgrConfig, MmkgrModel};
use mmkgr_datagen::{generate, GenConfig};
use mmkgr_kg::{EntityId, MultiModalKG};

use ops::{Plan, Route, Workload, PROBE_CYCLES};
use run::{is_repeat, latencies, Client, Rec};
use stack::Stack;
use stats::{median, Summary};

const USAGE: &str = "usage: servebench --workload <answer-cold|answer-hot|rag-live> --seed <n> \
--seconds <s> --trace <0|1> [--dataset fb|tiny] [--ops <n>]";

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// `/healthz` round trips at the start of every warm pass (one per
/// connection thread and then some).
const WARM_HEALTHZ: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    ops: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let num = |v: Option<String>, flag: &str| -> Result<Option<f64>, String> {
        v.map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("{flag} takes a number, got `{s}`"))
        })
        .transpose()
    };
    let seed = num(get("--seed"), "--seed")?.ok_or("missing --seed")?;
    let seconds = num(get("--seconds"), "--seconds")?.ok_or("missing --seconds")?;
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    let tiny = match get("--dataset").as_deref() {
        None | Some("fb") => false,
        Some("tiny") => true,
        Some(other) => return Err(format!("unknown dataset `{other}`")),
    };
    let ops = num(get("--ops"), "--ops")?.map(|n| n as usize);
    if seconds <= 0.0 || ops == Some(0) {
        return Err("--seconds and --ops must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed as u64,
        seconds,
        trace,
        tiny,
        ops,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stamp = sys::RunStamp::capture();
    println!(
        "servebench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  stamp: cpus={} cpu=\"{}\" rustc=\"{}\" commit={}",
        stamp.cpus, stamp.cpu_model, stamp.rustc, stamp.commit
    );

    // Inputs (untimed). The graph is the dataset's own fixed generation;
    // the seed picks the op sequence.
    let t = Instant::now();
    let kg = generate(&if args.tiny {
        GenConfig::tiny()
    } else {
        GenConfig::fb_img_txt().scaled(0.3)
    });
    let plan = Plan::new(args.workload, &kg, args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    println!(
        "  inputs: {} entities={} relations={} train={} gen_s={gen_s:.3}",
        kg.name,
        kg.num_entities(),
        kg.num_base_relations(),
        kg.split.train.len()
    );
    // The reference policy has the served policy's seed and config, so
    // its parameters are identical.
    let model: &'static MmkgrModel =
        Box::leak(Box::new(MmkgrModel::new(&kg, MmkgrConfig::default(), None)));
    let names = NameIndex::synthetic(kg.num_entities(), kg.num_base_relations());

    let root = PathBuf::from(".servebench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create the run directory");
    println!("  wal: {} on {}", root.display(), sys::filesystem_of(&root));

    // The stack's own memory: the set-ups' peak above the resident
    // memory before the first boot (the inputs and reference model).
    let baseline_mb = sys::rss_mb();
    let (stack, setups) = set_up(&kg, &plan, &names, model, &root);
    let stack_mb = sys::peak_rss_mb() - baseline_mb;
    println!("  rss: {baseline_mb:.1} MB before the first boot, the stack's peak {stack_mb:.1} MB above it");
    let setup_s: Vec<f64> = setups.iter().map(|(b, w)| b + w).collect();
    println!(
        "  setup_s per boot: {:?} (boot {:?}, warm {:?})",
        setup_s,
        setups.iter().map(|s| s.0).collect::<Vec<_>>(),
        setups.iter().map(|s| s.1).collect::<Vec<_>>()
    );

    let mut client = Client::new(&stack, &plan, &names, model);
    let mut out = Vec::new();
    let recs = if args.trace {
        traced_run(&args, &mut client, &kg, &root, &setups, stack_mb, &mut out)
    } else {
        untraced_run(&args, &mut client, &kg, median(&setup_s), &mut out)
    };
    let reconnects = stack.follower_rep.metrics().reconnects;
    drop(client);
    stack.shutdown();
    std::fs::remove_dir_all(&root).ok();

    let failed = recs.iter().filter(|r| r.ok != Some(true)).count();
    let correct = failed == 0 && reconnects == 0;
    if !correct {
        println!("  CHECK FAILED: {failed} op(s) failed, {reconnects} reconnect(s)");
        for (i, r) in recs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.ok != Some(true))
            .take(5)
        {
            println!(
                "    op #{i} {:?} status {} epoch {} probe {}",
                r.op, r.status, r.epoch, r.probe
            );
        }
    }
    let metrics: Vec<String> = out
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {{{}}}}}"#,
        recs.len(),
        metrics.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Boot and warm the stack [`SETUPS`] times, timing each; keep the
/// last. Returns the stack and each set-up's (boot, warm) seconds.
fn set_up(
    kg: &MultiModalKG,
    plan: &Plan,
    names: &NameIndex,
    model: &'static MmkgrModel,
    root: &Path,
) -> (Stack, Vec<(f64, f64)>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for b in 0..SETUPS {
        let dir = root.join(format!("boot{b}"));
        let t = Instant::now();
        let stack = Stack::boot(kg, &dir);
        let boot_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        warm(&stack, plan, names, model);
        times.push((boot_s, t.elapsed().as_secs_f64()));
        if b + 1 < SETUPS {
            stack.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        } else {
            kept = Some(stack);
        }
    }
    (kept.expect("at least one set-up"), times)
}

/// The fixed-count warm pass: `/healthz` round trips, the follower's
/// first catch-up, then the workload's warm ops.
fn warm(stack: &Stack, plan: &Plan, names: &NameIndex, model: &'static MmkgrModel) {
    for _ in 0..WARM_HEALTHZ {
        let (status, _) = mmkgr_core::serve::http::request(stack.addr, "GET", "/healthz", "")
            .expect("loopback healthz");
        assert_eq!(status, 200, "warm /healthz");
    }
    let t = Instant::now();
    while !stack.follower_rep.is_caught_up() {
        assert!(t.elapsed().as_secs() < 30, "follower never caught up");
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    // Fill the cache in-process on two threads through the registry's
    // answer pipeline (the same entries HTTP requests would insert).
    let fill = plan.fill_ops();
    std::thread::scope(|s| {
        for part in fill.chunks(fill.len().div_ceil(2).max(1)) {
            s.spawn(move || {
                for op in part {
                    let req = serde_json::from_str::<AnswerRequest>(&op.body())
                        .expect("benchmark request decodes");
                    stack.registry.answer(&req).expect("fill answer succeeds");
                }
            });
        }
    });
    let mut client = Client::new(stack, plan, names, model);
    for op in plan.warm_ops() {
        for rec in client.run(op, false) {
            assert!(
                rec.status == 200 && rec.ok != Some(false),
                "warm op {op:?} failed with status {}",
                rec.status
            );
        }
    }
}

/// Run timed ops from index 0 until the budget (`ops`, else `seconds`)
/// is spent. Returns the records and the process CPU seconds they took.
fn timed_phase(client: &mut Client, ops: Option<usize>, seconds: f64) -> (Vec<Rec>, f64) {
    let mut recs = Vec::new();
    let cpu = sys::process_cpu_s();
    let t = Instant::now();
    for i in 0.. {
        let done = match ops {
            Some(n) => i >= n,
            None => t.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
        recs.extend(client.run(client.plan.op(i), false));
    }
    (recs, sys::process_cpu_s() - cpu)
}

/// The fixed route probe after an answer-only mix: retrieves and
/// mutations (with follower lag) against an emptied frontier cache, so
/// its state never depends on how far the mix got.
fn probe(client: &mut Client, kg: &MultiModalKG) -> Vec<Rec> {
    if !client.plan.workload.has_probe() {
        return Vec::new();
    }
    flush_cache(client, kg);
    (0..3 * PROBE_CYCLES)
        .flat_map(|i| client.run(client.plan.probe_op(i), true))
        .collect()
}

/// Empty the primary's frontier cache.
fn flush_cache(client: &Client, kg: &MultiModalKG) {
    let all: Vec<EntityId> = (0..kg.num_entities() as u32).map(EntityId).collect();
    client.stack.reasoner.invalidate_entities(&all);
}

/// A row of the per-route table: label and record filter.
type Population = (&'static str, fn(&Rec) -> bool);

const POPULATIONS: [Population; 6] = [
    ("/v1/answer fresh", |r| {
        r.op.route() == Route::Answer && !r.probe && !is_repeat(r)
    }),
    ("/v1/answer repeat", |r| {
        r.op.route() == Route::Answer && !r.probe && is_repeat(r)
    }),
    ("/v1/retrieve", |r| {
        r.op.route() == Route::Retrieve && !r.probe
    }),
    ("/v1/retrieve probe", |r| {
        r.op.route() == Route::Retrieve && r.probe
    }),
    ("/v1/admin/mutate", |r| {
        r.op.route() == Route::Mutate && !r.probe
    }),
    ("/v1/admin/mutate probe", |r| {
        r.op.route() == Route::Mutate && r.probe
    }),
];

fn print_routes(recs: &[Rec], client: &Client) {
    println!("  population               n      p50_ms    p90_ms    p99_ms*   max_ms*");
    for (label, keep) in POPULATIONS {
        print_row(label, &Summary::of(&latencies(recs, keep)));
    }
    for probe in [false, true] {
        let label = if probe {
            "follower lag probe"
        } else {
            "follower lag"
        };
        print_row(label, &Summary::of(&lags(client, probe)));
    }
    println!(
        "  (* unbounded: printed, not gated) lag resolution: poll every {:.0} us (median)",
        median(&client.poll_gaps_us)
    );
}

fn print_row(what: &str, s: &Summary) {
    if s.n > 0 {
        println!(
            "  {what:<22} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            s.n, s.p50, s.p90, s.p99, s.max
        );
    }
}

fn lags(client: &Client, probe: bool) -> Vec<f64> {
    client
        .lag_ms
        .iter()
        .zip(&client.lag_probe)
        .filter(|(_, &p)| p == probe)
        .map(|(&l, _)| l)
        .collect()
}

/// The population a gated metric is taken from: one side of the
/// hit/miss boundary for answers, the mix when it has the route and the
/// probe otherwise.
fn gated(recs: &[Rec], route: Route, workload: Workload) -> Vec<f64> {
    let probe = route != Route::Answer && workload.has_probe();
    latencies(recs, |r| {
        r.op.route() == route
            && r.probe == probe
            && (route != Route::Answer || is_repeat(r) == workload.gates_repeats())
    })
}

fn untraced_run(
    args: &Args,
    client: &mut Client,
    kg: &MultiModalKG,
    setup_s: f64,
    out: &mut Vec<Metric>,
) -> Vec<Rec> {
    let (mut recs, cpu_s) = timed_phase(client, args.ops, args.seconds);
    let mix_ops = recs.len();
    recs.extend(probe(client, kg));
    // Read before the checks build their reference state.
    let peak_mb = sys::peak_rss_mb();
    let t = Instant::now();
    run::verify(
        &mut recs,
        &client.base,
        &client.applied,
        client.model,
        client.names,
    );
    println!(
        "  timed ops: {mix_ops} in the mix (+{} probe); verified in {:.2}s",
        recs.len() - mix_ops,
        t.elapsed().as_secs_f64()
    );
    print_routes(&recs, client);

    let w = args.workload;
    let p50 = |route| median(&gated(&recs, route, w));
    let lag = lags(client, w.has_probe());
    let ok = recs.iter().filter(|r| r.ok == Some(true)).count();
    metric(out, "setup_s", setup_s, "s");
    metric(out, "answer_p50_ms", p50(Route::Answer), "ms");
    metric(out, "retrieve_p50_ms", p50(Route::Retrieve), "ms");
    metric(out, "follower_lag_p50_ms", median(&lag), "ms");
    metric(out, "cpu_us_per_op", cpu_s * 1e6 / mix_ops as f64, "us");
    metric(out, "ok_frac", ok as f64 / recs.len() as f64, "ratio");
    metric(out, "peak_rss_mb", peak_mb, "MB");
    recs
}

fn traced_run(
    args: &Args,
    client: &mut Client,
    kg: &MultiModalKG,
    root: &Path,
    setups: &[(f64, f64)],
    stack_mb: f64,
    out: &mut Vec<Metric>,
) -> Vec<Rec> {
    // Every answer runs twice, untraced and traced, back to back in
    // alternating order (see `Client::run`), so host drift cancels out of
    // the overhead and the accounting.
    client.start_tracing(&root.join("scratch.wal"));
    let (mut recs, _) = timed_phase(client, args.ops, args.seconds);
    run::verify(
        &mut recs,
        &client.base,
        &client.applied,
        client.model,
        client.names,
    );
    let cache_entries = client
        .stack
        .reasoner
        .cache_stats()
        .unwrap_or_default()
        .entries;
    recs.extend(probe(client, kg));
    print_routes(&recs, client);

    // Account for each gated answer's untraced twin from independently
    // timed figures: a bare `/healthz` round trip (the wire) plus the
    // self times of the calls the server makes inside the request. What
    // is left over is reported as unaccounted.
    let tracer = client.tracer.as_ref().expect("tracing is on");
    let root = if args.workload.gates_repeats() {
        "op.answer.repeat"
    } else {
        "op.answer"
    };
    let layers = tracer.layer_self_times(root, "http.answer");
    let wire_us = tracer.child_durations_us(root, "http.healthz");
    let twin_us = tracer.child_durations_us(root, "twin.answer");
    let traced_us = tracer.child_durations_us(root, "http.answer");
    let mut accounted = Vec::new();
    let mut rows: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (id, twin) in &twin_us {
        let (Some(m), Some(wire)) = (layers.get(id), wire_us.get(id)) else {
            continue;
        };
        let sum = wire + m.values().sum::<f64>();
        accounted.push(sum / twin);
        rows.entry("serve::http").or_default().push(*wire);
        for l in ["serve::protocol", "serve::registry", "engine"] {
            rows.entry(l)
                .or_default()
                .push(m.get(l).copied().unwrap_or(0.0));
        }
        rows.entry("unaccounted").or_default().push(twin - sum);
    }
    let overhead_ms: Vec<f64> = twin_us
        .iter()
        .filter_map(|(id, twin)| Some((traced_us.get(id)? - twin) / 1e3))
        .collect();
    println!("  traced answer self times (median per op; serve::http is a /healthz round trip):");
    for l in [
        "serve::http",
        "serve::protocol",
        "serve::registry",
        "engine",
        "unaccounted",
    ] {
        let v = rows.get(l).map_or(0.0, |v| median(v));
        println!("    {l:<16} {v:>10.1} us");
    }
    println!(
        "    accounted / untraced twin's latency: median {:.3} over {} pairs; \
         tracing overhead {:+.3} ms",
        median(&accounted),
        accounted.len(),
        median(&overhead_ms)
    );
    let med = |name: &str| median(&tracer.durations_us(name));
    let per_op = |a: &str, b: &str| -> Vec<f64> {
        // Per op: duration of `a` minus that of `b` (one each per op).
        let (da, db) = (tracer.durations_us(a), tracer.durations_us(b));
        da.iter().zip(&db).map(|(x, y)| x - y).collect()
    };
    let encode: Vec<f64> = tracer
        .durations_us("protocol.encode.wire")
        .iter()
        .zip(tracer.durations_us("protocol.encode.json"))
        .map(|(w, j)| w + j)
        .collect();
    let spans_path = PathBuf::from(".servebench").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer.write(&spans_path).expect("write spans");
    println!(
        "  spans: {} written to {}",
        tracer.spans.len(),
        spans_path.display()
    );

    let c = &client.counts;
    let rep = client.stack.rep.metrics();
    let follower = client.stack.follower_rep.metrics();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    metric(out, "http.healthz_us", med("http.healthz"), "us");
    metric(
        out,
        "http.overhead_us",
        median(&per_op("http.answer", "registry.answer")),
        "us",
    );
    metric(out, "protocol.decode_us", med("protocol.decode"), "us");
    metric(out, "protocol.resolve_us", med("protocol.resolve"), "us");
    metric(out, "protocol.encode_us", median(&encode), "us");
    metric(
        out,
        "cache.hit_ratio",
        c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        "ratio",
    );
    metric(out, "cache.entries", cache_entries as f64, "count");
    metric(out, "cache.hit_us", med("cache.hit"), "us");
    metric(
        out,
        "cache.invalidated_per_mutate",
        mean(&c.invalidated),
        "count",
    );
    metric(out, "cache.invalidate_us", med("cache.invalidate"), "us");
    metric(out, "engine.answer_us", med("engine.answer"), "us");
    metric(out, "engine.lstm_step_us", med("engine.lstm_step"), "us");
    metric(
        out,
        "engine.action_probs_us",
        med("engine.action_probs"),
        "us",
    );
    metric(out, "retrieve.total_us", med("registry.retrieve"), "us");
    metric(out, "retrieve.extract_us", med("retrieve.extract"), "us");
    metric(out, "retrieve.rerank_us", med("retrieve.rerank"), "us");
    metric(out, "retrieve.entities", median(&c.entities), "count");
    metric(
        out,
        "retrieve.paths_considered",
        median(&c.paths_considered),
        "count",
    );
    metric(out, "mutation.commit_us", med("mutation.commit"), "us");
    metric(out, "wal.append_us", med("wal.append"), "us");
    metric(
        out,
        "replication.frames_shipped",
        rep.frames_shipped as f64,
        "count",
    );
    metric(
        out,
        "replication.reconnects",
        follower.reconnects as f64,
        "count",
    );
    metric(
        out,
        "setup.boot_s",
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        "s",
    );
    metric(
        out,
        "setup.warm_s",
        median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        "s",
    );
    metric(out, "setup.stack_mb", stack_mb, "MB");
    metric(out, "trace.accounted_ratio", median(&accounted), "ratio");
    metric(out, "trace.overhead_ms", median(&overhead_ms), "ms");
    recs
}
