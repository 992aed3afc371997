//! HTTP serving throughput: the `"http"` section of `BENCH_serve.json`.
//!
//! Boots the real [`HttpServer`] (registry → protocol → `std::net`
//! stack) on an ephemeral port and drives it with closed-loop client
//! threads issuing one request per connection (the server is
//! `Connection: close`), so the numbers include connection setup, HTTP
//! parsing, JSON (de)serialization, and name resolution — the full
//! remote-serving overhead on top of the in-process engine numbers that
//! `bench_serve` records.
//!
//! Scenarios:
//!
//! - `healthz_rps` — protocol floor: accept + parse + tiny JSON body.
//! - `answer` at 1/2/4 client threads — `POST /v1/answer` over distinct
//!   queries (beam 8, T=3, cache off ⇒ every request runs the engine).
//! - `answer_cached_qps` — same route on a cache-enabled model, hot:
//!   isolates the wire overhead (the engine is out of the loop).
//! - `answer_batch_qps` — the whole query set as one
//!   `POST /v1/answer_batch`, fanned out on the server's worker pool.
//! - `retrieve` at 1/2/4 client threads — `POST /v1/retrieve` k-hop
//!   subgraph + ranked-path-context extraction (the `"retrieve"`
//!   section of `BENCH_serve.json`).
//! - mutation churn — a writer thread sustains single-triple
//!   insert/delete batches through `POST /v1/admin/mutate` (one WAL
//!   fsync per batch) while two query clients keep reading; records the
//!   apply p50/p99, the sustained batch rate, and the query p50/p99
//!   *under churn* (the `"mutation"` section). Epoch-versioned reads
//!   mean the readers never block on the writer — the query tail under
//!   churn should sit near the unchurned `answer` numbers.
//!
//! Usage: `cargo run --release -p mmkgr-bench --bin bench_http`
//! (run `bench_serve` first; this merges `"http"` and `"retrieve"` into
//! its `BENCH_serve.json` in the current directory, creating the file if
//! it is missing).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mmkgr_core::prelude::*;
use mmkgr_core::serve::http::request;
use mmkgr_core::serve::{
    HttpServer, HttpServerConfig, ModelRegistry, NameIndex, NamedQuery, PolicyReasoner,
    ReplicaSource, ReplicationState, RunningServer, ServeConfig,
};
use mmkgr_datagen::{generate, GenConfig};
use serde::Serialize;

#[derive(Serialize)]
struct AnswerLoad {
    clients: usize,
    requests: usize,
    qps: f64,
}

#[derive(Serialize)]
struct HttpBench {
    dataset: String,
    machine: String,
    commit: String,
    conn_threads: usize,
    pool_workers: usize,
    beam: usize,
    steps: usize,
    healthz_rps: f64,
    answer: Vec<AnswerLoad>,
    answer_cached_qps: f64,
    answer_batch_qps: f64,
    /// Non-200 responses across every closed-loop scenario (load
    /// shedding is healthy behavior, so 503s are tallied separately).
    requests_total: usize,
    errors_total: usize,
    shed_total: usize,
    error_rate: f64,
    shed_rate: f64,
}

#[derive(Serialize)]
struct RetrieveBench {
    dataset: String,
    machine: String,
    commit: String,
    hops: usize,
    max_entities: usize,
    max_paths: usize,
    diversity: f64,
    retrieve: Vec<AnswerLoad>,
    requests_total: usize,
    errors_total: usize,
    shed_total: usize,
}

#[derive(Serialize)]
struct MutationBench {
    dataset: String,
    machine: String,
    commit: String,
    /// Single-op batches committed (one WAL fsync each).
    batches: usize,
    applied: u64,
    final_epoch: u64,
    /// Sustained mutation commit rate, fsync included.
    apply_per_s: f64,
    apply_p50_us: f64,
    apply_p99_us: f64,
    /// Concurrent `/v1/answer` load while the writer churns.
    query_clients: usize,
    query_qps_under_churn: f64,
    query_p50_us: f64,
    query_p99_us: f64,
    query_errors: usize,
}

#[derive(Serialize)]
struct ReplicationBench {
    dataset: String,
    machine: String,
    commit: String,
    /// Single-op batches committed on the primary during the lag run.
    churn_batches: usize,
    churn_batches_per_s: f64,
    /// Commit-to-follower-apply latency, sampled per frame (~0.5 ms
    /// polling resolution).
    lag_p50_ms: f64,
    lag_p99_ms: f64,
    lag_max_ms: f64,
    frames_shipped: u64,
    reconnects: u64,
    /// Closed-loop `/v1/answer` clients in the read-scaling runs.
    read_clients: usize,
    single_node_qps: f64,
    two_replica_qps: f64,
    read_speedup: f64,
}

/// Outcome of one closed-loop run: throughput plus the response mix.
struct LoopResult {
    qps: f64,
    ok: usize,
    shed: usize,
    errors: usize,
}

/// `p` in `[0, 1]` over an unsorted sample (sorted in place).
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((samples.len() - 1) as f64 * p).round() as usize;
    samples[idx]
}

/// Like [`boot`] but with a [`LiveGraphStore`] wired through the
/// reasoner, the retriever, and the registry — the `serve --live`
/// configuration, minus the snapshot file.
///
/// [`LiveGraphStore`]: mmkgr_core::serve::LiveGraphStore
fn boot_live(
    kg: &mmkgr_kg::MultiModalKG,
    wal: &std::path::Path,
    cache: usize,
    replication: Option<Arc<ReplicationState>>,
) -> (
    RunningServer,
    Arc<mmkgr_core::serve::LiveGraphStore>,
    Arc<ModelRegistry>,
) {
    let base = Arc::new(kg.graph.clone());
    let live = Arc::new(mmkgr_core::serve::LiveGraphStore::open(base, wal, 0).expect("wal opens"));
    let handle = live.handle();
    let model = MmkgrModel::new(kg, MmkgrConfig::quick(), None);
    let mut registry = ModelRegistry::new(NameIndex::synthetic(
        kg.num_entities(),
        kg.num_base_relations(),
    ));
    registry.register(Arc::new(
        PolicyReasoner::try_new_live(
            "MMKGR",
            model,
            handle.clone(),
            ServeConfig::default().with_cache(cache),
        )
        .expect("serve config"),
    ));
    registry.set_retriever(Arc::new(mmkgr_core::serve::Retriever::new_live(handle)));
    registry.set_live(Arc::clone(&live));
    if let Some(rep) = replication {
        registry.set_replication(rep);
    }
    let registry = Arc::new(registry);
    let server = HttpServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&registry),
        HttpServerConfig {
            conn_threads: 4,
            pool_workers: 2,
            ..HttpServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn();
    (server, live, registry)
}

fn boot(kg: &mmkgr_kg::MultiModalKG, cache: usize) -> RunningServer {
    let model = MmkgrModel::new(kg, MmkgrConfig::quick(), None);
    let mut registry = ModelRegistry::new(NameIndex::synthetic(
        kg.num_entities(),
        kg.num_base_relations(),
    ));
    registry.register(Arc::new(PolicyReasoner::new(
        "MMKGR",
        model,
        Arc::new(kg.graph.clone()),
        ServeConfig::default().with_cache(cache),
    )));
    registry.set_retriever(Arc::new(mmkgr_core::serve::Retriever::new(Arc::new(
        kg.graph.clone(),
    ))));
    HttpServer::bind(
        ("127.0.0.1", 0),
        Arc::new(registry),
        HttpServerConfig {
            conn_threads: 4,
            pool_workers: 2,
            ..HttpServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
    .spawn()
}

/// Fire `per_client` requests from each of `clients` threads, round-robin
/// over `bodies` (one connection per request), and return aggregate q/s
/// plus the ok/shed/error response mix. Benchmarks keep running through
/// non-200s — under deliberate overload a 503 is the server working as
/// designed, and the rates land in `BENCH_serve.json`.
fn closed_loop(
    addr: SocketAddr,
    method: &'static str,
    path: &'static str,
    bodies: Arc<Vec<String>>,
    clients: usize,
    per_client: usize,
) -> LoopResult {
    closed_loop_multi(&[addr], method, path, bodies, clients, per_client)
}

/// [`closed_loop`] over several replicas: client `c` pins itself to
/// `addrs[c % addrs.len()]`, so a 2-address run splits the closed-loop
/// load evenly across a primary/follower pair.
fn closed_loop_multi(
    addrs: &[SocketAddr],
    method: &'static str,
    path: &'static str,
    bodies: Arc<Vec<String>>,
    clients: usize,
    per_client: usize,
) -> LoopResult {
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            let addr = addrs[c % addrs.len()];
            std::thread::spawn(move || {
                let (mut ok, mut shed, mut errors) = (0usize, 0usize, 0usize);
                for i in 0..per_client {
                    let body = &bodies[(c + i * clients) % bodies.len()];
                    let (status, _resp) =
                        request(addr, method, path, body).expect("request succeeds");
                    match status {
                        200 => ok += 1,
                        503 => shed += 1,
                        _ => errors += 1,
                    }
                }
                (ok, shed, errors)
            })
        })
        .collect();
    let (mut ok, mut shed, mut errors) = (0, 0, 0);
    for h in handles {
        let (o, s, e) = h.join().expect("client thread");
        ok += o;
        shed += s;
        errors += e;
    }
    LoopResult {
        qps: (clients * per_client) as f64 / start.elapsed().as_secs_f64(),
        ok,
        shed,
        errors,
    }
}

fn main() {
    let kg = generate(&GenConfig::tiny());
    let queries: Vec<NamedQuery> = kg
        .split
        .test
        .iter()
        .chain(kg.split.valid.iter())
        .map(|t| {
            NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
                .with_top_k(5)
                .with_beam(8)
                .with_steps(3)
        })
        .collect();
    let bodies: Arc<Vec<String>> = Arc::new(
        queries
            .iter()
            .map(|q| {
                format!(
                    r#"{{"query": {}}}"#,
                    serde_json::to_string(q).expect("query serializes")
                )
            })
            .collect(),
    );
    let empty = Arc::new(vec![String::new()]);

    println!("HTTP serving bench (tiny dataset, untrained quick model)");
    let server = boot(&kg, 0);
    let addr = server.addr();

    let (mut requests_total, mut shed_total, mut errors_total) = (0usize, 0usize, 0usize);
    let mut tally = |r: LoopResult| -> f64 {
        requests_total += r.ok + r.shed + r.errors;
        shed_total += r.shed;
        errors_total += r.errors;
        r.qps
    };

    // Warm: listener threads, beam engines, client path.
    closed_loop(addr, "POST", "/v1/answer", Arc::clone(&bodies), 2, 50);
    let healthz_rps = tally(closed_loop(
        addr,
        "GET",
        "/healthz",
        Arc::clone(&empty),
        4,
        400,
    ));
    println!("  GET /healthz: {healthz_rps:.0} req/s (4 clients)");

    let mut answer = Vec::new();
    for clients in [1, 2, 4] {
        let per_client = 600 / clients;
        let qps = tally(closed_loop(
            addr,
            "POST",
            "/v1/answer",
            Arc::clone(&bodies),
            clients,
            per_client,
        ));
        println!("  POST /v1/answer: {qps:.0} q/s ({clients} client(s), cache off)");
        answer.push(AnswerLoad {
            clients,
            requests: clients * per_client,
            qps,
        });
    }

    // One big batch over the worker pool.
    let batch_body = format!(
        r#"{{"queries": [{}]}}"#,
        queries
            .iter()
            .map(|q| serde_json::to_string(q).expect("query serializes"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let (status, _) = request(addr, "POST", "/v1/answer_batch", &batch_body).unwrap();
    assert_eq!(status, 200);
    let t = Instant::now();
    let rounds = 20;
    for _ in 0..rounds {
        let (status, _) = request(addr, "POST", "/v1/answer_batch", &batch_body).unwrap();
        assert_eq!(status, 200);
    }
    let answer_batch_qps = (rounds * queries.len()) as f64 / t.elapsed().as_secs_f64();
    println!(
        "  POST /v1/answer_batch: {answer_batch_qps:.0} q/s ({} queries/call)",
        queries.len()
    );

    // KG-RAG retrieval: 2-hop subgraph + MMR-ranked path contexts per
    // request, seeded round-robin over the eval queries. Tallied into
    // its own section so retrieval load doesn't skew the answer mix.
    let (hops, max_entities, max_paths, diversity) = (2usize, 64usize, 8usize, 0.25f64);
    let retrieve_bodies: Arc<Vec<String>> = Arc::new(
        kg.split
            .test
            .iter()
            .map(|t| {
                format!(
                    r#"{{"seeds": ["e{}"], "relation": "r{}", "hops": {hops}, "max_entities": {max_entities}, "max_paths": {max_paths}, "diversity": {diversity}}}"#,
                    t.s.0, t.r.0
                )
            })
            .collect(),
    );
    let (mut r_requests, mut r_shed, mut r_errors) = (0usize, 0usize, 0usize);
    let mut retrieve = Vec::new();
    for clients in [1, 2, 4] {
        let per_client = 400 / clients;
        let r = closed_loop(
            addr,
            "POST",
            "/v1/retrieve",
            Arc::clone(&retrieve_bodies),
            clients,
            per_client,
        );
        r_requests += r.ok + r.shed + r.errors;
        r_shed += r.shed;
        r_errors += r.errors;
        println!(
            "  POST /v1/retrieve: {:.0} q/s ({clients} client(s))",
            r.qps
        );
        retrieve.push(AnswerLoad {
            clients,
            requests: clients * per_client,
            qps: r.qps,
        });
    }
    server.shutdown();

    // Cached serving: every request after the warm pass is a frontier
    // cache hit — what remains is pure wire + resolution overhead.
    let server = boot(&kg, 4096);
    let addr = server.addr();
    closed_loop(
        addr,
        "POST",
        "/v1/answer",
        Arc::clone(&bodies),
        2,
        bodies.len(),
    );
    let answer_cached_qps = tally(closed_loop(
        addr,
        "POST",
        "/v1/answer",
        Arc::clone(&bodies),
        4,
        300,
    ));
    println!("  POST /v1/answer: {answer_cached_qps:.0} q/s (4 clients, cache hot)");
    server.shutdown();

    // Mutation churn: one writer committing single-op batches (WAL
    // fsync each) flat-out, two query clients reading throughout.
    let wal = std::env::temp_dir().join(format!("mmkgr_bench_http_{}.wal", std::process::id()));
    std::fs::remove_file(&wal).ok();
    let (server, live, _registry) = boot_live(&kg, &wal, 1024, None);
    let addr = server.addr();
    closed_loop(addr, "POST", "/v1/answer", Arc::clone(&bodies), 2, 50);

    let n = kg.num_entities();
    let batches = 300usize;
    let query_clients = 2usize;
    // Batch 2k inserts a churn triple, batch 2k+1 deletes it again, so
    // the graph stays bounded while every batch does real work.
    let churn_triple = move |i: usize| (i % n, i % 3, (i * 7 + 13) % n);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn_started = Instant::now();
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut lat_us = Vec::with_capacity(batches);
            for i in 0..batches {
                let (key, body) = if i % 2 == 0 {
                    (i, "insert")
                } else {
                    (i - 1, "delete")
                };
                let (s, r, o) = churn_triple(key);
                let body = format!(r#"{{"{body}": [{{"s": "e{s}", "r": "r{r}", "o": "e{o}"}}]}}"#);
                let t = Instant::now();
                let (status, resp) =
                    request(addr, "POST", "/v1/admin/mutate", &body).expect("mutate request");
                lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                assert_eq!(status, 200, "{resp}");
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
            lat_us
        })
    };
    let readers: Vec<_> = (0..query_clients)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut lat_us = Vec::new();
                let mut errors = 0usize;
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let body = &bodies[(c + i * query_clients) % bodies.len()];
                    i += 1;
                    let t = Instant::now();
                    let (status, _) =
                        request(addr, "POST", "/v1/answer", body).expect("answer request");
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if status != 200 {
                        errors += 1;
                    }
                }
                (lat_us, errors)
            })
        })
        .collect();
    let mut apply_lat = writer.join().expect("writer thread");
    let churn_elapsed = churn_started.elapsed().as_secs_f64();
    let mut query_lat = Vec::new();
    let mut query_errors = 0usize;
    for r in readers {
        let (lat, errs) = r.join().expect("reader thread");
        query_lat.extend(lat);
        query_errors += errs;
    }
    let m = live.metrics();
    let mutation = MutationBench {
        dataset: "tiny".into(),
        machine: String::new(), // stamped below
        commit: String::new(),
        batches,
        applied: m.applied,
        final_epoch: m.epoch,
        apply_per_s: batches as f64 / churn_elapsed,
        apply_p50_us: percentile(&mut apply_lat, 0.50),
        apply_p99_us: percentile(&mut apply_lat, 0.99),
        query_clients,
        query_qps_under_churn: query_lat.len() as f64 / churn_elapsed,
        query_p50_us: percentile(&mut query_lat, 0.50),
        query_p99_us: percentile(&mut query_lat, 0.99),
        query_errors,
    };
    println!(
        "  POST /v1/admin/mutate: {:.0} batches/s (apply p50 {:.0}us p99 {:.0}us); \
         queries under churn: {:.0} q/s (p50 {:.0}us p99 {:.0}us, {} errors)",
        mutation.apply_per_s,
        mutation.apply_p50_us,
        mutation.apply_p99_us,
        mutation.query_qps_under_churn,
        mutation.query_p50_us,
        mutation.query_p99_us,
        query_errors,
    );
    server.shutdown();
    std::fs::remove_file(&wal).ok();

    // WAL-shipping replication: a primary and a follower in one
    // process, the follower tailing committed frames over the real
    // HTTP surface. Measures read scaling across the pair (closed-loop
    // clients pinned per replica) and commit-ack → follower-apply lag
    // under flat-out single-op churn (~0.5 ms sampling resolution).
    let wal_p = std::env::temp_dir().join(format!("mmkgr_bench_repl_{}_p.wal", std::process::id()));
    let wal_f = std::env::temp_dir().join(format!("mmkgr_bench_repl_{}_f.wal", std::process::id()));
    std::fs::remove_file(&wal_p).ok();
    std::fs::remove_file(&wal_f).ok();
    let rep_p = Arc::new(ReplicationState::primary(ReplicaSource {
        snapshot: wal_p.with_extension("mmkg"), // tail-only: never fetched
        wal: wal_p.clone(),
    }));
    let (primary, live_p, _reg_p) = boot_live(&kg, &wal_p, 1024, Some(Arc::clone(&rep_p)));
    let addr_p = primary.addr();
    let rep_f = Arc::new(ReplicationState::follower(
        addr_p.to_string(),
        ReplicaSource {
            snapshot: wal_f.with_extension("mmkg"),
            wal: wal_f.clone(),
        },
    ));
    let (follower, live_f, reg_f) = boot_live(&kg, &wal_f, 1024, Some(Arc::clone(&rep_f)));
    let addr_f = follower.addr();
    {
        let reg = Arc::clone(&reg_f);
        let rep = Arc::clone(&rep_f);
        std::thread::spawn(move || mmkgr_core::serve::replication::run_tailer(reg, rep));
    }

    // Read scaling on a quiet pair: the same closed-loop client count
    // against the primary alone, then split across both replicas.
    closed_loop(addr_p, "POST", "/v1/answer", Arc::clone(&bodies), 2, 50);
    closed_loop(addr_f, "POST", "/v1/answer", Arc::clone(&bodies), 2, 50);
    let read_clients = 4usize;
    let single_node_qps = closed_loop(
        addr_p,
        "POST",
        "/v1/answer",
        Arc::clone(&bodies),
        read_clients,
        150,
    )
    .qps;
    let two_replica_qps = closed_loop_multi(
        &[addr_p, addr_f],
        "POST",
        "/v1/answer",
        Arc::clone(&bodies),
        read_clients,
        150,
    )
    .qps;
    println!(
        "  read scaling ({read_clients} clients): single {single_node_qps:.0} q/s -> \
         2 replicas {two_replica_qps:.0} q/s ({:.2}x)",
        two_replica_qps / single_node_qps.max(1e-9)
    );

    // Lag under churn: commit times recorded at mutate-ack, follower
    // applies observed by polling its committed watermark.
    let churn_batches = 600usize;
    let sampler = {
        let live_f = Arc::clone(&live_f);
        std::thread::spawn(move || {
            let mut seen = 0u64;
            let mut transitions: Vec<(u64, Instant)> = Vec::new();
            let deadline = Instant::now() + std::time::Duration::from_secs(120);
            while seen < churn_batches as u64 && Instant::now() < deadline {
                let f = live_f.committed_seq();
                if f > seen {
                    transitions.push((f, Instant::now()));
                    seen = f;
                }
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            transitions
        })
    };
    let mut commit_times = Vec::with_capacity(churn_batches);
    let repl_churn_started = Instant::now();
    for i in 0..churn_batches {
        let (key, op) = if i % 2 == 0 {
            (i, "insert")
        } else {
            (i - 1, "delete")
        };
        let (s, r, o) = churn_triple(key);
        let body = format!(r#"{{"{op}": [{{"s": "e{s}", "r": "r{r}", "o": "e{o}"}}]}}"#);
        let (status, resp) = request(addr_p, "POST", "/v1/admin/mutate", &body).expect("mutate");
        assert_eq!(status, 200, "{resp}");
        commit_times.push(Instant::now());
    }
    let repl_churn_elapsed = repl_churn_started.elapsed().as_secs_f64();
    assert_eq!(live_p.committed_seq(), churn_batches as u64);
    let transitions = sampler.join().expect("lag sampler");
    let mut lag_ms = Vec::with_capacity(churn_batches);
    let mut prev = 0u64;
    for (f, observed) in transitions {
        for s in prev..f {
            if let Some(committed) = commit_times.get(s as usize) {
                lag_ms.push(observed.saturating_duration_since(*committed).as_secs_f64() * 1e3);
            }
        }
        prev = f;
    }
    let replication = ReplicationBench {
        dataset: "tiny".into(),
        machine: String::new(), // stamped below
        commit: String::new(),
        churn_batches,
        churn_batches_per_s: churn_batches as f64 / repl_churn_elapsed,
        lag_p50_ms: percentile(&mut lag_ms, 0.50),
        lag_p99_ms: percentile(&mut lag_ms, 0.99),
        lag_max_ms: lag_ms.iter().copied().fold(0.0, f64::max),
        frames_shipped: rep_p.metrics().frames_shipped,
        reconnects: rep_f.metrics().reconnects,
        read_clients,
        single_node_qps,
        two_replica_qps,
        read_speedup: two_replica_qps / single_node_qps.max(1e-9),
    };
    println!(
        "  replication: {:.0} batches/s churn, follower lag p50 {:.2}ms p99 {:.2}ms \
         (max {:.2}ms), {} frames shipped",
        replication.churn_batches_per_s,
        replication.lag_p50_ms,
        replication.lag_p99_ms,
        replication.lag_max_ms,
        replication.frames_shipped,
    );
    rep_f.promote(); // unblocks the tailer loop so the process can exit
    primary.shutdown();
    follower.shutdown();
    std::fs::remove_file(&wal_p).ok();
    std::fs::remove_file(&wal_f).ok();

    let stamp = mmkgr_bench::RunStamp::capture();
    let http = HttpBench {
        dataset: "tiny".into(),
        machine: stamp.machine,
        commit: stamp.commit,
        conn_threads: 4,
        pool_workers: 2,
        beam: 8,
        steps: 3,
        healthz_rps,
        answer,
        answer_cached_qps,
        answer_batch_qps,
        requests_total,
        errors_total,
        shed_total,
        error_rate: errors_total as f64 / requests_total.max(1) as f64,
        shed_rate: shed_total as f64 / requests_total.max(1) as f64,
    };
    println!("  response mix: {requests_total} requests, {errors_total} errors, {shed_total} shed");

    let retrieve_section = RetrieveBench {
        dataset: "tiny".into(),
        machine: http.machine.clone(),
        commit: http.commit.clone(),
        hops,
        max_entities,
        max_paths,
        diversity,
        retrieve,
        requests_total: r_requests,
        errors_total: r_errors,
        shed_total: r_shed,
    };

    let mutation = MutationBench {
        machine: http.machine.clone(),
        commit: http.commit.clone(),
        ..mutation
    };

    let replication = ReplicationBench {
        machine: http.machine.clone(),
        commit: http.commit.clone(),
        ..replication
    };

    mmkgr_bench::merge_bench_section("BENCH_serve.json", "http", http.serialize_value());
    mmkgr_bench::merge_bench_section(
        "BENCH_serve.json",
        "retrieve",
        retrieve_section.serialize_value(),
    );
    mmkgr_bench::merge_bench_section("BENCH_serve.json", "mutation", mutation.serialize_value());
    mmkgr_bench::merge_bench_section(
        "BENCH_serve.json",
        "replication",
        replication.serialize_value(),
    );
}
