//! Chaos tests: drive the HTTP serving stack through the fault-injection
//! harness (`mmkgr::core::serve::faults`) and prove the robustness
//! contract from the outside:
//!
//! - injected shard panics never kill the server — a failed shard
//!   yields a *degraded* answer (the exact merged top-k of the surviving
//!   shards, annotated on the wire);
//! - injected shard or retrieval latency cannot outlast a caller's
//!   `timeout_ms`: the request answers `deadline_exceeded` (504) near
//!   the deadline and the server keeps serving; the server's default
//!   deadline binds only requests that carry no `timeout_ms`;
//! - admission control sheds excess load with `overloaded` (503) and a
//!   `Retry-After` header instead of queueing without bound;
//! - stalled clients are cut off with `request_timeout` (408);
//! - injected I/O errors surface as typed snapshot errors;
//! - with no faults installed the wire bodies carry **no** degradation
//!   fields and the robustness counters stay zero — byte-compatible
//!   with the pre-fault-tolerance protocol.
//!
//! Fault plans are process-global; every test pins one via
//! [`faults::install`], whose guard also serializes the tests against
//! each other (the no-fault test installs an *empty* plan purely to
//! hold that lock).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmkgr::core::serve::http::request;
use mmkgr::core::serve::protocol::AnswerBatchResponse;
use mmkgr::core::serve::protocol::{MetricsResponse, RetrieveResponse};
use mmkgr::core::serve::{
    faults, AnswerBatchRequest, AnswerRequest, Budget, FaultPlan, HttpServer, HttpServerConfig,
    KgReasoner, ModelRegistry, NameIndex, NamedQuery, Query, RetrieveRequest, Retriever,
    RunningServer, ScorerReasoner, ShardSel, ShardedReasoner, WireAnswer,
};
use mmkgr::embed::TransE;
use mmkgr::eval::load_registry_snapshot;
use mmkgr::kg::{EntityId, KnowledgeGraph, RelationId, RelationSpace, Triple};

const N: usize = 40;
const SHARDS: usize = 4;

fn scorer() -> Arc<TransE> {
    Arc::new(TransE::new(N, RelationSpace::new(3).total(), 8, 11))
}

/// A registry with one entity-sharded TransE model over a synthetic
/// vocabulary — no training, so every test boots in milliseconds.
fn sharded_registry() -> Arc<ModelRegistry> {
    let rs = RelationSpace::new(3);
    let mut registry = ModelRegistry::new(NameIndex::synthetic(N, 3));
    registry.register(Arc::new(
        ShardedReasoner::from_scorer("TransE", scorer(), N, rs, SHARDS).expect("shards"),
    ));
    Arc::new(registry)
}

fn boot(cfg: HttpServerConfig) -> RunningServer {
    HttpServer::bind(("127.0.0.1", 0), sharded_registry(), cfg)
        .expect("bind ephemeral port")
        .spawn()
}

/// [`sharded_registry`] plus a retriever over a deterministic
/// ring-with-chords graph, so `/v1/retrieve` exercises both the k-hop
/// expansion and the sharded beam-evidence path under faults.
fn retrieval_registry() -> Arc<ModelRegistry> {
    let rs = RelationSpace::new(3);
    let n = N as u32;
    let triples: Vec<Triple> = (0..n)
        .flat_map(|i| {
            [
                Triple {
                    s: EntityId(i),
                    r: RelationId(i % 3),
                    o: EntityId((i + 1) % n),
                },
                Triple {
                    s: EntityId(i),
                    r: RelationId((i + 1) % 3),
                    o: EntityId((i + 7) % n),
                },
            ]
        })
        .collect();
    let graph = KnowledgeGraph::from_triples(N, 3, triples, None);
    let mut registry = ModelRegistry::new(NameIndex::synthetic(N, 3));
    registry.register(Arc::new(
        ShardedReasoner::from_scorer("TransE", scorer(), N, rs, SHARDS).expect("shards"),
    ));
    registry.set_retriever(Arc::new(Retriever::new(Arc::new(graph))));
    Arc::new(registry)
}

fn boot_retrieval(cfg: HttpServerConfig) -> RunningServer {
    HttpServer::bind(("127.0.0.1", 0), retrieval_registry(), cfg)
        .expect("bind ephemeral port")
        .spawn()
}

fn answer_body(timeout_ms: Option<u64>) -> String {
    let mut q = NamedQuery::new("e3", "r1").with_top_k(5);
    if let Some(ms) = timeout_ms {
        q = q.with_timeout_ms(ms);
    }
    serde_json::to_string(&AnswerRequest {
        model: None,
        query: q,
    })
    .unwrap()
}

fn metrics(addr: SocketAddr) -> MetricsResponse {
    let (status, body) = request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).unwrap()
}

/// Like [`request`] but returns the raw response head too, so tests can
/// assert on headers (`Retry-After`).
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes()).expect("write head");
    let _ = stream.write_all(body.as_bytes());
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    let mut parts = text.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or_default().to_string();
    let body = parts.next().unwrap_or_default().to_string();
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head, body)
}

#[test]
fn persistent_shard_panic_degrades_but_never_kills_the_server() {
    let dead = 2usize;
    let guard =
        faults::install(FaultPlan::new().with_shard_panic(ShardSel::One(dead), faults::ALWAYS));
    let server = boot(HttpServerConfig::default());
    let addr = server.addr();

    let (status, body) = request(addr, "POST", "/v1/answer", &answer_body(None)).unwrap();
    assert_eq!(status, 200, "a degraded answer is still an answer: {body}");
    let wire: WireAnswer = serde_json::from_str(&body).unwrap();
    assert!(wire.degraded);
    assert_eq!(wire.shards_failed, vec![dead as u64]);
    assert!(
        body.contains("\"degraded\""),
        "annotation must reach the wire"
    );

    let m = metrics(addr);
    assert!(m.robustness.degraded_answers >= 1);

    // Heal the fault: the same server immediately serves full answers
    // again, identical to an unsharded reference pass.
    drop(guard);
    let _quiet = faults::install(FaultPlan::new());
    let (status, healed) = request(addr, "POST", "/v1/answer", &answer_body(None)).unwrap();
    assert_eq!(status, 200);
    let healed: WireAnswer = serde_json::from_str(&healed).unwrap();
    assert!(!healed.degraded);
    let whole = ScorerReasoner::new("TransE", scorer(), N, RelationSpace::new(3));
    let reference = whole.answer(&Query::new(EntityId(3), RelationId(1)).with_top_k(5));
    assert_eq!(healed.ranked.len(), reference.ranked.len());
    for (w, r) in healed.ranked.iter().zip(&reference.ranked) {
        assert_eq!(w.entity, format!("e{}", r.entity.0));
    }
    server.shutdown();
}

#[test]
fn injected_latency_turns_into_a_504_and_the_server_survives() {
    let _guard = faults::install(
        FaultPlan::new().with_shard_latency(ShardSel::All, Duration::from_millis(500)),
    );
    let server = boot(HttpServerConfig::default());
    let addr = server.addr();

    let started = Instant::now();
    let (status, body) = request(addr, "POST", "/v1/answer", &answer_body(Some(50))).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"deadline_exceeded\""), "{body}");
    assert!(body.contains("\"timeout_ms\""), "{body}");
    assert!(
        started.elapsed() < Duration::from_millis(450),
        "the caller must get its 504 near the deadline, not after the \
         injected latency drains"
    );

    // The server is still alive and still counting.
    let m = metrics(addr);
    assert!(m.robustness.deadline_exceeded >= 1);
    let (status, _) = request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn the_server_default_deadline_binds_only_requests_that_set_none() {
    let _guard = faults::install(
        FaultPlan::new().with_shard_latency(ShardSel::All, Duration::from_millis(300)),
    );
    let server = boot(HttpServerConfig {
        default_timeout_ms: 100,
        ..HttpServerConfig::default()
    });
    let addr = server.addr();

    // No `timeout_ms`: the server default runs out under the latency,
    // and the 504 names the default.
    let (status, body) = request(addr, "POST", "/v1/answer", &answer_body(None)).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"timeout_ms\":100"), "{body}");

    // An explicit timeout wins, even above the default.
    let (status, body) = request(addr, "POST", "/v1/answer", &answer_body(Some(5_000))).unwrap();
    assert_eq!(status, 200, "{body}");

    // A batch with one explicit timeout runs under it, not the default.
    let batch = |explicit: Option<u64>| {
        let mut queries: Vec<NamedQuery> = (0..3)
            .map(|i| NamedQuery::new(format!("e{i}"), "r0").with_top_k(3))
            .collect();
        if let Some(ms) = explicit {
            queries[1] = queries[1].clone().with_timeout_ms(ms);
        }
        serde_json::to_string(&AnswerBatchRequest {
            model: None,
            queries,
        })
        .unwrap()
    };
    let (status, body) = request(addr, "POST", "/v1/answer_batch", &batch(Some(5_000))).unwrap();
    assert_eq!(status, 200, "{body}");
    let answered: AnswerBatchResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(answered.answers.len(), 3);
    // With no explicit timeout in it, the batch gets the default.
    let (status, body) = request(addr, "POST", "/v1/answer_batch", &batch(None)).unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"timeout_ms\":100"), "{body}");
    server.shutdown();
}

#[test]
fn overload_is_shed_with_503_and_retry_after() {
    // One connection thread, a one-deep queue, a one-request bulkhead,
    // and every shard slowed: concurrent clients must overflow.
    let _guard = faults::install(
        FaultPlan::new().with_shard_latency(ShardSel::All, Duration::from_millis(300)),
    );
    let server = boot(HttpServerConfig {
        conn_threads: 1,
        max_queue_depth: 1,
        model_inflight_limit: 1,
        retry_after_ms: 1500,
        ..HttpServerConfig::default()
    });
    let addr = server.addr();

    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || request_raw(addr, "POST", "/v1/answer", &answer_body(None)))
        })
        .collect();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for c in clients {
        let (status, head, body) = c.join().expect("client thread");
        match status {
            200 => ok += 1,
            503 => {
                shed += 1;
                assert!(body.contains("\"overloaded\""), "{body}");
                assert!(
                    head.to_ascii_lowercase().contains("retry-after: 2"),
                    "1500ms rounds up to 2s: {head}"
                );
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "admission control must not shed everything");
    assert!(shed >= 1, "six slow concurrent requests must trip shedding");
    assert!(metrics(addr).robustness.shed >= shed as u64);
    server.shutdown();
}

#[test]
fn stalled_clients_are_cut_off_with_408() {
    let _guard = faults::install(FaultPlan::new());
    let server = boot(HttpServerConfig {
        read_timeout: Duration::from_millis(200),
        ..HttpServerConfig::default()
    });
    let addr = server.addr();

    // Send headers promising a body, then stall.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/answer HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(text.contains("\"request_timeout\""), "{text}");

    // The stalled connection burned a handler slot, nothing more.
    let (status, _) = request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(metrics(addr).robustness.request_timeouts >= 1);
    server.shutdown();
}

#[test]
fn injected_io_error_fails_snapshot_load_with_the_typed_error() {
    let path = std::path::Path::new("does-not-exist.mmkg");
    let fail = |label: &str| match load_registry_snapshot(path, None, 1) {
        Err(e) => format!("{e:?}"),
        Ok(_) => panic!("{label}: load must fail"),
    };
    {
        let _guard = faults::install(FaultPlan::new().with_io_error());
        let msg = fail("fault installed");
        assert!(
            msg.contains("injected"),
            "the injected I/O error surfaces typed: {msg}"
        );
    }
    // With the plan uninstalled the same call fails for the *real*
    // reason — the hook is inert, not rewriting genuine errors.
    let _quiet = faults::install(FaultPlan::new());
    assert!(!fail("no fault").contains("injected"));
}

#[test]
fn with_faults_disabled_the_wire_is_byte_identical_to_in_process() {
    // Holds the exclusivity lock with an empty (inert) plan so no other
    // chaos test can install faults while we assert byte-identity.
    let _quiet = faults::install(FaultPlan::new());
    let server = boot(HttpServerConfig::default());
    let addr = server.addr();

    for src in [0u32, 7, 39] {
        let q = NamedQuery::new(format!("e{src}"), "r2").with_top_k(6);
        let body = serde_json::to_string(&AnswerRequest {
            model: None,
            query: q.clone(),
        })
        .unwrap();
        let (status, resp) = request(addr, "POST", "/v1/answer", &body).unwrap();
        assert_eq!(status, 200, "{resp}");
        assert!(
            !resp.contains("degraded"),
            "healthy wire has no degradation fields"
        );
        assert!(!resp.contains("shards_failed"));

        // The HTTP ranking is bit-identical to the in-process sharded
        // reasoner under an (unreachable) deadline.
        let sharded =
            ShardedReasoner::from_scorer("TransE", scorer(), N, RelationSpace::new(3), SHARDS)
                .unwrap();
        let local = sharded
            .answer_within(
                &Query::new(EntityId(src), RelationId(2)).with_top_k(6),
                Budget::from_timeout_ms(60_000),
            )
            .unwrap();
        let wire: WireAnswer = serde_json::from_str(&resp).unwrap();
        assert_eq!(wire.ranked.len(), local.ranked.len());
        for (w, l) in wire.ranked.iter().zip(&local.ranked) {
            assert_eq!(w.entity, format!("e{}", l.entity.0));
            assert_eq!(w.score, l.score);
        }
    }

    // Robustness counters: this server saw no faults, so every
    // per-server counter is still zero.
    let m = metrics(addr);
    assert_eq!(m.robustness.shed, 0);
    assert_eq!(m.robustness.deadline_exceeded, 0);
    assert_eq!(m.robustness.degraded_answers, 0);
    assert_eq!(m.robustness.request_timeouts, 0);
    server.shutdown();
}

#[test]
fn retrieve_stays_whole_while_answers_degrade_on_a_dead_shard() {
    // One shard of the answer reasoner panics on every call. `/v1/answer`
    // on that server visibly degrades — but `/v1/retrieve` walks the
    // graph, not the scorer shards, so the subgraph must come back
    // whole, byte-identical to the healthy server, with path contexts
    // still ranked. Retrieval is isolated from scorer-shard outages.
    let guard =
        faults::install(FaultPlan::new().with_shard_panic(ShardSel::One(2), faults::ALWAYS));
    let server = boot_retrieval(HttpServerConfig::default());
    let addr = server.addr();

    // The fault is live and biting this server's answer surface…
    let (status, body) = request(addr, "POST", "/v1/answer", &answer_body(None)).unwrap();
    assert_eq!(status, 200, "{body}");
    let wire: WireAnswer = serde_json::from_str(&body).unwrap();
    assert!(wire.degraded, "the dead shard must degrade answers: {body}");

    // …while retrieval on the same server is unharmed.
    let req = RetrieveRequest::new(["e3".to_string()])
        .with_hops(2)
        .with_max_paths(5);
    let body = serde_json::to_string(&req).unwrap();
    let (status, outage) = request(addr, "POST", "/v1/retrieve", &body).unwrap();
    assert_eq!(
        status, 200,
        "a dead shard must not fail retrieval: {outage}"
    );
    let wire: RetrieveResponse = serde_json::from_str(&outage).unwrap();
    assert!(!wire.subgraph.entities.is_empty(), "{outage}");
    assert!(!wire.subgraph.triples.is_empty(), "{outage}");
    assert!(!wire.paths.is_empty(), "{outage}");
    assert!(
        !outage.contains("degraded"),
        "retrieval carries no degradation annotation: {outage}"
    );

    // Heal the fault: the retrieval bytes are identical across the
    // outage — the dead shard never influenced them.
    drop(guard);
    let _quiet = faults::install(FaultPlan::new());
    let (status, healthy) = request(addr, "POST", "/v1/retrieve", &body).unwrap();
    assert_eq!(status, 200, "{healthy}");
    assert_eq!(
        outage, healthy,
        "retrieval must be byte-identical with and without the dead shard"
    );

    let (status, _) = request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn retrieve_near_deadline_budget_is_a_typed_504_and_the_server_survives() {
    // Retrieval is one uninterruptible pass (expansion + evidence +
    // rerank) enforced around by the request budget: a pass that
    // outlasts its deadline yields a typed `deadline_exceeded` — never a
    // hang, a 500, or a dead server. Injected latency at the start of
    // the pass makes it outlast a 1 ms budget however fast the build.
    let _guard = faults::install(FaultPlan::new().with_retrieve_latency(Duration::from_millis(50)));
    let server = boot_retrieval(HttpServerConfig::default());
    let addr = server.addr();

    let pass = |timeout_ms: u64| {
        let req = RetrieveRequest::new(["e3".to_string()])
            .with_hops(1)
            .with_max_paths(3)
            .with_timeout_ms(timeout_ms);
        request(
            addr,
            "POST",
            "/v1/retrieve",
            &serde_json::to_string(&req).unwrap(),
        )
        .unwrap()
    };
    // A pass under a generous budget answers.
    let (status, body) = pass(30_000);
    assert_eq!(status, 200, "{body}");

    // The same pass under a 1ms budget is a typed 504.
    let (status, body) = pass(1);
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"deadline_exceeded\""), "{body}");
    assert!(body.contains("\"timeout_ms\""), "{body}");

    let m = metrics(addr);
    assert!(m.robustness.deadline_exceeded >= 1);
    let (status, _) = request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}
