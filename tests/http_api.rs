//! End-to-end tests for the HTTP front end (`mmkgr::core::serve::http`):
//!
//! - **Parity**: `POST /v1/answer` with name-based entities returns the
//!   same ranked candidates + evidence as the in-process `KgReasoner`
//!   for the same query, for both model families; `/v1/answer_batch`
//!   and `/v1/explain` agree with their in-process pipelines.
//! - **Protocol**: unknown routes/methods/names produce the typed
//!   `ApiError` codes with the contract statuses; `/metrics` counts the
//!   traffic.
//! - **CLI smoke**: `mmkgr serve` boots a ≥2-model registry on an
//!   ephemeral port, answers over HTTP, and dies cleanly.

use std::io::BufRead;
use std::net::SocketAddr;
use std::sync::Arc;

use mmkgr::core::serve::http::request;
use mmkgr::core::serve::protocol::{AnswerBatchResponse, ExplainResponse, MetricsResponse};
use mmkgr::core::serve::{
    AnswerBatchRequest, AnswerRequest, ExplainRequest, HttpServer, HttpServerConfig, NamedQuery,
    Query, ServeConfig, WireAnswer,
};
use mmkgr::prelude::*;

const BEAM: usize = 8;
const STEPS: usize = 3;

fn quick_harness() -> Harness {
    Harness::new({
        let mut c = HarnessConfig::new(Dataset::Tiny, ScaleChoice::Quick);
        c.rl_epochs = 2;
        c.kge_epochs = 2;
        c.max_eval = 10;
        c
    })
}

fn named(t: &Triple) -> NamedQuery {
    NamedQuery::new(format!("e{}", t.s.0), format!("r{}", t.r.0))
        .with_beam(BEAM)
        .with_steps(STEPS)
}

#[test]
fn http_answers_match_in_process_reasoners() {
    let h = quick_harness();
    let registry = Arc::new(build_registry(
        &h,
        &[ModelChoice::Mmkgr(Variant::Full), ModelChoice::ConvE],
        ServeConfig {
            beam_width: BEAM,
            max_steps: STEPS,
            ..ServeConfig::default()
        },
    ));
    assert_eq!(registry.len(), 2, "acceptance: at least two named models");
    let server = HttpServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&registry),
        HttpServerConfig::default(),
    )
    .expect("bind")
    .spawn();
    let addr = server.addr();

    // --- answer parity, both families --------------------------------
    for model in ["MMKGR", "ConvE"] {
        let (_, reasoner) = registry.get(Some(model)).unwrap();
        for t in h.eval_triples.iter().take(4) {
            let body = serde_json::to_string(&AnswerRequest {
                model: Some(model.to_string()),
                query: named(t).with_top_k(7),
            })
            .unwrap();
            let (status, resp) = request(addr, "POST", "/v1/answer", &body).unwrap();
            assert_eq!(status, 200, "{resp}");
            let wire: WireAnswer = serde_json::from_str(&resp).unwrap();
            assert_eq!(wire.model, model);
            assert_eq!(wire.protocol, "v1");

            let direct = reasoner.answer(
                &Query::new(t.s, t.r)
                    .with_top_k(7)
                    .with_beam(BEAM)
                    .with_steps(STEPS),
            );
            assert_eq!(
                wire.ranked.len(),
                direct.ranked.len(),
                "{model}: HTTP and in-process rank the same candidates"
            );
            for (w, d) in wire.ranked.iter().zip(&direct.ranked) {
                assert_eq!(w.entity, format!("e{}", d.entity.0), "{model}");
                assert!((w.score - d.score).abs() < 1e-6, "{model}");
                match (&w.evidence, &d.evidence) {
                    (Some(we), Some(de)) => {
                        assert_eq!(we.hops, de.hops);
                        assert_eq!(we.path.len(), de.relations.len());
                        assert!((we.logp - de.logp).abs() < 1e-6);
                    }
                    (None, None) => {}
                    other => panic!("{model}: evidence mismatch {other:?}"),
                }
            }
        }
    }

    // --- batch parity -------------------------------------------------
    let queries: Vec<NamedQuery> = h.eval_triples.iter().take(6).map(named).collect();
    let body = serde_json::to_string(&AnswerBatchRequest {
        model: None,
        queries: queries.clone(),
    })
    .unwrap();
    let (status, resp) = request(addr, "POST", "/v1/answer_batch", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let batch: AnswerBatchResponse = serde_json::from_str(&resp).unwrap();
    assert_eq!(batch.answers.len(), queries.len());
    for (q, got) in queries.iter().zip(&batch.answers) {
        let one = registry.answer_named(q.clone()).unwrap();
        assert_eq!(*got, one, "batch equals single-answer pipeline");
    }

    // --- explain parity ----------------------------------------------
    let t = h.eval_triples[0];
    let body = serde_json::to_string(&ExplainRequest {
        model: None,
        query: named(&t).with_top_k(5),
    })
    .unwrap();
    let (status, resp) = request(addr, "POST", "/v1/explain", &body).unwrap();
    assert_eq!(status, 200, "{resp}");
    let explain: ExplainResponse = serde_json::from_str(&resp).unwrap();
    let (_, reasoner) = registry.get(Some("MMKGR")).unwrap();
    let direct = reasoner
        .explain(
            &Query::new(t.s, t.r)
                .with_top_k(5)
                .with_beam(BEAM)
                .with_steps(STEPS),
        )
        .unwrap();
    assert_eq!(explain.paths.len(), direct.len());
    for (w, d) in explain.paths.iter().zip(&direct) {
        assert_eq!(w.entity, format!("e{}", d.entity.0));
        assert!((w.logp - d.logp).abs() < 1e-6);
        assert_eq!(w.hops, d.hops);
        assert_eq!(w.path.len(), d.relations.len());
    }

    // --- protocol failure modes --------------------------------------
    let (status, resp) = request(addr, "POST", "/v1/answer", "{oops").unwrap();
    assert_eq!(status, 400);
    assert!(resp.contains("malformed_request"), "{resp}");
    let (status, resp) = request(addr, "DELETE", "/v1/answer", "").unwrap();
    assert_eq!(status, 405);
    assert!(resp.contains("method_not_allowed"), "{resp}");
    let (status, resp) = request(addr, "GET", "/v1/nope", "").unwrap();
    assert_eq!(status, 404);
    assert!(resp.contains("unknown_route"), "{resp}");

    // --- metrics observed the traffic --------------------------------
    let (status, resp) = request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let metrics: MetricsResponse = serde_json::from_str(&resp).unwrap();
    let answer_row = metrics
        .routes
        .iter()
        .find(|r| r.route == "/v1/answer")
        .unwrap();
    assert!(answer_row.requests >= 9, "{answer_row:?}");
    assert!(answer_row.latency_ns_total > 0);
    assert_eq!(metrics.models.len(), 2);

    server.shutdown();
    assert!(
        request(addr, "GET", "/healthz", "").is_err(),
        "port must stop answering after shutdown"
    );
}

#[test]
fn cli_serve_smoke() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_mmkgr"))
        .args([
            "serve",
            "--dataset",
            "tiny",
            "--size",
            "quick",
            "--models",
            "MMKGR,ConvE",
            "--port",
            "0",
            "--rl-epochs",
            "1",
            "--kge-epochs",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("mmkgr serve spawns");

    // Watchdog: never let a wedged server hang the test harness.
    let pid = child.id();
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(300));
        let _ = Command::new("kill").arg(pid.to_string()).status();
    });

    let stdout = child.stdout.take().expect("piped stdout");
    let mut addr: Option<SocketAddr> = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let line = line.expect("server stdout line");
        if let Some(rest) = line.strip_prefix("listening on http://") {
            addr = Some(rest.trim().parse().expect("addr parses"));
            break;
        }
    }
    let addr = addr.expect("server printed its address");

    let (status, body) = request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    let (status, body) = request(addr, "GET", "/v1/models", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("\"MMKGR\"") && body.contains("\"ConvE\""),
        "{body}"
    );

    let (status, body) = request(
        addr,
        "POST",
        "/v1/answer",
        r#"{"query": {"source": "e0", "relation": "r0", "beam": 4, "steps": 2}}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let answer: WireAnswer = serde_json::from_str(&body).unwrap();
    assert_eq!(answer.model, "MMKGR");

    // Name-resolution errors surface over the CLI-booted server too.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/answer",
        r#"{"query": {"source": "not-an-entity", "relation": "r0"}}"#,
    )
    .unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("unknown_entity"), "{body}");

    child.kill().expect("kill server");
    let _ = child.wait();
}
