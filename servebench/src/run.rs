//! The single closed-loop client: issues a workload's ops against the
//! stack, times them from the client side, and checks every response.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mmkgr_core::serve::http::request;
use mmkgr_core::serve::protocol::{ApiResponse, MutateResponse};
use mmkgr_core::serve::retrieve::mmr_rerank;
use mmkgr_core::serve::{
    Answer, AnswerRequest, KgReasoner, ModelRegistry, NameIndex, PolicyReasoner, RetrieveRequest,
    RetrieveResponse, RetrieveSpec, Retriever, ServeConfig, WireAnswer,
};
use mmkgr_core::{MmkgrConfig, MmkgrModel};
use mmkgr_kg::{
    extract, EntityId, KnowledgeGraph, RelationId, SubgraphConfig, Triple, TripleOp, WalWriter,
};

use crate::ops::{
    Op, Plan, RETRIEVE_DIVERSITY, RETRIEVE_HOPS, RETRIEVE_MAX_ENTITIES, RETRIEVE_MAX_PATHS,
};
use crate::stack::{Stack, MODEL};
use crate::trace::{SpanId, Tracer};

/// Period of the primary's WAL ship poll (`SHIP_POLL` in
/// `serve::replication`). Mutations arrive at evenly spread phases of
/// one period after the previous frame reached the follower, so the lag
/// median samples the poll wait uniformly instead of at whatever phase
/// the op mix happens to lock onto.
const SHIP_POLL_MS: f64 = 10.0;
/// Follower watermark polling interval while a mutation is in flight.
const LAG_POLL: Duration = Duration::from_micros(200);
/// Give up on a mutation reaching the follower after this long.
const LAG_TIMEOUT: Duration = Duration::from_secs(5);
/// Give up on a replicated mutation becoming visible on the follower
/// after its watermark passed it.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(1);

/// One timed op as the client saw it.
pub struct Rec {
    pub op: Op,
    pub latency_ms: f64,
    pub status: u16,
    /// Hash of the response body, checked against the reference's.
    pub body_hash: u64,
    /// Mutations applied before the op: the graph epoch it was served
    /// from is [`Client::base`] plus the first `epoch` of
    /// [`Client::applied`].
    pub epoch: usize,
    /// Whether the op ran in the route probe rather than the mix.
    pub probe: bool,
    /// Inline verdict (mutations are checked against the follower as
    /// soon as they replicate); reads are checked afterwards.
    pub ok: Option<bool>,
}

/// The cache-off reference stack of the traced run: a reasoner and a
/// registry over the primary's graph handle, plus a scratch WAL.
struct TracedRefs {
    reasoner: Arc<PolicyReasoner<&'static MmkgrModel>>,
    registry: ModelRegistry,
    wal: WalWriter,
    /// Reference answers for hits, by (op, epoch).
    hit_refs: HashMap<(Op, usize), Answer>,
}

/// Counters and samples the traced run collects beside its spans.
#[derive(Default)]
pub struct TraceCounts {
    pub hits: u64,
    pub misses: u64,
    pub invalidated: Vec<f64>,
    pub entities: Vec<f64>,
    pub paths_considered: Vec<f64>,
}

pub struct Client<'a> {
    pub stack: &'a Stack,
    pub plan: &'a Plan,
    pub names: &'a NameIndex,
    pub model: &'static MmkgrModel,
    /// The graph the timed ops start from.
    pub base: Arc<KnowledgeGraph>,
    /// Every committed mutation since, in publish order. Epochs are
    /// rebuilt from these for the checks rather than pinned, so old
    /// epochs are released (and freed on the write path) as in serving.
    pub applied: Vec<TripleOp>,
    pub lag_ms: Vec<f64>,
    pub lag_probe: Vec<bool>,
    pub poll_gaps_us: Vec<f64>,
    last_seen: Option<Instant>,
    pub tracer: Option<Tracer>,
    pub counts: TraceCounts,
    traced: Option<TracedRefs>,
    /// Ops run since tracing started (their span op ids).
    next_op_id: u64,
}

impl<'a> Client<'a> {
    pub fn new(
        stack: &'a Stack,
        plan: &'a Plan,
        names: &'a NameIndex,
        model: &'static MmkgrModel,
    ) -> Client<'a> {
        Client {
            stack,
            plan,
            names,
            model,
            base: stack.live.pin(),
            applied: Vec::new(),
            lag_ms: Vec::new(),
            lag_probe: Vec::new(),
            poll_gaps_us: Vec::new(),
            last_seen: None,
            tracer: None,
            counts: TraceCounts::default(),
            traced: None,
            next_op_id: 0,
        }
    }

    /// Switch to traced execution; `wal` is a scratch WAL beside the
    /// primary's for timing bare appends.
    pub fn start_tracing(&mut self, wal: &std::path::Path) {
        let reasoner = Arc::new(
            PolicyReasoner::try_new_live(
                MODEL,
                self.model,
                self.stack.live.handle(),
                ServeConfig::default(),
            )
            .expect("valid serve config"),
        );
        let mut registry = ModelRegistry::new(self.names.clone());
        registry.register(Arc::clone(&reasoner) as Arc<dyn KgReasoner + Send + Sync>);
        self.tracer = Some(Tracer::new());
        self.traced = Some(TracedRefs {
            reasoner,
            registry,
            wal: WalWriter::open(wal).expect("open scratch WAL").0,
            hit_refs: HashMap::new(),
        });
    }

    fn addr(&self) -> SocketAddr {
        self.stack.addr
    }

    /// Issue one op and record it. When tracing is on, an answer runs
    /// twice, untraced and traced, back to back and in alternating order
    /// (the second copy of a fresh key misses again after its entry is
    /// dropped); both copies are recorded. Other ops run traced once.
    pub fn run(&mut self, op: Op, probe: bool) -> Vec<Rec> {
        if let Op::Mutate { .. } = op {
            self.pace_mutation();
        }
        if self.tracer.is_none() {
            return vec![self.run_plain(op, probe)];
        }
        let id = self.next_op_id;
        self.next_op_id += 1;
        let Op::Answer {
            source,
            relation,
            repeat,
        } = op
        else {
            return vec![self.run_traced(id, op, probe)];
        };
        // Both copies are children of the op's root span; the untraced
        // one is timed whole as `twin.answer`.
        let root_name = if repeat {
            "op.answer.repeat"
        } else {
            "op.answer"
        };
        let root = self.tr().begin(id, None, root_name);
        let mut copies = Vec::with_capacity(2);
        for traced in [!id.is_multiple_of(2), id.is_multiple_of(2)] {
            if !copies.is_empty() && !repeat {
                self.stack.reasoner.invalidate_entities(&[EntityId(source)]);
            }
            copies.push(if traced {
                self.traced_answer(id, root, op, source, relation, probe)
            } else {
                let twin = self.tr().begin(id, Some(root), "twin.answer");
                let rec = self.run_plain(op, probe);
                self.tr().end(twin);
                rec
            });
        }
        self.tr().end(root);
        copies
    }

    fn run_plain(&mut self, op: Op, probe: bool) -> Rec {
        let body = op.body();
        let t = Instant::now();
        let (status, resp) =
            request(self.addr(), "POST", op.route().path(), &body).expect("loopback request");
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let ack = Instant::now();
        let mut ok = None;
        if let Op::Mutate { .. } = op {
            ok = Some(status == 200 && self.after_mutation(op, &resp, ack, probe));
        }
        Rec {
            op,
            latency_ms,
            status,
            body_hash: hash(&resp),
            epoch: self.applied.len(),
            probe,
            ok,
        }
    }

    /// Hold a mutation until its arrival phase (see [`SHIP_POLL_MS`]).
    fn pace_mutation(&mut self) {
        let Some(seen) = self.last_seen else { return };
        let offset = self.plan.phase(self.applied.len()) * SHIP_POLL_MS;
        let elapsed = seen.elapsed().as_secs_f64() * 1e3;
        let periods = ((elapsed - offset) / SHIP_POLL_MS).ceil().max(0.0);
        let send_at = seen + Duration::from_secs_f64((offset + periods * SHIP_POLL_MS) / 1e3);
        if let Some(wait) = send_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }

    /// After a mutation is acknowledged: record the new epoch, wait for
    /// the follower to pass its seq (the lag sample), and check that the
    /// triple's presence on the follower matches the op.
    fn after_mutation(&mut self, op: Op, resp: &str, ack: Instant, probe: bool) -> bool {
        let Op::Mutate { triple, insert } = op else {
            unreachable!("after_mutation takes mutations")
        };
        let Ok(m) = serde_json::from_str::<MutateResponse>(resp) else {
            return false;
        };
        let changed = if insert { m.inserted } else { m.deleted };
        self.counts.invalidated.push(m.invalidated as f64);
        self.applied.push(mutation_op(triple, insert));
        self.wait_follower(m.seq, ack, probe) && changed == 1 && self.follower_shows(triple, insert)
    }

    /// Whether the follower's published graph reaches the op's state.
    /// Its WAL watermark advances just before it publishes the applied
    /// epoch, so visibility is polled for briefly after the lag sample.
    fn follower_shows(&self, triple: Triple, present: bool) -> bool {
        let t = Instant::now();
        loop {
            if self
                .stack
                .follower
                .pin()
                .has_edge(triple.s, triple.r, triple.o)
                == present
            {
                return true;
            }
            if t.elapsed() > VISIBLE_TIMEOUT {
                return false;
            }
            std::thread::sleep(LAG_POLL);
        }
    }

    fn wait_follower(&mut self, seq: u64, ack: Instant, probe: bool) -> bool {
        let mut last_poll = Instant::now();
        loop {
            if self.stack.follower.committed_seq() > seq {
                let seen = Instant::now();
                self.lag_ms.push((seen - ack).as_secs_f64() * 1e3);
                self.lag_probe.push(probe);
                self.last_seen = Some(seen);
                return true;
            }
            if ack.elapsed() > LAG_TIMEOUT {
                self.last_seen = Some(Instant::now());
                return false;
            }
            std::thread::sleep(LAG_POLL);
            let now = Instant::now();
            self.poll_gaps_us
                .push((now - last_poll).as_secs_f64() * 1e6);
            last_poll = now;
        }
    }

    fn run_traced(&mut self, id: u64, op: Op, probe: bool) -> Rec {
        match op {
            Op::Answer { .. } => unreachable!("answers are traced in pairs by `run`"),
            Op::Retrieve { seed } => self.traced_retrieve(id, op, seed, probe),
            Op::Mutate { .. } => self.traced_mutation(id, op, probe),
        }
    }

    fn tr(&mut self) -> &mut Tracer {
        self.tracer.as_mut().expect("tracing is on")
    }

    fn traced_http(
        &mut self,
        id: u64,
        root: SpanId,
        op: Op,
        name: &'static str,
    ) -> (u16, String, f64, SpanId) {
        let body = op.body();
        let addr = self.addr();
        let t = Instant::now();
        let ((status, resp), h) = self.tr().time(id, Some(root), name, || {
            request(addr, "POST", op.route().path(), &body).expect("loopback request")
        });
        (status, resp, t.elapsed().as_secs_f64() * 1e3, h)
    }

    fn traced_answer(
        &mut self,
        id: u64,
        root: SpanId,
        op: Op,
        source: u32,
        relation: u32,
        probe: bool,
    ) -> Rec {
        let stack = self.stack;
        let names = self.names;
        let model = self.model;
        let before = stack.reasoner.cache_stats().unwrap_or_default();
        let (status, resp, latency_ms, h) = self.traced_http(id, root, op, "http.answer");
        let after = stack.reasoner.cache_stats().unwrap_or_default();
        let hit = after.hits > before.hits;
        self.counts.hits += after.hits - before.hits;
        self.counts.misses += after.misses - before.misses;

        let body = op.body();
        let (req, _) = self.tr().time(id, Some(h), "protocol.decode", || {
            serde_json::from_str::<AnswerRequest>(&body).expect("benchmark request decodes")
        });
        // The server-side pipeline: a hit replays on the serving registry
        // (the key is cached), a miss on a cache-off reference registry
        // over the same graph handle.
        let mut refs = self.traced.take().expect("tracing is on");
        let registry = if hit {
            &*stack.registry
        } else {
            &refs.registry
        };
        let (_, ra) = self.tr().time(id, Some(h), "registry.answer", || {
            std::hint::black_box(registry.answer(&req))
        });
        let (query, _) = self.tr().time(id, Some(ra), "protocol.resolve", || {
            names
                .resolve_query(&req.query)
                .expect("benchmark keys resolve")
        });
        // The engine is on the request path only for a miss. For a hit it
        // is the reference the body is checked against, computed once per
        // key and epoch, outside the request's subtree.
        let key = (op, self.applied.len());
        let answer = match refs.hit_refs.get(&key) {
            Some(answer) if hit => answer.clone(),
            _ => {
                let parent = if hit { root } else { ra };
                let (answer, _) = self.tr().time(id, Some(parent), "engine.answer", || {
                    refs.reasoner.answer(&query)
                });
                if hit {
                    refs.hit_refs.insert(key, answer.clone());
                }
                answer
            }
        };
        self.traced = Some(refs);
        let (wire, _) = self.tr().time(id, Some(ra), "protocol.encode.wire", || {
            WireAnswer::from_answer(MODEL, &answer, names)
        });
        let (json, _) = self.tr().time(id, Some(h), "protocol.encode.json", || {
            ApiResponse::Answer(wire).body()
        });
        let (hit_answer, _) = self
            .tr()
            .time(id, Some(root), "cache.hit", || stack.registry.answer(&req));
        std::hint::black_box(hit_answer.is_ok());
        self.time_engine_kernels(id, root, model, source, relation);
        let addr = self.addr();
        self.tr().time(id, Some(root), "http.healthz", || {
            request(addr, "GET", "/healthz", "").expect("loopback healthz")
        });
        Rec {
            op,
            latency_ms,
            status,
            ok: Some(status == 200 && json == resp),
            body_hash: 0,
            epoch: self.applied.len(),
            probe,
        }
    }

    /// One LSTM history step and one state's action distribution (gate
    /// attention fusion + action scoring) at the query's source.
    fn time_engine_kernels(
        &mut self,
        id: u64,
        root: SpanId,
        model: &MmkgrModel,
        source: u32,
        relation: u32,
    ) {
        let ds = MmkgrConfig::default().struct_dim;
        let graph = self.stack.live.pin();
        let source = EntityId(source);
        let step = model.raw_prepare_step(graph.relations().no_op(), source);
        let (mut h, mut c) = (vec![0.0f32; ds], vec![0.0f32; ds]);
        self.tr().time(id, Some(root), "engine.lstm_step", || {
            model.raw_lstm_step_prepared(&step, &mut h, &mut c)
        });
        let actions = graph.neighbors(source);
        let prepared = model.raw_prepare_actions(actions);
        let mut out = Vec::new();
        self.tr().time(id, Some(root), "engine.action_probs", || {
            model.raw_state_probs_group_prepared(
                source,
                &h,
                1,
                RelationId(relation),
                actions,
                &prepared,
                &mut out,
            )
        });
        std::hint::black_box((&h, &c, &out));
    }

    fn traced_retrieve(&mut self, id: u64, op: Op, seed: u32, probe: bool) -> Rec {
        let stack = self.stack;
        let root = self.tr().begin(id, None, "op.retrieve");
        let (status, resp, latency_ms, h) = self.traced_http(id, root, op, "http.retrieve");
        let body = op.body();
        let (req, _) = self.tr().time(id, Some(h), "protocol.decode.retrieve", || {
            serde_json::from_str::<RetrieveRequest>(&body).expect("benchmark request decodes")
        });
        let (wire, rr) = self.tr().time(id, Some(h), "registry.retrieve", || {
            stack
                .registry
                .retrieve(&req)
                .expect("benchmark retrieve succeeds")
        });
        self.counts
            .paths_considered
            .push(wire.paths_considered as f64);
        let (json, _) = self.tr().time(id, Some(h), "protocol.encode.retrieve", || {
            ApiResponse::Retrieve(wire).body()
        });
        let graph = stack.live.pin();
        let seeds = [EntityId(seed)];
        let cfg = SubgraphConfig {
            hops: RETRIEVE_HOPS,
            max_entities: RETRIEVE_MAX_ENTITIES,
            ..SubgraphConfig::default()
        };
        let (sub, _) = self.tr().time(id, Some(rr), "retrieve.extract", || {
            extract(&graph, &seeds, &cfg, None)
        });
        self.counts.entities.push(sub.entities.len() as f64);
        // Every candidate path, unranked: `max_paths = 0` keeps them all.
        let retriever = stack.registry.retriever().expect("retriever configured");
        let candidates = retriever
            .retrieve(
                Some(&*stack.reasoner),
                &RetrieveSpec {
                    max_paths: 0,
                    diversity: 0.0,
                    ..spec(seed)
                },
            )
            .paths;
        self.tr().time(id, Some(rr), "retrieve.rerank", || {
            mmr_rerank(candidates, RETRIEVE_DIVERSITY as f32, RETRIEVE_MAX_PATHS)
        });
        self.tr().end(root);
        Rec {
            op,
            latency_ms,
            status,
            ok: Some(status == 200 && json == resp),
            body_hash: 0,
            epoch: self.applied.len(),
            probe,
        }
    }

    /// The calls `ModelRegistry::mutate` makes, made on the op itself:
    /// commit through the live store, then invalidate the cache.
    fn traced_mutation(&mut self, id: u64, op: Op, probe: bool) -> Rec {
        let Op::Mutate { triple, insert } = op else {
            unreachable!("traced_mutation takes mutations")
        };
        let stack = self.stack;
        let ops = [mutation_op(triple, insert)];
        let root = self.tr().begin(id, None, "op.mutate");
        let t = Instant::now();
        let (outcome, _) = self.tr().time(id, Some(root), "mutation.commit", || {
            stack.live.apply(&ops).expect("benchmark mutation commits")
        });
        let (invalidated, _) = self.tr().time(id, Some(root), "cache.invalidate", || {
            stack.reasoner.invalidate_entities(&outcome.stats.touched)
        });
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let ack = Instant::now();
        self.tr().end(root);
        self.counts.invalidated.push(invalidated as f64);
        let changed = if insert {
            outcome.stats.inserted
        } else {
            outcome.stats.deleted
        };
        self.applied.push(ops[0]);
        let ok = self.wait_follower(outcome.seq, ack, probe)
            && changed == 1
            && self.follower_shows(triple, insert);
        let wal = &mut self.traced.as_mut().expect("tracing is on").wal;
        let t = self.tracer.as_mut().expect("tracing is on");
        t.time(id, None, "wal.append", || {
            wal.append(&ops).expect("scratch WAL append")
        });
        Rec {
            op,
            latency_ms,
            status: 200,
            ok: Some(ok),
            body_hash: 0,
            epoch: self.applied.len(),
            probe,
        }
    }
}

fn mutation_op(triple: Triple, insert: bool) -> TripleOp {
    if insert {
        TripleOp::Insert(triple)
    } else {
        TripleOp::Delete(triple)
    }
}

/// The graph after each prefix of `applied`: entry `k` is the epoch
/// served after `k` mutations.
fn epochs(base: &Arc<KnowledgeGraph>, applied: &[TripleOp]) -> Vec<Arc<KnowledgeGraph>> {
    let mut out = vec![Arc::clone(base)];
    for op in applied {
        let (next, _) = out[out.len() - 1]
            .apply_ops(std::slice::from_ref(op))
            .expect("a committed mutation applies");
        out.push(Arc::new(next));
    }
    out
}

fn spec(seed: u32) -> RetrieveSpec {
    RetrieveSpec {
        seeds: vec![EntityId(seed)],
        relation: None,
        hops: RETRIEVE_HOPS,
        max_entities: RETRIEVE_MAX_ENTITIES,
        max_paths: RETRIEVE_MAX_PATHS,
        diversity: RETRIEVE_DIVERSITY as f32,
    }
}

fn hash(body: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// The expected body of a read op: what a cache-off reference reasoner
/// and retriever produce over the graph epoch the op was served from.
fn expected_body(
    op: Op,
    graph: &Arc<KnowledgeGraph>,
    model: &MmkgrModel,
    names: &NameIndex,
) -> String {
    let reasoner = PolicyReasoner::try_new(MODEL, model, Arc::clone(graph), ServeConfig::default())
        .expect("valid serve config");
    match op {
        Op::Answer { .. } => {
            let req = serde_json::from_str::<AnswerRequest>(&op.body()).expect("request decodes");
            let query = names
                .resolve_query(&req.query)
                .expect("benchmark keys resolve");
            ApiResponse::Answer(WireAnswer::from_answer(
                MODEL,
                &reasoner.answer(&query),
                names,
            ))
            .body()
        }
        Op::Retrieve { seed } => {
            let retrieval =
                Retriever::new(Arc::clone(graph)).retrieve(Some(&reasoner), &spec(seed));
            ApiResponse::Retrieve(RetrieveResponse::from_retrieval(
                MODEL,
                &[format!("e{seed}")],
                RETRIEVE_HOPS,
                &retrieval,
                names,
            ))
            .body()
        }
        Op::Mutate { .. } => unreachable!("mutations are checked inline"),
    }
}

/// Check every record still lacking a verdict against the reference, on
/// two threads. Identical (op, epoch) pairs are computed once.
pub fn verify(
    recs: &mut [Rec],
    base: &Arc<KnowledgeGraph>,
    applied: &[TripleOp],
    model: &MmkgrModel,
    names: &NameIndex,
) {
    let epochs = &epochs(base, applied);
    let pending: Vec<usize> = (0..recs.len()).filter(|&i| recs[i].ok.is_none()).collect();
    let verdicts: Vec<(usize, bool)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let pending = &pending;
                let recs = &*recs;
                scope.spawn(move || {
                    let mut memo: HashMap<(Op, usize), u64> = HashMap::new();
                    pending
                        .iter()
                        .skip(w)
                        .step_by(2)
                        .map(|&i| {
                            let r = &recs[i];
                            if r.status != 200 {
                                return (i, false);
                            }
                            let want = memo.entry((r.op, r.epoch)).or_insert_with(|| {
                                hash(&expected_body(r.op, &epochs[r.epoch], model, names))
                            });
                            (i, *want == r.body_hash)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier thread"))
            .collect()
    });
    for (i, ok) in verdicts {
        recs[i].ok = Some(ok);
    }
}

/// Latencies (ms) of the records `keep` selects.
pub fn latencies(recs: &[Rec], keep: impl Fn(&Rec) -> bool) -> Vec<f64> {
    recs.iter()
        .filter(|r| keep(r))
        .map(|r| r.latency_ms)
        .collect()
}

/// Whether `r` is an answer to a repeated key.
pub fn is_repeat(r: &Rec) -> bool {
    matches!(r.op, Op::Answer { repeat: true, .. })
}
