//! The program under test: a live primary behind the HTTP server, with
//! an in-process follower tailing its WAL over `/v1/admin/replicate`.
//! Built through public APIs with the `mmkgr serve` defaults.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use mmkgr_core::serve::{
    replication, HttpServer, HttpServerConfig, KgReasoner, LiveGraphStore, ModelRegistry,
    NameIndex, PolicyReasoner, ReplicaSource, ReplicationState, Retriever, RunningServer,
    ServeConfig,
};
use mmkgr_core::{MmkgrConfig, MmkgrModel};
use mmkgr_kg::MultiModalKG;

/// Frontier-cache entries, as `mmkgr serve` defaults to.
pub const CACHE_ENTRIES: usize = 1024;
pub const MODEL: &str = "MMKGR";

pub struct Stack {
    pub addr: SocketAddr,
    pub registry: Arc<ModelRegistry>,
    pub reasoner: Arc<dyn KgReasoner + Send + Sync>,
    pub live: Arc<LiveGraphStore>,
    pub rep: Arc<ReplicationState>,
    pub follower: Arc<LiveGraphStore>,
    pub follower_rep: Arc<ReplicationState>,
    server: RunningServer,
    tailer: JoinHandle<()>,
}

/// One node's registry over a fresh live store with its WAL at `wal`.
fn node(
    kg: &MultiModalKG,
    wal: &Path,
    rep: Arc<ReplicationState>,
) -> (
    Arc<ModelRegistry>,
    Arc<dyn KgReasoner + Send + Sync>,
    Arc<LiveGraphStore>,
) {
    let live = Arc::new(
        LiveGraphStore::open(Arc::new(kg.graph.clone()), wal, 0).expect("open a fresh WAL"),
    );
    let handle = live.handle();
    let reasoner: Arc<dyn KgReasoner + Send + Sync> = Arc::new(
        PolicyReasoner::try_new_live(
            MODEL,
            MmkgrModel::new(kg, MmkgrConfig::default(), None),
            handle.clone(),
            ServeConfig::default().with_cache(CACHE_ENTRIES),
        )
        .expect("valid serve config"),
    );
    let mut registry = ModelRegistry::new(NameIndex::synthetic(
        kg.num_entities(),
        kg.num_base_relations(),
    ));
    registry.register(Arc::clone(&reasoner));
    registry.set_retriever(Arc::new(Retriever::new_live(handle)));
    registry.set_live(Arc::clone(&live));
    registry.set_replication(rep);
    (Arc::new(registry), reasoner, live)
}

fn source(dir: &Path, name: &str) -> ReplicaSource {
    ReplicaSource {
        // Never fetched: the follower boots from the same in-memory graph.
        snapshot: dir.join(format!("{name}.mmkg")),
        wal: dir.join(format!("{name}.wal")),
    }
}

impl Stack {
    /// Boot the primary, bind its server on loopback, boot the follower
    /// and start its tailer. WAL files live in `dir` (created fresh).
    pub fn boot(kg: &MultiModalKG, dir: &Path) -> Stack {
        std::fs::create_dir_all(dir).expect("create the WAL directory");
        let primary_src = source(dir, "primary");
        let rep = Arc::new(ReplicationState::primary(source(dir, "primary")));
        let (registry, reasoner, live) = node(kg, &primary_src.wal, Arc::clone(&rep));
        let server = HttpServer::bind(
            ("127.0.0.1", 0),
            Arc::clone(&registry),
            HttpServerConfig {
                conn_threads: 4,
                pool_workers: 2,
                ..HttpServerConfig::default()
            },
        )
        .expect("bind a loopback port")
        .spawn();
        let addr = server.addr();

        let follower_src = source(dir, "follower");
        let follower_rep = Arc::new(ReplicationState::follower(
            addr.to_string(),
            source(dir, "follower"),
        ));
        let (follower_registry, _, follower) =
            node(kg, &follower_src.wal, Arc::clone(&follower_rep));
        let tailer = {
            let rep = Arc::clone(&follower_rep);
            std::thread::spawn(move || replication::run_tailer(follower_registry, rep))
        };
        Stack {
            addr,
            registry,
            reasoner,
            live,
            rep,
            follower,
            follower_rep,
            server,
            tailer,
        }
    }

    /// Stop the tailer (promotion ends its loop) and the server, and
    /// wait for both.
    pub fn shutdown(self) {
        self.follower_rep.promote();
        self.tailer.join().expect("tailer thread exits cleanly");
        self.server.shutdown();
    }
}
