//! The live store's single commit path, checked at its two callers:
//!
//! - **Parity**: batches committed through `apply` (group commit) and
//!   the same records fed through `apply_replicated` on a second store
//!   end in byte-identical WAL files, equal epochs and equal folded
//!   graphs.
//! - **Failed writes**: a WAL sync that fails leaves no frame behind on
//!   either path — the batch gets a typed error, the next batch commits
//!   under the same sequence number, and replay never sees the failed
//!   one.
//!
//! Every test holds a fault-plan guard (an empty one where no fault is
//! wanted), so an injected sync error can never hit a neighbouring test.

use std::path::PathBuf;
use std::sync::Arc;

use mmkgr::core::serve::faults;
use mmkgr::core::serve::mutation::LiveStoreError;
use mmkgr::core::serve::{FaultPlan, LiveGraphStore};
use mmkgr::kg::store::wal;
use mmkgr::kg::{EntityId, KnowledgeGraph, RelationId, Triple, TripleOp, WalRecord};

fn base_graph() -> Arc<KnowledgeGraph> {
    Arc::new(KnowledgeGraph::from_triples(
        8,
        2,
        vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 2),
            Triple::new(1, 1, 4),
        ],
        None,
    ))
}

fn scratch_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmkgr-write-path-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("graph.wal")
}

#[test]
fn local_and_replicated_commits_leave_identical_logs_and_graphs() {
    let _quiet = faults::install(FaultPlan::new());
    let primary_wal = scratch_wal("parity-primary");
    let follower_wal = scratch_wal("parity-follower");
    let primary = Arc::new(LiveGraphStore::open(base_graph(), &primary_wal, 0).unwrap());
    // Four concurrent writers, so groups of more than one form; every
    // batch is valid in any order (a repeated insert is a no-op).
    let writers: Vec<_> = (0..4u32)
        .map(|w| {
            let primary = Arc::clone(&primary);
            std::thread::spawn(move || {
                for i in 0..6u32 {
                    let t = Triple::new(w, i % 2, (w + i + 1) % 8);
                    let ops = match i % 3 {
                        0 => vec![TripleOp::Insert(t)],
                        1 => vec![TripleOp::Insert(t), TripleOp::Delete(Triple::new(0, 0, 1))],
                        _ => vec![TripleOp::Delete(t)],
                    };
                    primary.apply(&ops).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let records = wal::replay(&primary_wal).unwrap();
    assert_eq!(records.len(), 24);

    let follower = LiveGraphStore::open(base_graph(), &follower_wal, 0).unwrap();
    for rec in &records {
        let out = follower.apply_replicated(rec).unwrap().expect("new record");
        assert_eq!(out.seq, rec.seq);
    }
    assert_eq!(
        std::fs::read(&primary_wal).unwrap(),
        std::fs::read(&follower_wal).unwrap()
    );
    assert_eq!(follower.epoch(), primary.epoch());
    assert_eq!(follower.committed_seq(), primary.committed_seq());
    assert_eq!(
        serde_json::to_string(&follower.pin().fold()).unwrap(),
        serde_json::to_string(&primary.pin().fold()).unwrap()
    );
}

#[test]
fn a_failed_wal_sync_leaves_no_frame_behind() {
    let a = vec![TripleOp::Insert(Triple::new(3, 0, 4))];
    let b = vec![TripleOp::Insert(Triple::new(5, 1, 6))];
    let path = scratch_wal("failed-sync");
    let store = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
    {
        let _fault = faults::install(FaultPlan::new().with_io_error());
        let err = store.apply(&a).expect_err("the sync fails");
        assert!(matches!(err, LiveStoreError::Wal(_)), "{err}");
    }
    assert_eq!(store.committed_seq(), 0);
    assert_eq!(store.epoch(), 0);
    assert!(wal::replay(&path).unwrap().is_empty());

    let _quiet = faults::install(FaultPlan::new());
    let out = store.apply(&b).unwrap();
    assert_eq!(out.seq, 0, "B reuses the failed batch's sequence number");
    assert_eq!(store.committed_seq(), 1);
    let g = store.pin();
    assert!(!g.has_edge(EntityId(3), RelationId(0), EntityId(4)));
    assert!(g.has_edge(EntityId(5), RelationId(1), EntityId(6)));
    assert_eq!(
        wal::replay(&path).unwrap(),
        vec![WalRecord { seq: 0, ops: b }]
    );
}

#[test]
fn a_failed_wal_sync_on_the_follower_can_be_retried() {
    let rec = WalRecord {
        seq: 0,
        ops: vec![TripleOp::Insert(Triple::new(3, 0, 4))],
    };
    let path = scratch_wal("failed-sync-follower");
    let follower = LiveGraphStore::open(base_graph(), &path, 0).unwrap();
    {
        let _fault = faults::install(FaultPlan::new().with_io_error());
        let err = follower.apply_replicated(&rec).expect_err("the sync fails");
        assert!(matches!(err, LiveStoreError::Wal(_)), "{err}");
    }
    assert_eq!(follower.committed_seq(), 0);
    assert!(wal::replay(&path).unwrap().is_empty());

    // The same record applies cleanly on redelivery: no gap, no skip.
    let _quiet = faults::install(FaultPlan::new());
    let out = follower
        .apply_replicated(&rec)
        .unwrap()
        .expect("not a duplicate");
    assert_eq!(out.seq, 0);
    assert_eq!(follower.committed_seq(), 1);
    assert_eq!(wal::replay(&path).unwrap(), vec![rec]);
}
