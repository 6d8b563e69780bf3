//! Group-commit WAL under the crash simulator: the commit/abort crash
//! points that sit around the durability watermark, which no
//! transformation-phase kill can reach.
//!
//! The simulator's determinism pins (same seed → byte-identical trace,
//! armed run replays the census prefix) live in `determinism.rs`; every
//! sim universe runs this same pipeline.

use morph_common::{ColumnType, DbError, DbResult, Schema, Value};
use morph_engine::{recover_into, CrashHook, Database};
use morph_txn::LockManagerConfig;
use morph_wal::{FaultBackend, FaultConfig, FaultHandle, LogManager};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// --- direct commit/abort crash-point semantics -------------------------

/// Kill the first time execution reaches `point`, once.
struct KillOnce {
    point: &'static str,
    fired: AtomicBool,
}

impl CrashHook for KillOnce {
    fn at(&self, _db: &Database, point: &str) -> DbResult<()> {
        if point == self.point && !self.fired.swap(true, Ordering::SeqCst) {
            return Err(DbError::SimulatedCrash(point.to_owned()));
        }
        Ok(())
    }
}

fn two_col_schema() -> Schema {
    Schema::builder()
        .column("id", ColumnType::Int)
        .nullable("v", ColumnType::Str)
        .primary_key(&["id"])
        .build()
        .expect("static schema")
}

/// Fault-backed database with table `T` and one committed base row.
fn build(seed: u64, kill: &'static str) -> (Database, FaultHandle) {
    let (backend, handle) = FaultBackend::new(FaultConfig::crash_only(seed));
    let db = Database::with_log(
        Arc::new(LogManager::with_backend(Box::new(backend))),
        LockManagerConfig::default(),
    );
    db.create_table("T", two_col_schema()).unwrap();
    let t0 = db.begin();
    db.insert(t0, "T", vec![Value::Int(1), Value::str("base")])
        .unwrap();
    db.commit(t0).unwrap();
    db.set_crash_hook(Arc::new(KillOnce {
        point: kill,
        fired: AtomicBool::new(false),
    }));
    (db, handle)
}

/// Tear the log, recover it into a fresh engine, and report whether
/// the victim row (id 2) survived. The base row always must.
fn victim_survives_recovery(db: &Database, handle: &FaultHandle, what: &str) -> bool {
    let table = db.catalog().get("T").unwrap().id();
    handle.crash();
    let durable = handle.durable_records().unwrap();
    let log2 = Arc::new(LogManager::with_records(durable.clone()));
    let db2 = Database::with_log(log2, LockManagerConfig::default());
    db2.catalog()
        .create_table_with_id(table, "T", two_col_schema())
        .unwrap();
    recover_into(&db2, &durable).unwrap();
    let rows = db2.catalog().get("T").unwrap().snapshot();
    assert!(
        rows.iter().any(|(_, r)| r.values[0] == Value::Int(1)),
        "committed base row lost after {what}"
    );
    rows.iter().any(|(_, r)| r.values[0] == Value::Int(2))
}

/// Crash a commit at `point`, then recover and report whether the
/// in-flight transaction's row survived.
fn crashed_commit_row_survives(point: &'static str, seed: u64) -> bool {
    let (db, handle) = build(seed, point);
    let t1 = db.begin();
    db.insert(t1, "T", vec![Value::Int(2), Value::str("victim")])
        .unwrap();
    match db.commit(t1) {
        Err(DbError::SimulatedCrash(_)) => {}
        other => panic!("commit should have been killed at {point}, got {other:?}"),
    }
    victim_survives_recovery(&db, &handle, point)
}

#[test]
fn kill_before_commit_append_rolls_the_transaction_back() {
    for seed in [3, 17, 91] {
        assert!(
            !crashed_commit_row_survives("commit.wal_append", seed),
            "txn without a Commit record must be a loser (seed {seed})"
        );
    }
}

#[test]
fn kill_after_durability_wait_preserves_the_transaction() {
    // Once wait_durable returned, the Commit record is on stable
    // storage: the tear cannot reach it, and recovery must redo the
    // transaction — the durability watermark is exactly the point of
    // no return.
    for seed in [3, 17, 91] {
        assert!(
            crashed_commit_row_survives("commit.wal_durable", seed),
            "durable commit lost (seed {seed})"
        );
    }
}

#[test]
fn killed_abort_after_durable_clrs_stays_rolled_back() {
    let (db, handle) = build(23, "abort.wal_durable");
    let t1 = db.begin();
    db.insert(t1, "T", vec![Value::Int(2), Value::str("victim")])
        .unwrap();
    match db.abort(t1) {
        Err(DbError::SimulatedCrash(_)) => {}
        other => panic!("abort should have been killed, got {other:?}"),
    }
    assert!(
        !victim_survives_recovery(&db, &handle, "abort.wal_durable"),
        "aborted row resurrected after crash mid-abort"
    );
}
