//! Semantics of the three synchronization strategies (§3.4), observed
//! from the client side, plus the Figure-2 lock behaviour of the
//! non-blocking commit strategy.

use morphdb::core::{
    FojSpec, SyncStrategy, TransformJob, TransformOptions, TransformPlan, Transformer,
};
use morphdb::txn::LockManagerConfig;
use morphdb::wal::{Backend, LogManager};
use morphdb::{ColumnType, Database, DbError, DbResult, Key, Schema, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sources(db: &Database, rows: usize) {
    let r = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .primary_key(&["a"])
        .build()
        .unwrap();
    let s = Schema::builder()
        .column("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["c"])
        .build()
        .unwrap();
    db.create_table("R", r).unwrap();
    db.create_table("S", s).unwrap();
    let txn = db.begin();
    for i in 0..rows as i64 {
        db.insert(
            txn,
            "R",
            vec![Value::Int(i), Value::str("b"), Value::Int(i % 10)],
        )
        .unwrap();
    }
    for j in 0..10i64 {
        db.insert(txn, "S", vec![Value::Int(j), Value::str("d")])
            .unwrap();
    }
    db.commit(txn).unwrap();
}

fn opts(strategy: SyncStrategy) -> TransformOptions {
    TransformOptions::default()
        .strategy(strategy)
        .deadline(Duration::from_secs(30))
}

#[test]
fn non_blocking_abort_dooms_old_and_serves_new() {
    let db = Arc::new(Database::new());
    sources(&db, 100);
    let old = db.begin();
    db.update(old, "R", &Key::single(5), &[(1, Value::str("dirty"))])
        .unwrap();

    let handle = Transformer::spawn_foj(
        Arc::clone(&db),
        FojSpec::new("R", "S", "T", "c", "c"),
        opts(SyncStrategy::NonBlockingAbort),
    );

    // The old transaction gets doomed; a well-behaved client rolls it
    // back and moves to the new table.
    let t0 = Instant::now();
    loop {
        match db.update(old, "R", &Key::single(6), &[(1, Value::str("x"))]) {
            Ok(()) => {
                assert!(t0.elapsed() < Duration::from_secs(25), "never doomed");
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(DbError::TxnDoomed(_)) | Err(DbError::TableFrozen(_)) => {
                db.abort(old).unwrap();
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    handle.join().unwrap();

    // New transactions use T; the doomed transaction's work is absent.
    let t = db.catalog().get("T").unwrap();
    assert!(t
        .snapshot()
        .iter()
        .all(|(_, row)| row.values[1] != Value::str("dirty")));
    let txn = db.begin();
    let read = db
        .read(txn, "T", &Key::new([Value::Int(5), Value::Int(5)]))
        .unwrap();
    assert!(read.is_some());
    db.commit(txn).unwrap();
}

#[test]
fn non_blocking_commit_blocks_new_txn_until_old_commit_propagates() {
    let db = Arc::new(Database::new());
    sources(&db, 50);
    let old = db.begin();
    db.update(old, "R", &Key::single(1), &[(1, Value::str("v1"))])
        .unwrap();

    let handle = Transformer::spawn_foj(
        Arc::clone(&db),
        FojSpec::new("R", "S", "T", "c", "c"),
        opts(SyncStrategy::NonBlockingCommit),
    );
    // Wait for the switch (R freezes for new transactions).
    let t0 = Instant::now();
    loop {
        if db.catalog().get("R").unwrap().state() != morphdb::storage::TableState::Active {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(25),
            "sync never happened"
        );
        std::thread::sleep(Duration::from_micros(500));
    }

    // A new transaction trying to write the *mirror-locked* T record
    // must conflict (Figure 2: native write vs transferred write).
    let t_key = Key::new([Value::Int(1), Value::Int(1)]);
    let newer = db.begin();
    match db.update(newer, "T", &t_key, &[(1, Value::str("clash"))]) {
        Err(DbError::Deadlock(_)) | Err(DbError::LockTimeout(_)) => {}
        Ok(()) => panic!("new txn must not slip past the transferred lock"),
        Err(e) => panic!("unexpected: {e}"),
    }
    db.abort(newer).unwrap();

    // The old transaction keeps working on the frozen source, commits…
    db.update(old, "R", &Key::single(2), &[(1, Value::str("v2"))])
        .unwrap();
    db.commit(old).unwrap();
    // …and once the propagator catches up the transformation finishes
    // and the record becomes writable.
    handle.join().unwrap();
    let txn = db.begin();
    db.update(txn, "T", &t_key, &[(1, Value::str("after"))])
        .unwrap();
    db.commit(txn).unwrap();

    // Both old-transaction updates are visible in T.
    let t = db.catalog().get("T").unwrap();
    let vals: Vec<Value> = t
        .snapshot()
        .iter()
        .map(|(_, r)| r.values[1].clone())
        .collect();
    assert!(vals.contains(&Value::str("v2")));
    assert!(vals.contains(&Value::str("after")));
}

/// Regression test: split synchronization transfers locks for a
/// transaction that is active on the source at the sync instant. An
/// earlier version self-deadlocked here — the lock-transfer path read
/// the *source* table (for the split value) while the synchronization
/// step held the source's exclusive latch.
#[test]
fn split_sync_with_active_source_lock_holder_does_not_deadlock() {
    use morphdb::core::SplitSpec;
    let db = Arc::new(Database::new());
    let t_schema = Schema::builder()
        .column("a", ColumnType::Int)
        .nullable("b", ColumnType::Str)
        .nullable("c", ColumnType::Int)
        .nullable("d", ColumnType::Str)
        .primary_key(&["a"])
        .build()
        .unwrap();
    db.create_table("T", t_schema).unwrap();
    let txn = db.begin();
    for i in 0..100i64 {
        db.insert(
            txn,
            "T",
            vec![
                Value::Int(i),
                Value::str("b"),
                Value::Int(i % 10),
                Value::str(format!("dep-{}", i % 10)),
            ],
        )
        .unwrap();
    }
    db.commit(txn).unwrap();

    // Hold exclusive locks on source records across the sync.
    let old = db.begin();
    db.update(old, "T", &Key::single(7), &[(1, Value::str("held"))])
        .unwrap();

    let spec = SplitSpec::new("T", "R2", "S2", &["a", "b", "c"], "c", &["d"]);
    let handle = morphdb::core::Transformer::spawn_split(
        Arc::clone(&db),
        spec,
        opts(SyncStrategy::NonBlockingAbort),
    );
    // Roll the doomed transaction back once the sync fires.
    let t0 = Instant::now();
    loop {
        match db.update(old, "T", &Key::single(8), &[(1, Value::str("x"))]) {
            Ok(()) => {
                assert!(t0.elapsed() < Duration::from_secs(25), "never doomed");
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(DbError::TxnDoomed(_)) | Err(DbError::TableFrozen(_)) => {
                db.abort(old).unwrap();
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let report = handle.join().expect("split transformation");
    assert!(
        report.sync.old_txns >= 1,
        "the holder must be grandfathered"
    );
    assert!(report.sync.locks_transferred >= 1);
    // The doomed txn's work is absent from the targets.
    let r2 = db.catalog().get("R2").unwrap();
    assert!(r2
        .snapshot()
        .iter()
        .all(|(_, row)| row.values[1] != Value::str("held")));
}

#[test]
fn blocking_commit_blocks_then_switches() {
    let db = Arc::new(Database::new());
    sources(&db, 50);

    // A transaction holding a source lock delays the strategy; it
    // commits shortly after, from another thread.
    let holder = db.begin();
    db.update(holder, "R", &Key::single(0), &[(1, Value::str("held"))])
        .unwrap();
    let db2 = Arc::clone(&db);
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        db2.commit(holder).unwrap();
    });

    let blocked_seen = Arc::new(AtomicBool::new(false));
    let db3 = Arc::clone(&db);
    let seen2 = Arc::clone(&blocked_seen);
    let prober = std::thread::spawn(move || {
        // Probe during the freeze window: new transactions must be
        // rejected from the sources at some point.
        for _ in 0..2_000 {
            let txn = db3.begin();
            match db3.update(txn, "R", &Key::single(3), &[(1, Value::str("p"))]) {
                Err(DbError::TableFrozen(_)) | Err(DbError::NoSuchTable(_)) => {
                    seen2.store(true, Ordering::Relaxed);
                    let _ = db3.abort(txn);
                    return;
                }
                _ => {
                    let _ = db3.abort(txn);
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });

    let report = Transformer::run_foj(
        &db,
        FojSpec::new("R", "S", "T", "c", "c"),
        opts(SyncStrategy::BlockingCommit),
    )
    .unwrap();
    release.join().unwrap();
    prober.join().unwrap();

    assert!(
        blocked_seen.load(Ordering::Relaxed),
        "blocking commit must visibly block new transactions"
    );
    // The holder's committed update made it into T.
    let t = db.catalog().get("T").unwrap();
    assert!(t
        .snapshot()
        .iter()
        .any(|(_, row)| row.values[1] == Value::str("held")));
    assert_eq!(report.sync.strategy, SyncStrategy::BlockingCommit);
    assert!(!db.catalog().exists("R"));
}

/// Gate of a [`GatedDisk`]: once armed, the next flush reports that
/// it has parked and waits for the test to let it go.
type FlushGate = Arc<Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>>;

/// An always-successful disk whose flushes can be held at a gate.
struct GatedDisk(FlushGate);

impl Backend for GatedDisk {
    fn append(&mut self, _encoded: &[u8]) {}

    fn flush(&mut self) -> DbResult<()> {
        let gate = self.0.lock().take();
        if let Some((parked, open)) = gate {
            parked.send(()).ok();
            open.recv().ok();
        }
        Ok(())
    }
}

/// Regression test for the grandfathered-commit stall. A committer has
/// appended its Commit record and is parked on the fsync: still
/// registered, still holding its source lock. The latched final drain
/// consumes that Commit record. The non-blocking strategies must not
/// grandfather the transaction then — the post-sync drain retires a
/// grandfathered transaction only when it reads its end record, which
/// is already behind the cursor, so `finish` would wait out the
/// deadline.
#[test]
fn committer_parked_on_fsync_at_sync_is_not_grandfathered() {
    for strategy in [
        SyncStrategy::NonBlockingAbort,
        SyncStrategy::NonBlockingCommit,
    ] {
        let gate = FlushGate::default();
        let db = Arc::new(Database::with_log(
            Arc::new(LogManager::with_backend(Box::new(GatedDisk(Arc::clone(
                &gate,
            ))))),
            LockManagerConfig::default(),
        ));
        sources(&db, 100);
        let plan = TransformPlan::Foj(FojSpec::new("R", "S", "T", "c", "c"));
        let options = opts(strategy)
            .deadline(Duration::from_secs(5))
            .retain_sources();
        let mut job = TransformJob::prepare(&db, &plan, options).unwrap();
        let abort = AtomicBool::new(false);
        job.copy().unwrap();
        job.propagate(&abort, None).unwrap();

        let (parked_tx, parked) = mpsc::channel();
        let (open, open_rx) = mpsc::channel();
        *gate.lock() = Some((parked_tx, open_rx));
        let txn = db.begin();
        db.update(txn, "R", &Key::single(5), &[(1, Value::str("parked"))])
            .unwrap();
        let committer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || db.commit(txn))
        };
        parked.recv().unwrap();
        assert!(
            db.is_active(txn),
            "the committer parks before it deregisters"
        );

        job.synchronize().unwrap();
        let report = job
            .finish(&abort)
            .unwrap_or_else(|e| panic!("{strategy:?}: finish failed: {e}"));
        assert_eq!(report.sync.old_txns, 0, "{strategy:?}");
        open.send(()).unwrap();
        committer.join().unwrap().unwrap();

        // T is the full outer join of the retained sources (every R
        // row has an S partner), the parked update included.
        let rows = |name: &str| -> Vec<Vec<Value>> {
            let t = db.catalog().get(name).unwrap();
            t.snapshot().into_iter().map(|(_, r)| r.values).collect()
        };
        let d_of: BTreeMap<Value, Value> = rows("S")
            .into_iter()
            .map(|s| (s[0].clone(), s[1].clone()))
            .collect();
        let mut expect: Vec<Vec<Value>> = rows("R")
            .into_iter()
            .map(|mut r| {
                r.push(d_of[&r[2]].clone());
                r
            })
            .collect();
        let mut got = rows("T");
        expect.sort();
        got.sort();
        assert_eq!(got, expect, "{strategy:?}");
        assert!(got.iter().any(|r| r[1] == Value::str("parked")));
    }
}
