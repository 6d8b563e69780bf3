//! `wal_append`: the group-commit WAL pipeline, measured two ways.
//!
//! **Part 1 — append-path throughput.** N threads race
//! `LogManager::append` with realistic `Op` records (encode cost
//! included) over a disk model that charges a fixed write latency per
//! record. An append that is next in line and finds the backend idle
//! writes through and pays the device itself; every other append
//! stages its encoded bytes and returns once its LSN is published, and
//! the device is paid later, in LSN order, by the drain (timed
//! separately as `drain_ns`).
//!
//! **Part 2 — end-to-end commit rate.** Closed-loop clients run real
//! transactions against a database whose WAL flushes into a synthetic
//! slow disk. Group commit elects a leader whose single flush
//! satisfies every parked committer. The fsync economy is measured
//! directly off the manager's flush counter: `fsyncs_per_commit` must
//! come in ≪ 1 under concurrent committers.
//!
//! Both disk models *yield* the CPU while their latency elapses —
//! device time is wall-clock, not compute, and a busy-spin would
//! serialize the whole experiment on a single-core host, measuring the
//! spin instead of the pipeline.
//!
//! Writes `target/experiments/wal_append.json` plus CSVs beside it.
//! The checked-in `BENCH_wal.json` is an earlier serial-vs-group run,
//! kept as history.

use morph_bench::{banner, exp_dir, quick, scale, split_client_cfg, Csv};
use morph_common::{DbResult, Key, TableId, TxnId, Value};
use morph_wal::{Backend, GroupCommitConfig, LogManager, LogOp, LogRecord};
use morph_workload::{db_with_wal, setup_dummy, setup_split_source, WorkloadRunner};
use std::io::Write;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Wait out a device latency without holding the CPU.
fn device_wait(latency: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < latency {
        std::thread::yield_now();
    }
}

/// Disk model for Part 1: every record write costs a fixed latency;
/// flush is free (the per-record cost already charged it).
struct PerWriteDisk {
    write_latency: Duration,
    bytes: u64,
}

impl Backend for PerWriteDisk {
    fn append(&mut self, encoded: &[u8]) {
        self.bytes += encoded.len() as u64;
        device_wait(self.write_latency);
    }
    fn flush(&mut self) -> DbResult<()> {
        Ok(())
    }
}

/// Disk model for Part 2: appends land in a buffer for free (the OS
/// page cache), each flush costs a fixed fsync latency.
struct SlowDisk {
    fsync_latency: Duration,
}

impl Backend for SlowDisk {
    fn append(&mut self, _encoded: &[u8]) {}
    fn flush(&mut self) -> DbResult<()> {
        device_wait(self.fsync_latency);
        Ok(())
    }
}

/// A representative forward data record: multi-column update with
/// string images, so encoding has realistic cost.
fn bench_record(i: u64) -> LogRecord {
    LogRecord::Op {
        txn: TxnId(i),
        op: LogOp::Update {
            table: TableId(7),
            key: Key::single(Value::Int(i as i64)),
            old: vec![
                (1, Value::str("payload-before-update")),
                (3, Value::str("dep-before")),
            ],
            new: vec![
                (1, Value::str("payload-after-update!")),
                (3, Value::str("dep-after")),
            ],
        },
    }
}

struct AppendPoint {
    threads: usize,
    appends: u64,
    ns: u128,
    per_sec: f64,
    /// Time the post-measurement drain+flush took: the per-record
    /// device latency of every staged append is paid here instead of
    /// on the append path.
    drain_ns: u128,
}

/// One append-path measurement: `threads` × `per_thread` appends, best
/// of `reps`. The timed region ends when every append has returned
/// (its LSN assigned and published); the ordered drain to the device
/// is timed separately — that is the deferral the lock-split buys.
fn append_point(
    threads: usize,
    per_thread: u64,
    write_latency: Duration,
    reps: usize,
) -> AppendPoint {
    let mut best: Option<(u128, u128)> = None;
    for _ in 0..reps.max(1) {
        let log = Arc::new(LogManager::with_backend(Box::new(PerWriteDisk {
            write_latency,
            bytes: 0,
        })));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let mut handles = Vec::new();
        for t in 0..threads as u64 {
            let log = Arc::clone(&log);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per_thread {
                    log.append(bench_record(t * per_thread + i));
                }
            }));
        }
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        let ns = t0.elapsed().as_nanos();
        let d0 = Instant::now();
        log.flush().expect("final flush");
        let drain_ns = d0.elapsed().as_nanos();
        if best.is_none_or(|(b, _)| ns < b) {
            best = Some((ns, drain_ns));
        }
    }
    let (ns, drain_ns) = best.expect("reps >= 1");
    let appends = threads as u64 * per_thread;
    AppendPoint {
        threads,
        appends,
        ns,
        per_sec: appends as f64 * 1e9 / ns as f64,
        drain_ns,
    }
}

struct CommitPoint {
    clients: usize,
    commits: u64,
    commits_per_sec: f64,
    fsyncs: u64,
    fsyncs_per_commit: f64,
}

/// One end-to-end point: closed-loop clients over a slow-disk WAL.
fn commit_point(clients: usize, fsync_latency: Duration) -> CommitPoint {
    let s = scale();
    // The leader holds the door open for up to one fsync-time so the
    // whole closed loop can board one flush.
    let group = GroupCommitConfig {
        max_batch: clients,
        max_delay: fsync_latency,
    };
    let db = db_with_wal(Box::new(SlowDisk { fsync_latency }), group);
    setup_dummy(&db, s.dummy_rows).expect("dummy");
    setup_split_source(&db, s.split_rows, s.split_values).expect("split source");
    // Unpaced clients: the commit rate should be bound by the disk
    // model (and the WAL's use of it), not by client think time.
    let mut cfg = split_client_cfg(s, 0.0);
    cfg.pacing = None;
    let runner = WorkloadRunner::start(Arc::clone(&db), cfg, clients);
    std::thread::sleep(s.warmup);
    let fsyncs_before = db.log().flush_count();
    let w = runner.measure(s.window);
    let fsyncs = db.log().flush_count() - fsyncs_before;
    runner.stop();
    let commits = w.committed as u64;
    CommitPoint {
        clients,
        commits,
        commits_per_sec: w.throughput,
        fsyncs,
        fsyncs_per_commit: if commits > 0 {
            fsyncs as f64 / commits as f64
        } else {
            f64::NAN
        },
    }
}

fn main() {
    banner(
        "wal_append: lock-split append throughput and group-commit fsync economy",
        "Mohan et al. (ARIES group commit); Johnson et al., Aether: A Scalable Approach to Logging",
    );
    let reps = if quick() { 2 } else { 3 };
    let per_thread: u64 = if quick() { 10_000 } else { 50_000 };
    let write_latency = Duration::from_micros(5);
    let fsync_latency = Duration::from_micros(100);

    // ---- part 1: append-path throughput ----
    let mut append_csv = Csv::create("wal_append", "threads,appends,ns,appends_per_sec,drain_ns");
    println!(
        "\n{:>8} {:>10} {:>14} {:>14} {:>14}",
        "threads", "appends", "ns", "appends/s", "drain_ns"
    );
    let mut entries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let p = append_point(threads, per_thread, write_latency, reps);
        println!(
            "{:>8} {:>10} {:>14} {:>14.0} {:>14}",
            p.threads, p.appends, p.ns, p.per_sec, p.drain_ns
        );
        append_csv.row(&format!(
            "{},{},{},{:.0},{}",
            p.threads, p.appends, p.ns, p.per_sec, p.drain_ns
        ));
        entries.push(format!(
            "    {{ \"series\": \"append\", \"threads\": {}, \"appends\": {}, \"ns\": {}, \"appends_per_sec\": {:.0}, \"drain_ns\": {} }}",
            p.threads, p.appends, p.ns, p.per_sec, p.drain_ns
        ));
    }

    // ---- part 2: end-to-end commit rate ----
    let mut commit_csv = Csv::create(
        "wal_commit_rate",
        "clients,commits,commits_per_sec,fsyncs,fsyncs_per_commit",
    );
    println!(
        "\n{:>8} {:>10} {:>14} {:>10} {:>14}",
        "clients", "commits", "commits/s", "fsyncs", "fsync/commit"
    );
    for clients in [1usize, 2, 4, 8] {
        let p = commit_point(clients, fsync_latency);
        println!(
            "{:>8} {:>10} {:>14.0} {:>10} {:>14.3}",
            p.clients, p.commits, p.commits_per_sec, p.fsyncs, p.fsyncs_per_commit
        );
        commit_csv.row(&format!(
            "{},{},{:.0},{},{:.3}",
            p.clients, p.commits, p.commits_per_sec, p.fsyncs, p.fsyncs_per_commit
        ));
        entries.push(format!(
            "    {{ \"series\": \"wal_commit_rate\", \"clients\": {}, \"commits\": {}, \"commits_per_sec\": {:.0}, \"fsyncs\": {}, \"fsyncs_per_commit\": {:.3} }}",
            p.clients, p.commits, p.commits_per_sec, p.fsyncs, p.fsyncs_per_commit
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"wal_append\",\n  \"write_latency_us\": {},\n  \"fsync_latency_us\": {},\n  \"series\": [\n{}\n  ]\n}}\n",
        write_latency.as_micros(),
        fsync_latency.as_micros(),
        entries.join(",\n")
    );
    let path = exp_dir().join("wal_append.json");
    let mut f = std::fs::File::create(&path).expect("bench json");
    f.write_all(json.as_bytes()).expect("bench json write");
    println!("\n{json}");
    println!("wrote {}", path.display());
    println!(
        "CSVs written to {} and {}",
        append_csv.path.display(),
        commit_csv.path.display()
    );
}
