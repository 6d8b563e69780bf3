//! morphdb end-to-end benchmark: closed-loop clients with durable
//! commits while online migrations run, reported end to end (untraced
//! run) or per layer (traced run). Invoked by `perfbench/run.py`,
//! which builds this binary; see `perfbench/NOTES.md`.
//!
//! Usage: `morph-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out <record.json>] [--rev <revision>]`

mod client;
mod disk;
mod ledger;
mod workloads;

use ledger::{pct, per_s, Agg, Ledger};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{Config, Workload};

/// End-to-end metrics in the result line of an untraced run. Each is
/// defined for every workload. `migration_s` is printed but left out:
/// on a shared 2-core host its spread nears the largest allowed bound
/// (see `NOTES.md`).
const END_TO_END: &[&str] = &[
    "setup_s",
    "txn_tps.base",
    "txn_p50_us.base",
    "txn_p95_us.base",
    "txn_tps.migrating",
    "txn_p50_us.migrating",
    "txn_p95_us.migrating",
    "txn_rel_tps",
];

/// Per-layer metrics in the result line of a traced run.
const PER_LAYER: &[&str] = &[
    "engine.begin_us.p50",
    "engine.begin_us.p99",
    "engine.update_us.p50",
    "engine.update_us.p99",
    "engine.commit_us.p50",
    "engine.commit_us.p99",
    "engine.abort_us.p50",
    "engine.snapshot_read_us.p50",
    "engine.snapshot_read_us.p99",
    "engine.begin_snapshot_us.p50",
    "engine.mvcc_gc_ms",
    "engine.mvcc_reclaimed",
    "engine.doomed_aborts",
    "engine.deadlock_aborts",
    "txn.lock_waits_per_kcommit",
    "wal.flush_us.p50",
    "wal.flush_us.p99",
    "wal.flushes_per_commit",
    "wal.append_busy_ms",
    "wal.bytes_per_commit",
    "wal.records_per_commit",
    "core.prepare_ms",
    "core.copy_ms",
    "core.propagate_ms",
    "core.sync_ms",
    "core.finish_ms",
    "core.copy.rows_per_s",
    "core.propagate.records_per_s",
    "core.propagate.iterate_ms.p99",
    "core.propagate.relevant_ratio",
    "core.propagate.coalesced_ratio",
    "core.propagate.iterations",
    "core.sync.latch_pause_us.p50",
    "core.sync.latch_pause_us.max",
    "core.sync.final_records",
    "core.sync.old_txns",
    "core.sync.locks_transferred",
    "core.finish.post_records",
    "core.migration_fail_ratio",
    "phase.copy.txn_tps",
    "phase.copy.txn_p99_us",
    "phase.propagate.txn_tps",
    "phase.sync.txn_max_us",
];

fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: u64,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.0.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            n: n as u64,
        });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn end_to_end(l: &Ledger, w: Workload, m: &mut Metrics) {
    m.add("setup_s", median(&l.setup_s), "s", l.setup_s.len());
    // Throughput and latency: each window's figure, median over the
    // windows; `n` counts windows.
    for (tag, a) in [("base", &l.base), ("migrating", &l.migrating)] {
        let n = a.win_tps.len();
        m.add(&format!("txn_tps.{tag}"), median(&a.win_tps), "1/s", n);
        m.add(
            &format!("txn_p50_us.{tag}"),
            us(pct(&a.win_p50, 0.5)),
            "us",
            n,
        );
        m.add(
            &format!("txn_p95_us.{tag}"),
            us(pct(&a.win_p95, 0.5)),
            "us",
            n,
        );
        m.add(
            &format!("txn_p99_us.{tag}"),
            us(pct(&a.win_p99, 0.5)),
            "us",
            n,
        );
    }
    m.add("txn_rel_tps", median(&l.rel_tps), "ratio", l.rel_tps.len());
    let attempted = l.base.attempted + l.migrating.attempted;
    m.add(
        "txn_fail_ratio",
        ratio(
            (l.base.failed() + l.migrating.failed()) as f64,
            attempted as f64,
        ),
        "ratio",
        attempted as usize,
    );
    let c = &l.core;
    // `migration_s` is the duration of the workload's migration
    // operation: prepare to cutover, or one catch-up in `foj-catchup`.
    let op_s = if w == Workload::FojCatchup {
        &c.catchup_s
    } else {
        &c.migration_s
    };
    m.add("migration_s", median(op_s), "s", op_s.len());
    m.add(
        "migration_fail_ratio",
        ratio(c.failed as f64, c.attempted as f64),
        "ratio",
        c.attempted as usize,
    );
    if w == Workload::FojCatchup {
        m.add("catchup_s", median(&c.catchup_s), "s", c.catchup_s.len());
    }
    if w == Workload::FojReadmix {
        let r = &l.migrating.read_lat;
        m.add("read_p50_us.migrating", us(pct(r, 0.5)), "us", r.len());
        m.add("read_p99_us.migrating", us(pct(r, 0.99)), "us", r.len());
    }
}

fn per_layer(l: &Ledger, m: &mut Metrics) {
    let (b, g) = (&l.base, &l.migrating);
    let call = |m: &mut Metrics, name: &str, v: &[u64], qs: &[(&str, f64)]| {
        for (tag, q) in qs {
            m.add(&format!("{name}.{tag}"), us(pct(v, *q)), "us", v.len());
        }
    };
    let p50_99: &[(&str, f64)] = &[("p50", 0.5), ("p99", 0.99)];
    call(m, "engine.begin_us", &b.begin, p50_99);
    call(m, "engine.update_us", &b.update, p50_99);
    call(m, "engine.commit_us", &b.commit, p50_99);
    let aborts: Vec<u64> = b.abort.iter().chain(&g.abort).copied().collect();
    call(m, "engine.abort_us", &aborts, &[("p50", 0.5)]);
    call(m, "engine.snapshot_read_us", &g.snapshot_read, p50_99);
    call(
        m,
        "engine.begin_snapshot_us",
        &g.begin_snapshot,
        &[("p50", 0.5)],
    );
    m.add(
        "engine.mvcc_gc_ms",
        pct(&g.gc, 0.5) as f64 / 1e6,
        "ms",
        g.gc.len(),
    );
    let both = |f: fn(&Agg) -> u64| f(b) + f(g);
    m.add(
        "engine.mvcc_reclaimed",
        both(|a| a.probe.reclaimed) as f64,
        "count",
        1,
    );
    m.add(
        "engine.doomed_aborts",
        both(|a| a.probe.doomed) as f64,
        "count",
        1,
    );
    m.add(
        "engine.deadlock_aborts",
        both(|a| a.probe.deadlock) as f64,
        "count",
        1,
    );
    let commits = both(|a| a.committed);
    m.add(
        "txn.lock_waits_per_kcommit",
        ratio(both(|a| a.probe.lock_waits) as f64 * 1e3, commits as f64),
        "count",
        commits as usize,
    );

    // WAL: base windows, per update commit.
    call(m, "wal.flush_us", &b.flush, p50_99);
    let uc = b.update_commits as f64;
    let [bytes, _appends, append_ns, flushes] = b.probe.disk;
    m.add(
        "wal.flushes_per_commit",
        ratio(flushes as f64, uc),
        "count",
        uc as usize,
    );
    m.add(
        "wal.append_busy_ms",
        append_ns as f64 / 1e6,
        "ms",
        b.probe.disk[1] as usize,
    );
    m.add(
        "wal.bytes_per_commit",
        ratio(bytes as f64, uc),
        "bytes",
        uc as usize,
    );
    m.add(
        "wal.records_per_commit",
        ratio(b.probe.log_records as f64, uc),
        "count",
        uc as usize,
    );

    let c = &l.core;
    for name in ["prepare", "copy", "propagate", "sync", "finish"] {
        let v = c
            .phase_ms
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[][..], |(_, v)| v.as_slice());
        m.add(&format!("core.{name}_ms"), median(v), "ms", v.len());
    }
    m.add(
        "core.copy.rows_per_s",
        median(&c.copy_rows_per_s),
        "1/s",
        c.copy_rows_per_s.len(),
    );
    m.add(
        "core.propagate.records_per_s",
        per_s(c.prop_records, c.prop_ns),
        "1/s",
        c.prop_records as usize,
    );
    m.add(
        "core.propagate.iterate_ms.p99",
        pct(&c.iterate_ms, 0.99),
        "ms",
        c.iterate_ms.len(),
    );
    m.add(
        "core.propagate.relevant_ratio",
        ratio(c.prop_relevant as f64, c.prop_records as f64),
        "ratio",
        c.prop_records as usize,
    );
    m.add(
        "core.propagate.coalesced_ratio",
        ratio(c.prop_coalesced as f64, c.prop_relevant as f64),
        "ratio",
        c.prop_relevant as usize,
    );
    m.add(
        "core.propagate.iterations",
        median(&c.iterations),
        "count",
        c.iterations.len(),
    );
    let lp = &c.latch_pause_us;
    m.add("core.sync.latch_pause_us.p50", median(lp), "us", lp.len());
    m.add("core.sync.latch_pause_us.max", pct(lp, 1.0), "us", lp.len());
    for (name, v) in [
        ("core.sync.final_records", &c.final_records),
        ("core.sync.old_txns", &c.old_txns),
        ("core.sync.locks_transferred", &c.locks_transferred),
        ("core.finish.post_records", &c.post_records),
    ] {
        m.add(name, median(v), "count", v.len());
    }
    m.add(
        "core.migration_fail_ratio",
        ratio(c.failed as f64, c.attempted as f64),
        "ratio",
        c.attempted as usize,
    );

    let phase = |name: &str| l.phases.iter().find(|(n, _)| *n == name).map(|(_, p)| p);
    let (tps, p99) = phase("copy").map_or((0.0, 0), |p| {
        (per_s(p.committed, p.dur_ns), pct(&p.lat, 0.99))
    });
    let n = phase("copy").map_or(0, |p| p.lat.len());
    m.add("phase.copy.txn_tps", tps, "1/s", n);
    m.add("phase.copy.txn_p99_us", us(p99), "us", n);
    let p = phase("propagate");
    m.add(
        "phase.propagate.txn_tps",
        p.map_or(0.0, |p| per_s(p.committed, p.dur_ns)),
        "1/s",
        p.map_or(0, |p| p.lat.len()),
    );
    let p = phase("sync");
    m.add(
        "phase.sync.txn_max_us",
        p.map_or(0.0, |p| us(p.max_overlap)),
        "us",
        p.map_or(0, |p| p.overlapping as usize),
    );
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(m: &Metrics, names: &[&str]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|n| {
            let x = m.get(n).expect("every listed metric is computed");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

struct Args {
    cfg: Config,
    workload_name: String,
    out: Option<String>,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut rev = "unknown".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = Some(val),
            "--rev" => rev = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let w = Workload::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or(format!("unknown workload {name}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        cfg: Config {
            workload: w,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            // At most `nproc` clients, and at most 2 so that the
            // offered load is the same on every host with >= 2 cores.
            clients: nproc.min(2),
        },
        workload_name: name,
        out,
        rev,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("morph-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("MORPH_")) {
        eprintln!("morph-perfbench: refusing to run with {k} set; the benchmark measures defaults");
        std::process::exit(2);
    }
    let cfg = &args.cfg;
    let epoch = Instant::now();
    let mut ledger = Ledger::default();
    let run = match cfg.workload {
        Workload::FojCatchup => workloads::catchup(cfg, epoch, &mut ledger),
        _ => workloads::full_migrations(cfg, epoch, &mut ledger),
    };
    if let Err(e) = run {
        eprintln!("morph-perfbench: set-up failed: {e}");
        std::process::exit(1);
    }

    let mut m = Metrics::default();
    end_to_end(&ledger, cfg.workload, &mut m);
    per_layer(&ledger, &mut m);

    // Checks. Any failure makes the run incorrect.
    let mut checks: Vec<(String, bool)> = vec![
        (
            format!(
                "durability: durable_lost = {} of {} acknowledged commits",
                ledger.durable_lost, ledger.durable_checked
            ),
            ledger.durable_lost == 0 && ledger.durable_checked > 0,
        ),
        (
            format!(
                "theorem-1: {} table checks, {} mismatches",
                ledger.oracle_checks,
                ledger.oracle_failures.len()
            ),
            ledger.oracle_failures.is_empty()
                && (ledger.oracle_checks > 0 || ledger.core.failed == ledger.core.attempted),
        ),
        (
            format!("snapshot reads that found no row: {}", ledger.read_missing),
            ledger.read_missing == 0,
        ),
        (
            format!(
                "unexpected client errors: {}",
                ledger.base.failed_other + ledger.migrating.failed_other
            ),
            ledger.base.failed_other + ledger.migrating.failed_other == 0,
        ),
    ];
    let mut info: Vec<String> = Vec::new();
    if cfg.trace {
        let a = [&ledger.base, &ledger.migrating];
        let in_calls: u64 = a.iter().map(|x| x.in_calls_ns).sum();
        let txn: u64 = a.iter().map(|x| x.traced_txn_ns).sum();
        let cover = ratio(in_calls as f64, txn as f64);
        checks.push((
            format!(
                "layer sum: engine calls cover {:.1}% of traced transaction time (>= 90%)",
                cover * 100.0
            ),
            cover >= 0.9,
        ));
        let mig = m.get("migration_s").map_or(0.0, |x| x.value);
        if cfg.workload != Workload::FojCatchup {
            let sum = median(&ledger.core.phase_sum_s);
            let off = ratio((sum - mig).abs(), mig);
            checks.push((
                format!(
                    "phase sum: five phase spans {:.4} s vs migration_s {:.4} s ({:.2}% apart, <= 10%)",
                    sum,
                    mig,
                    off * 100.0
                ),
                ledger.core.migration_s.is_empty() || off <= 0.10,
            ));
        }
        let b = &ledger.base;
        let traced = per_s(b.traced_committed, b.traced_dur_ns);
        let untraced = per_s(b.untraced_committed, b.untraced_dur_ns);
        info.push(format!(
            "tracing overhead: traced txn_tps.base {traced:.1} vs untraced {untraced:.1} (ratio {:.3})",
            ratio(traced, untraced)
        ));
    }
    let correct = checks.iter().all(|(_, ok)| *ok);
    let c = &ledger.core;
    for (name, v) in [
        ("setup_s", &ledger.setup_s),
        ("migration_s", &c.migration_s),
        ("catchup_s", &c.catchup_s),
    ] {
        if !v.is_empty() {
            let s: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            info.push(format!("{name} samples: {}", s.join(" ")));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} clients={} nproc={} fsync_us={} rev={}",
        args.workload_name,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.clients,
        nproc,
        disk::FSYNC.as_micros(),
        args.rev
    );
    for x in &m.0 {
        println!("{:<34} {:>14.4} {:<6} n={}", x.name, x.value, x.unit, x.n);
    }
    for e in &ledger.core.errors {
        println!("# migration error: {e}");
    }
    for e in ledger.oracle_failures.iter().chain(&ledger.client_errors) {
        println!("# error: {e}");
    }
    for (what, ok) in &checks {
        println!("# check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    for i in &info {
        println!("# {i}");
    }

    // The result line counts client operations. Migrations are not
    // among them: a failed one shows in `migration_fail_ratio`.
    let attempted = ledger.base.ops + ledger.migrating.ops;
    let failed = ledger.base.ops_failed + ledger.migrating.ops_failed;
    let names = if cfg.trace { PER_LAYER } else { END_TO_END };
    if let Some(path) = &args.out {
        let all: Vec<String> =
            m.0.iter()
                .map(|x| {
                    format!(
                        "    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                        json_str(&x.name),
                        json_num(x.value),
                        json_str(x.unit),
                        x.n
                    )
                })
                .collect();
        let list = |v: Vec<String>| v.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
        let record = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"rev\": {},\n  \"nproc\": {},\n  \"clients\": {},\n  \"fsync_us\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"checks\": [{}],\n  \"errors\": [{}],\n  \"info\": [{}],\n  \"metrics\": {{\n{}\n  }}\n}}\n",
            json_str(&args.workload_name),
            cfg.seed,
            cfg.seconds,
            cfg.trace,
            json_str(&args.rev),
            nproc,
            cfg.clients,
            disk::FSYNC.as_micros(),
            correct,
            attempted,
            failed,
            list(checks.iter().map(|(w, ok)| format!("{} {w}", if *ok { "ok" } else { "FAILED" })).collect()),
            list(ledger.core.errors.iter().chain(&ledger.oracle_failures).cloned().collect()),
            list(info.clone()),
            all.join(",\n")
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("morph-perfbench: cannot write {path}: {e}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&m, names)
    );
    if !correct {
        std::process::exit(1);
    }
}
