//! Accumulates what one run measured: client samples and engine/WAL
//! counter deltas bucketed into base and migrating windows, plus the
//! per-phase spans of each migration.

use crate::client::{ClientOut, Outcome, TxnSample};
use crate::disk::DiskStats;
use morph_core::TransformReport;
use morph_engine::Database;

/// Engine, lock-manager and WAL counters at one instant.
#[derive(Clone, Copy, Default)]
pub struct Probe {
    pub log_records: u64,
    pub disk: [u64; 4],
    pub lock_waits: u64,
    pub doomed: u64,
    pub deadlock: u64,
    pub reclaimed: u64,
}

impl Probe {
    pub fn take(db: &Database, disk: &DiskStats) -> Probe {
        let c = db.counters_snapshot();
        Probe {
            log_records: db.log().last_lsn().0,
            disk: disk.counts(),
            lock_waits: db.locks().waits(),
            doomed: c.doomed_aborts,
            deadlock: c.deadlock_aborts,
            reclaimed: c.mvcc_reclaimed,
        }
    }

    fn add_delta(&mut self, before: &Probe, after: &Probe) {
        self.log_records += after.log_records - before.log_records;
        for i in 0..4 {
            self.disk[i] += after.disk[i] - before.disk[i];
        }
        self.lock_waits += after.lock_waits - before.lock_waits;
        self.doomed += after.doomed - before.doomed;
        self.deadlock += after.deadlock - before.deadlock;
        self.reclaimed += after.reclaimed - before.reclaimed;
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Base,
    Migrating,
    /// The window of a failed migration: it counts toward neither base
    /// nor migrating numbers (its near-idle stall would otherwise read
    /// as throughput), only toward `migration_fail_ratio`.
    Excluded,
}

/// One measured interval, times in ns since the run's epoch.
pub struct Window {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub traced: bool,
    /// Phase-call spans inside a migrating window.
    pub phases: Vec<(&'static str, u64, u64)>,
    pub before: Probe,
    pub after: Probe,
}

/// Samples and counters of all windows of one kind.
#[derive(Default)]
pub struct Agg {
    pub dur_ns: u64,
    /// Client operations (a transaction with its re-issued attempts)
    /// ending in the window, and those that did not commit.
    pub ops: u64,
    pub ops_failed: u64,
    /// Transaction attempts; a rolled-back attempt counts as failed.
    pub attempted: u64,
    pub committed: u64,
    pub update_commits: u64,
    pub failed_schema: u64,
    pub failed_conflict: u64,
    pub failed_other: u64,
    /// Committed read-only transaction latencies (ns).
    pub read_lat: Vec<u64>,
    pub probe: Probe,
    // Traced engine calls (ns).
    pub begin: Vec<u64>,
    pub update: Vec<u64>,
    pub commit: Vec<u64>,
    pub abort: Vec<u64>,
    pub begin_snapshot: Vec<u64>,
    pub snapshot_read: Vec<u64>,
    /// Traced committed transactions: time inside engine calls and
    /// client-observed time (the layer-sum check).
    pub in_calls_ns: u64,
    pub traced_txn_ns: u64,
    pub traced_committed: u64,
    pub traced_dur_ns: u64,
    pub untraced_committed: u64,
    pub untraced_dur_ns: u64,
    pub flush: Vec<u64>,
    pub gc: Vec<u64>,
    /// Per window: committed transactions per second, and the p50, p95
    /// and p99 of their latencies (ns). The end-to-end figures are medians
    /// over windows, so a host stall that hits one window moves one
    /// sample, not the pooled tail.
    pub win_tps: Vec<f64>,
    pub win_p50: Vec<u64>,
    pub win_p95: Vec<u64>,
    pub win_p99: Vec<u64>,
}

impl Agg {
    fn absorb(&mut self, s: &TxnSample) {
        self.attempted += 1;
        if !s.retried {
            self.ops += 1;
            self.ops_failed += u64::from(s.outcome != Outcome::Committed);
        }
        match s.outcome {
            Outcome::Committed => {
                self.committed += 1;
                if s.read_only {
                    self.read_lat.push(s.latency());
                } else {
                    self.update_commits += 1;
                }
            }
            Outcome::Schema => self.failed_schema += 1,
            Outcome::Conflict => self.failed_conflict += 1,
            Outcome::Other => self.failed_other += 1,
        }
        if !s.traced {
            return;
        }
        let calls = s.calls[..s.n_calls as usize].iter().map(|&c| c as u64);
        if s.read_only {
            self.begin_snapshot.push(s.first as u64);
            self.snapshot_read.extend(calls);
        } else {
            self.begin.push(s.first as u64);
            self.update.extend(calls);
            if s.outcome == Outcome::Committed {
                self.commit.push(s.last as u64);
            } else {
                self.abort.push(s.last as u64);
            }
        }
        if s.outcome == Outcome::Committed {
            self.in_calls_ns += s.in_calls();
            self.traced_txn_ns += s.latency();
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed_schema + self.failed_conflict + self.failed_other
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn pct<T: Copy + PartialOrd + Default>(v: &[T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn per_s(n: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        n as f64 * 1e9 / ns as f64
    }
}

/// Client samples inside the phase-call spans of migrating windows.
#[derive(Default)]
pub struct PhaseAgg {
    pub dur_ns: u64,
    pub committed: u64,
    pub lat: Vec<u64>,
    /// Committed transactions overlapping the span, and the longest.
    pub overlapping: u64,
    pub max_overlap: u64,
}

/// Per-migration figures, read from the phase spans timed around each
/// `TransformJob` call and from the report the job returns.
#[derive(Default)]
pub struct CoreAgg {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub migration_s: Vec<f64>,
    pub phase_sum_s: Vec<f64>,
    pub phase_ms: Vec<(&'static str, Vec<f64>)>,
    pub copy_rows_per_s: Vec<f64>,
    pub prop_records: u64,
    pub prop_relevant: u64,
    pub prop_coalesced: u64,
    pub prop_ns: u64,
    pub iterate_ms: Vec<f64>,
    pub iterations: Vec<f64>,
    pub latch_pause_us: Vec<f64>,
    pub final_records: Vec<f64>,
    pub old_txns: Vec<f64>,
    pub locks_transferred: Vec<f64>,
    pub post_records: Vec<f64>,
    pub catchup_s: Vec<f64>,
}

impl CoreAgg {
    pub fn phase(&mut self, name: &'static str, ms: f64) {
        match self.phase_ms.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(ms),
            None => self.phase_ms.push((name, vec![ms])),
        }
    }

    /// Record one completed migration.
    pub fn completed(&mut self, phases: &[(&'static str, u64, u64)], report: &TransformReport) {
        let (Some(first), Some(last)) = (phases.first(), phases.last()) else {
            return;
        };
        self.migration_s.push((last.2 - first.1) as f64 / 1e9);
        self.phase_sum_s
            .push(phases.iter().map(|p| (p.2 - p.1) as f64).sum::<f64>() / 1e9);
        for &(name, a, b) in phases {
            self.phase(name, (b - a) as f64 / 1e6);
            if name == "copy" && b > a {
                self.copy_rows_per_s
                    .push(report.population.rows_written as f64 * 1e9 / (b - a) as f64);
            }
            if name == "propagate" {
                self.prop_ns += b - a;
            }
        }
        for it in &report.iterations {
            self.prop_records += it.records as u64;
            self.prop_relevant += it.relevant as u64;
            self.iterate_ms.push(it.duration.as_secs_f64() * 1e3);
        }
        self.iterations.push(report.iterations.len() as f64);
        let s = &report.sync;
        self.latch_pause_us.push(s.latch_pause.as_secs_f64() * 1e6);
        self.final_records.push(s.final_records as f64);
        self.old_txns.push(s.old_txns as f64);
        self.locks_transferred.push(s.locks_transferred as f64);
        self.post_records.push(report.post_records as f64);
    }
}

#[derive(Default)]
pub struct Ledger {
    pub base: Agg,
    pub migrating: Agg,
    pub phases: Vec<(&'static str, PhaseAgg)>,
    pub core: CoreAgg,
    pub setup_s: Vec<f64>,
    /// Per migrating window: its throughput over that of the base
    /// window(s) just before it, on the same database.
    pub rel_tps: Vec<f64>,
    /// Correctness: acknowledged commits missing from the durable
    /// image, Theorem-1 mismatches, and other failed checks.
    pub durable_checked: u64,
    pub durable_lost: u64,
    pub oracle_checks: u64,
    pub oracle_failures: Vec<String>,
    pub read_missing: u64,
    pub client_errors: Vec<String>,
}

impl Ledger {
    fn phase_agg(&mut self, name: &'static str) -> &mut PhaseAgg {
        if let Some(i) = self.phases.iter().position(|(n, _)| *n == name) {
            return &mut self.phases[i].1;
        }
        self.phases.push((name, PhaseAgg::default()));
        &mut self.phases.last_mut().expect("just pushed").1
    }

    pub fn fail(&mut self, what: String) {
        if self.oracle_failures.len() < 16 {
            self.oracle_failures.push(what);
        }
    }

    /// Fold one database's windows and client outputs into the ledger.
    pub fn absorb(&mut self, windows: &[Window], outs: &[ClientOut], disk: &DiskStats) {
        let find = |t: u64| windows.iter().find(|w| w.start <= t && t < w.end);
        let mut lat: Vec<Vec<u64>> = vec![Vec::new(); windows.len()];
        for s in outs.iter().flat_map(|o| &o.samples) {
            if s.outcome == Outcome::Committed {
                if let Some(i) = windows
                    .iter()
                    .position(|w| w.start <= s.end && s.end < w.end)
                {
                    lat[i].push(s.latency());
                }
            }
        }
        // Base commits and time since the last migrating window.
        let (mut base_n, mut base_ns) = (0u64, 0u64);
        for (w, lat) in windows.iter().zip(&lat) {
            let dur = w.end - w.start;
            let tps = per_s(lat.len() as u64, dur);
            match w.kind {
                Kind::Base => {
                    base_n += lat.len() as u64;
                    base_ns += dur;
                }
                Kind::Migrating => {
                    let base = per_s(base_n, base_ns);
                    if base > 0.0 {
                        self.rel_tps.push(tps / base);
                    }
                    (base_n, base_ns) = (0, 0);
                }
                Kind::Excluded => (base_n, base_ns) = (0, 0),
            }
            let agg = match w.kind {
                Kind::Base => &mut self.base,
                Kind::Migrating => &mut self.migrating,
                Kind::Excluded => continue,
            };
            agg.dur_ns += dur;
            agg.win_tps.push(tps);
            agg.win_p50.push(pct(lat, 0.5));
            agg.win_p95.push(pct(lat, 0.95));
            agg.win_p99.push(pct(lat, 0.99));
            agg.probe.add_delta(&w.before, &w.after);
            if w.traced {
                agg.traced_dur_ns += dur;
            } else {
                agg.untraced_dur_ns += dur;
            }
            for &(name, a, b) in &w.phases {
                let p = self.phase_agg(name);
                p.dur_ns += b - a;
                for s in outs.iter().flat_map(|o| &o.samples) {
                    if s.outcome != Outcome::Committed {
                        continue;
                    }
                    if a <= s.end && s.end < b {
                        p.committed += 1;
                        p.lat.push(s.latency());
                    }
                    if s.start < b && s.end >= a {
                        p.overlapping += 1;
                        p.max_overlap = p.max_overlap.max(s.latency());
                    }
                }
            }
        }
        for out in outs {
            for s in &out.samples {
                let Some(w) = find(s.end) else { continue };
                let agg = match w.kind {
                    Kind::Base => &mut self.base,
                    Kind::Migrating => &mut self.migrating,
                    Kind::Excluded => continue,
                };
                agg.absorb(s);
                if s.outcome == Outcome::Committed {
                    if w.traced {
                        agg.traced_committed += 1;
                    } else {
                        agg.untraced_committed += 1;
                    }
                }
            }
            for &(at, took) in &out.gc {
                match find(at).map(|w| w.kind) {
                    Some(Kind::Base) => self.base.gc.push(took),
                    Some(Kind::Migrating) => self.migrating.gc.push(took),
                    _ => {}
                }
            }
            self.read_missing += out.read_missing;
            for e in &out.errors {
                if self.client_errors.len() < 8 {
                    self.client_errors.push(e.clone());
                }
            }
        }
        for &(at, took) in disk.flush_samples.lock().iter() {
            match find(at).map(|w| w.kind) {
                Some(Kind::Base) => self.base.flush.push(took),
                Some(Kind::Migrating) => self.migrating.flush.push(took),
                _ => {}
            }
        }
    }
}
