//! Closed-loop clients: zero think time, 10 operations per
//! transaction, each client on its own key slice (`key % clients ==
//! id`), so clients never contend with each other — only with the
//! migration.
//!
//! A transaction the migration rolls back (doomed at synchronization,
//! or its source frozen or dropped) is the paper's non-blocking design
//! at work, not a failed operation: the client re-issues it, against
//! the post-migration tables, until it commits. Every attempt is a
//! sample; the operation is the last attempt, timed from the start of
//! the first.
//!
//! With tracing on, every call into the engine is timed from outside
//! (begin, each update or snapshot read, commit or abort); the
//! untraced run times only whole transactions.

use morph_common::{DbError, Key, TxnId, Value};
use morph_engine::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub const OPS_PER_TXN: usize = 10;

/// Hot (migrating) tables whose last acknowledged values the oracles
/// check.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Hot {
    T,
    R,
    S,
}

impl Hot {
    fn table(self) -> &'static str {
        match self {
            Hot::T => "T",
            Hot::R => "R",
            Hot::S => "S",
        }
    }
}

/// Which tables a client's transactions touch.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// Updates of `T.b` with probability `hot`, `dummy` otherwise.
    Split { hot: f64 },
    /// Updates of `R.b` / `S.d` (one in five on `S`) with probability
    /// `hot`; a `read_share` of transactions are instead read-only
    /// snapshot transactions of 10 point reads on `R`/`S`. Client 0
    /// runs `mvcc_gc` every `gc_every` transactions (0 = never).
    Foj {
        hot: f64,
        read_share: f64,
        gc_every: u64,
    },
}

/// Key-space sizes (paper scale).
#[derive(Clone, Copy, Debug)]
pub struct Keys {
    pub hot_rows: i64,
    pub s_rows: i64,
    pub dummy_rows: i64,
}

pub struct Shared {
    pub epoch: Instant,
    pub stop: AtomicBool,
    /// Time individual engine calls while set.
    pub trace: AtomicBool,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Committed,
    /// Rolled back by the migration (doomed at synchronization, or the
    /// source table was frozen or dropped).
    Schema,
    /// Deadlock victim or lock timeout.
    Conflict,
    /// Any other error (counted, and printed).
    Other,
}

/// One transaction as the client saw it. Times in ns since
/// [`Shared::epoch`]; call times are 0 unless `traced`.
#[derive(Clone, Copy)]
pub struct TxnSample {
    pub start: u64,
    pub end: u64,
    pub read_only: bool,
    pub traced: bool,
    pub outcome: Outcome,
    /// `begin` (or `begin_snapshot`) call.
    pub first: u32,
    /// Update or snapshot-read calls, `n_calls` of them.
    pub calls: [u32; OPS_PER_TXN],
    pub n_calls: u8,
    /// `commit` or `abort` call (0 for read-only transactions).
    pub last: u32,
    /// Rolled back, so re-issued unless the run stopped: an attempt,
    /// not an operation.
    pub retried: bool,
}

impl TxnSample {
    pub fn latency(&self) -> u64 {
        self.end - self.start
    }

    /// Rolled back by the migration or a lock conflict; such an
    /// attempt is re-issued.
    pub fn rolled_back(&self) -> bool {
        matches!(self.outcome, Outcome::Schema | Outcome::Conflict)
    }

    /// Time spent inside engine calls.
    pub fn in_calls(&self) -> u64 {
        let calls: u64 = self.calls[..self.n_calls as usize]
            .iter()
            .map(|&c| c as u64)
            .sum();
        self.first as u64 + calls + self.last as u64
    }
}

#[derive(Default)]
pub struct ClientOut {
    pub samples: Vec<TxnSample>,
    /// Transactions whose commit was acknowledged (update transactions
    /// only; read-only snapshots log nothing).
    pub acked: Vec<TxnId>,
    /// Last acknowledged write per hot key: the writer's serial.
    pub last: HashMap<(Hot, i64), u64>,
    /// `(end, duration ns)` per `mvcc_gc` call.
    pub gc: Vec<(u64, u64)>,
    /// Snapshot reads that found no row (must stay 0).
    pub read_missing: u64,
    /// First few unexpected errors, for the report.
    pub errors: Vec<String>,
}

/// The value client `id` writes in its transaction number `serial`.
pub fn value_of(id: usize, serial: u64) -> String {
    format!("c{id}-{serial}")
}

pub struct Client {
    pub id: usize,
    pub clients: usize,
    pub db: Arc<Database>,
    pub shared: Arc<Shared>,
    pub mix: Mix,
    pub keys: Keys,
    pub seed: u64,
}

fn ns(d: std::time::Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

impl Client {
    /// A random key of `rows` owned by this client.
    fn own_key(&self, rng: &mut StdRng, rows: i64) -> i64 {
        let n = self.clients as i64;
        let slots = (rows - self.id as i64 + n - 1) / n;
        rng.gen_range(0..slots) * n + self.id as i64
    }

    fn since(&self, t: Instant) -> u64 {
        t.duration_since(self.shared.epoch).as_nanos() as u64
    }

    pub fn run(self) -> ClientOut {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = ClientOut::default();
        // Once the migration froze or dropped a source, the hot share
        // goes to `dummy` so the offered load stays the same.
        let mut switched = false;
        let mut serial = 0u64;
        let mut pending: Vec<(Hot, i64)> = Vec::with_capacity(OPS_PER_TXN);
        while !self.shared.stop.load(Ordering::Relaxed) {
            serial += 1;
            let read = matches!(self.mix, Mix::Foj { read_share, .. } if rng.gen_bool(read_share));
            let mut op_start = None;
            loop {
                let traced = self.shared.trace.load(Ordering::Relaxed);
                let mut sample = if read {
                    self.read_txn(&mut rng, traced, &mut switched, &mut out)
                } else {
                    pending.clear();
                    self.update_txn(
                        &mut rng,
                        traced,
                        serial,
                        &mut switched,
                        &mut pending,
                        &mut out,
                    )
                };
                // A schema rollback switches the client to `dummy`, so
                // the same migration cannot roll the re-issued attempt
                // back again. An operation the run stops during a
                // rolled-back attempt is abandoned: it has no last
                // attempt, so it is not counted.
                sample.retried = sample.rolled_back();
                // The client waits through every attempt, so the
                // operation's latency starts with its first one.
                sample.start = *op_start.get_or_insert(sample.start);
                out.samples.push(sample);
                if !sample.retried || self.shared.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            if let Mix::Foj { gc_every, .. } = self.mix {
                if self.id == 0 && gc_every > 0 && serial.is_multiple_of(gc_every) {
                    let t0 = Instant::now();
                    let _ = self.db.mvcc_gc();
                    out.gc
                        .push((self.since(Instant::now()), t0.elapsed().as_nanos() as u64));
                }
            }
        }
        out
    }

    fn classify(e: &DbError, switched: &mut bool) -> Outcome {
        match e {
            DbError::TxnDoomed(_) | DbError::TableFrozen(_) | DbError::NoSuchTable(_) => {
                *switched = true;
                Outcome::Schema
            }
            DbError::Deadlock(_) | DbError::LockTimeout(_) => Outcome::Conflict,
            _ => Outcome::Other,
        }
    }

    fn note(out: &mut ClientOut, e: &DbError) {
        if out.errors.len() < 4 {
            out.errors.push(e.to_string());
        }
    }

    fn update_txn(
        &self,
        rng: &mut StdRng,
        traced: bool,
        serial: u64,
        switched: &mut bool,
        pending: &mut Vec<(Hot, i64)>,
        out: &mut ClientOut,
    ) -> TxnSample {
        let hot_p = match self.mix {
            Mix::Split { hot } | Mix::Foj { hot, .. } => hot,
        };
        let value = Value::str(value_of(self.id, serial));
        let t0 = Instant::now();
        let txn = self.db.begin();
        let mut s = TxnSample {
            start: self.since(t0),
            end: 0,
            read_only: false,
            traced,
            outcome: Outcome::Committed,
            first: if traced { ns(t0.elapsed()) } else { 0 },
            calls: [0; OPS_PER_TXN],
            n_calls: 0,
            last: 0,
            retried: false,
        };
        let mut failed = None;
        for i in 0..OPS_PER_TXN {
            let hot = if rng.gen_bool(hot_p) && !*switched {
                Some(match self.mix {
                    Mix::Split { .. } => (Hot::T, self.own_key(rng, self.keys.hot_rows)),
                    Mix::Foj { .. } if rng.gen_bool(0.2) => {
                        (Hot::S, self.own_key(rng, self.keys.s_rows))
                    }
                    Mix::Foj { .. } => (Hot::R, self.own_key(rng, self.keys.hot_rows)),
                })
            } else {
                None
            };
            let (table, key) = match hot {
                Some((h, k)) => (h.table(), k),
                None => ("dummy", self.own_key(rng, self.keys.dummy_rows)),
            };
            let c0 = Instant::now();
            let res = self
                .db
                .update(txn, table, &Key::single(key), &[(1, value.clone())]);
            if traced {
                s.calls[i] = ns(c0.elapsed());
            }
            s.n_calls += 1;
            match res {
                Ok(()) => pending.extend(hot),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let c0 = Instant::now();
        let result = match failed {
            None => self.db.commit(txn),
            Some(e) => {
                let _ = self.db.abort(txn);
                Err(e)
            }
        };
        let end = Instant::now();
        if traced {
            s.last = ns(end.duration_since(c0));
        }
        s.end = self.since(end);
        match result {
            Ok(()) => {
                out.acked.push(txn);
                for &hk in pending.iter() {
                    out.last.insert(hk, serial);
                }
            }
            Err(e) => {
                s.outcome = Self::classify(&e, switched);
                if s.outcome == Outcome::Other {
                    Self::note(out, &e);
                }
            }
        }
        s
    }

    fn read_txn(
        &self,
        rng: &mut StdRng,
        traced: bool,
        switched: &mut bool,
        out: &mut ClientOut,
    ) -> TxnSample {
        let t0 = Instant::now();
        let snap = self.db.begin_snapshot();
        let mut s = TxnSample {
            start: self.since(t0),
            end: 0,
            read_only: true,
            traced,
            outcome: Outcome::Committed,
            first: if traced { ns(t0.elapsed()) } else { 0 },
            calls: [0; OPS_PER_TXN],
            n_calls: 0,
            last: 0,
            retried: false,
        };
        match snap {
            Ok(snap) => {
                for i in 0..OPS_PER_TXN {
                    let (table, rows) = if *switched {
                        ("dummy", self.keys.dummy_rows)
                    } else if rng.gen_bool(0.2) {
                        ("S", self.keys.s_rows)
                    } else {
                        ("R", self.keys.hot_rows)
                    };
                    let key = Key::single(rng.gen_range(0..rows));
                    let c0 = Instant::now();
                    let res = self.db.snapshot_read(&snap, table, &key);
                    if traced {
                        s.calls[i] = ns(c0.elapsed());
                    }
                    s.n_calls += 1;
                    match res {
                        Ok(Some(_)) => {}
                        Ok(None) => out.read_missing += 1,
                        Err(e) => {
                            s.outcome = Self::classify(&e, switched);
                            if s.outcome == Outcome::Other {
                                Self::note(out, &e);
                            }
                            break;
                        }
                    }
                }
            }
            Err(e) => {
                s.outcome = Outcome::Other;
                Self::note(out, &e);
            }
        }
        s.end = self.since(Instant::now());
        s
    }
}
