//! The three workloads. See `NOTES.md` for why each exists.

use crate::client::{value_of, Client, ClientOut, Hot, Keys, Mix, Shared};
use crate::disk::{DiskStats, ModelDisk};
use crate::ledger::{Kind, Ledger, Probe, Window};
use morph_common::{DbResult, TxnId, Value};
use morph_core::foj::verify_against_reference;
use morph_core::propagate::Propagator;
use morph_core::{
    FojMapping, FojSpec, SplitSpec, TransformJob, TransformOperator, TransformOptions,
    TransformPlan, TransformReport,
};
use morph_engine::Database;
use morph_txn::LockManagerConfig;
use morph_wal::{scan_stream, FaultHandle, LogManager, LogRecordRef};
use morph_workload::{setup_dummy, setup_foj_sources, setup_split_source};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Paper scale (§6): 50K rows in T (20K split values) or 50K in R and
/// 20K in S, plus 50K dummy rows for the non-source share of updates.
const HOT_ROWS: i64 = 50_000;
const S_ROWS: i64 = 20_000;
const DUMMY_ROWS: i64 = 50_000;
const KEYS: Keys = Keys {
    hot_rows: HOT_ROWS,
    s_rows: S_ROWS,
    dummy_rows: DUMMY_ROWS,
};

/// Clients run before the first window opens.
const WARMUP: Duration = Duration::from_millis(100);
/// Base window before each full migration.
const BASE: Duration = Duration::from_millis(250);
/// Per-migration wall-clock budget (`TransformOptions::deadline`). It
/// also caps `finish`, so a stalled post-sync drain costs at most this.
const DEADLINE: Duration = Duration::from_millis(1_500);
/// A run stops starting rounds once its wall-clock time reaches this
/// multiple of `--seconds`, however little it measured: the window of a
/// failed migration measures nothing but costs up to [`DEADLINE`].
const MAX_WALL_FACTOR: f64 = 4.0;
/// Full migrations (or catch-ups) per run, at least.
const MIN_ROUNDS: usize = 4;
/// `foj-catchup`: the held propagator is released once its backlog
/// reaches this many log records.
const HOLD_RECORDS: usize = 20_000;
/// `foj-catchup`: set-ups per run, for a median `setup_s`.
const CATCHUP_SETUPS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SplitMigrate,
    FojCatchup,
    FojReadmix,
}

impl Workload {
    pub const ALL: [(&'static str, Workload); 3] = [
        ("split-migrate", Workload::SplitMigrate),
        ("foj-catchup", Workload::FojCatchup),
        ("foj-readmix", Workload::FojReadmix),
    ];

    fn mix(self) -> Mix {
        match self {
            Workload::SplitMigrate => Mix::Split { hot: 0.2 },
            Workload::FojCatchup => Mix::Foj {
                hot: 0.8,
                read_share: 0.0,
                gc_every: 0,
            },
            Workload::FojReadmix => Mix::Foj {
                hot: 0.8,
                read_share: 0.8,
                gc_every: 200,
            },
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub clients: usize,
}

/// One database on the benchmark's modelled-fsync disk.
struct Env {
    db: Arc<Database>,
    handle: FaultHandle,
    disk: Arc<DiskStats>,
}

impl Env {
    fn new(epoch: Instant, cfg: &Config) -> DbResult<Env> {
        let (disk, handle, stats) = ModelDisk::new(epoch, cfg.trace);
        let db = Arc::new(Database::with_log(
            Arc::new(LogManager::with_backend(Box::new(disk))),
            LockManagerConfig::default(),
        ));
        setup_dummy(&db, DUMMY_ROWS as usize)?;
        match cfg.workload {
            Workload::SplitMigrate => setup_split_source(&db, HOT_ROWS as usize, S_ROWS as usize)?,
            Workload::FojCatchup | Workload::FojReadmix => {
                setup_foj_sources(&db, HOT_ROWS as usize, S_ROWS as usize)?
            }
        }
        if cfg.workload == Workload::FojReadmix {
            db.enable_mvcc();
        }
        Ok(Env {
            db,
            handle,
            disk: stats,
        })
    }
}

struct Clients {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<ClientOut>>,
}

impl Clients {
    fn spawn(env: &Env, cfg: &Config, epoch: Instant, round: u64) -> Clients {
        let shared = Arc::new(Shared {
            epoch,
            stop: AtomicBool::new(false),
            trace: AtomicBool::new(false),
        });
        let threads = (0..cfg.clients)
            .map(|id| {
                let client = Client {
                    id,
                    clients: cfg.clients,
                    db: Arc::clone(&env.db),
                    shared: Arc::clone(&shared),
                    mix: cfg.workload.mix(),
                    keys: KEYS,
                    seed: mix_seed(cfg.seed, round, id as u64),
                };
                std::thread::spawn(move || client.run())
            })
            .collect();
        Clients { shared, threads }
    }

    fn trace(&self, env: &Env, on: bool) {
        self.shared.trace.store(on, Ordering::Relaxed);
        env.disk.trace.store(on, Ordering::Relaxed);
    }

    fn stop(self) -> Vec<ClientOut> {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    }
}

/// Client RNG seeds derive from the workload seed (SplitMix64 finalizer).
fn mix_seed(seed: u64, round: u64, id: u64) -> u64 {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (id << 48);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Open a window, run `f`, close it.
fn window<T>(env: &Env, epoch: Instant, traced: bool, f: impl FnOnce() -> T) -> (Window, T) {
    let before = Probe::take(&env.db, &env.disk);
    let start = since(epoch);
    let out = f();
    let end = since(epoch);
    let after = Probe::take(&env.db, &env.disk);
    let w = Window {
        kind: Kind::Base,
        start,
        end,
        traced,
        phases: Vec::new(),
        before,
        after,
    };
    (w, out)
}

/// Base window(s). A traced run splits each into an untraced and a
/// traced half, so the tracing overhead is measured in the same run.
fn base_windows(env: &Env, clients: &Clients, epoch: Instant, trace: bool) -> Vec<Window> {
    if !trace {
        clients.trace(env, false);
        return vec![window(env, epoch, false, || std::thread::sleep(BASE)).0];
    }
    [false, true]
        .into_iter()
        .map(|on| {
            clients.trace(env, on);
            window(env, epoch, on, || std::thread::sleep(BASE / 2)).0
        })
        .collect()
}

/// One full migration, phase by phase — the sequence
/// `Transformer::run_plan` runs — with each phase call timed.
fn migrate(
    db: &Arc<Database>,
    plan: &TransformPlan,
    epoch: Instant,
) -> (Vec<(&'static str, u64, u64)>, DbResult<TransformReport>) {
    let mut phases = Vec::with_capacity(5);
    let abort = AtomicBool::new(false);
    let mut span = |name: &'static str, start: u64| phases.push((name, start, since(epoch)));
    let t = since(epoch);
    let job = TransformJob::prepare(db, plan, TransformOptions::default().deadline(DEADLINE));
    span("prepare", t);
    let mut job = match job {
        Ok(job) => job,
        Err(e) => return (phases, Err(e)),
    };
    let result = (|| {
        let t = since(epoch);
        let r = job.copy();
        span("copy", t);
        r?;
        let t = since(epoch);
        let r = job.propagate(&abort, None);
        span("propagate", t);
        r?;
        let t = since(epoch);
        let r = job.synchronize();
        span("sync", t);
        r?;
        let t = since(epoch);
        let r = job.finish(&abort);
        span("finish", t);
        r
    })();
    (phases, result)
}

/// Last acknowledged value per hot key, over all clients.
fn acked_values(outs: &[ClientOut]) -> HashMap<(Hot, i64), String> {
    let mut m = HashMap::new();
    for (id, out) in outs.iter().enumerate() {
        for (&k, &serial) in &out.last {
            m.insert(k, value_of(id, serial));
        }
    }
    m
}

/// Durability oracle: crash the disk (unflushed bytes are lost, up to a
/// torn tail), then every acknowledged commit must have a Commit record
/// in the surviving durable image.
fn check_durable(env: &Env, outs: &[ClientOut], ledger: &mut Ledger) {
    env.handle.crash();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let scanned = scan_stream(&env.handle.durable_bytes(), |rec| {
        if let LogRecordRef::Commit { txn } = rec {
            committed.insert(txn);
        }
        Ok(())
    });
    if let Err(e) = scanned {
        ledger.fail(format!("durable image does not decode: {e}"));
    }
    for txn in outs.iter().flat_map(|o| &o.acked) {
        ledger.durable_checked += 1;
        if !committed.contains(txn) {
            ledger.durable_lost += 1;
        }
    }
}

fn str_at(row: &[Value], i: usize) -> &str {
    row.get(i).and_then(Value::as_str).unwrap_or("<none>")
}

fn int_at(row: &[Value], i: usize) -> i64 {
    row.get(i).and_then(Value::as_int).unwrap_or(i64::MIN)
}

/// Theorem-1 oracle from outside: a table's rows carry every hot key's
/// last acknowledged value (or the loaded value if never written).
/// `expect(row)` returns `(what, got, want)` per checked column.
fn check_table(
    db: &Database,
    table: &str,
    rows: usize,
    ledger: &mut Ledger,
    expect: impl Fn(&[Value]) -> Vec<(&'static str, String, String)>,
) {
    ledger.oracle_checks += 1;
    let t = match db.catalog().get(table) {
        Ok(t) => t,
        Err(e) => return ledger.fail(format!("{table}: {e}")),
    };
    let snap = t.snapshot();
    if snap.len() != rows {
        ledger.fail(format!("{table}: {} rows, expected {rows}", snap.len()));
    }
    for (key, row) in snap {
        for (what, got, want) in expect(&row.values) {
            if got != want {
                return ledger.fail(format!(
                    "{table}{key:?}.{what} = {got:?}, last acknowledged {want:?}"
                ));
            }
        }
    }
}

fn want(acked: &HashMap<(Hot, i64), String>, hot: Hot, key: i64, loaded: &str) -> String {
    acked
        .get(&(hot, key))
        .cloned()
        .unwrap_or_else(|| loaded.to_owned())
}

/// After a cutover: the targets hold each hot key's last acknowledged
/// value.
fn check_cutover(db: &Database, workload: Workload, outs: &[ClientOut], ledger: &mut Ledger) {
    let acked = acked_values(outs);
    match workload {
        Workload::SplitMigrate => {
            check_table(db, "T_r", HOT_ROWS as usize, ledger, |r| {
                let b = want(&acked, Hot::T, int_at(r, 0), "payload");
                vec![("b", str_at(r, 1).to_owned(), b)]
            });
            check_table(db, "T_s", S_ROWS as usize, ledger, |r| {
                vec![(
                    "d",
                    str_at(r, 1).to_owned(),
                    format!("dep-{}", int_at(r, 0)),
                )]
            });
        }
        _ => check_table(db, "RS", HOT_ROWS as usize, ledger, |r| {
            vec![
                (
                    "b",
                    str_at(r, 1).to_owned(),
                    want(&acked, Hot::R, int_at(r, 0), "payload"),
                ),
                (
                    "d",
                    str_at(r, 3).to_owned(),
                    want(&acked, Hot::S, int_at(r, 2), "dep"),
                ),
            ]
        }),
    }
}

fn plan(workload: Workload) -> TransformPlan {
    match workload {
        Workload::SplitMigrate => TransformPlan::Split(SplitSpec::new(
            "T",
            "T_r",
            "T_s",
            &["a", "b", "c"],
            "c",
            &["d"],
        )),
        _ => TransformPlan::Foj(FojSpec::new("R", "S", "RS", "c", "c")),
    }
}

/// `split-migrate` and `foj-readmix`: repeated full migrations, each on
/// a fresh database, each after a base window.
pub fn full_migrations(cfg: &Config, epoch: Instant, ledger: &mut Ledger) -> DbResult<()> {
    let plan = plan(cfg.workload);
    let mut measured = 0u64;
    let mut round = 0u64;
    while ((measured as f64) < cfg.seconds * 1e9 || (round as usize) < MIN_ROUNDS)
        && epoch.elapsed().as_secs_f64() < cfg.seconds * MAX_WALL_FACTOR
    {
        let t0 = Instant::now();
        let env = Env::new(epoch, cfg)?;
        ledger.setup_s.push(t0.elapsed().as_secs_f64());
        let clients = Clients::spawn(&env, cfg, epoch, round);
        std::thread::sleep(WARMUP);
        let mut windows = base_windows(&env, &clients, epoch, cfg.trace);
        clients.trace(&env, cfg.trace);
        let (mut w, (phases, result)) =
            window(&env, epoch, cfg.trace, || migrate(&env.db, &plan, epoch));
        let outs = clients.stop();
        ledger.core.attempted += 1;
        match &result {
            Ok(report) => {
                w.kind = Kind::Migrating;
                ledger.core.completed(&phases, report);
                check_cutover(&env.db, cfg.workload, &outs, ledger);
            }
            Err(e) => {
                w.kind = Kind::Excluded;
                ledger.core.failed += 1;
                let phase = phases.last().map_or("prepare", |p| p.0);
                ledger
                    .core
                    .errors
                    .push(format!("round {round}: {phase} failed: {e}"));
            }
        }
        w.phases = phases;
        windows.push(w);
        check_durable(&env, &outs, ledger);
        ledger.absorb(&windows, &outs, &env.disk);
        measured += windows
            .iter()
            .filter(|w| w.kind != Kind::Excluded)
            .map(|w| w.end - w.start)
            .sum::<u64>();
        round += 1;
    }
    Ok(())
}

/// `foj-catchup`: the FOJ target is populated during set-up; then a
/// benchmark-owned propagator is held until its backlog reaches
/// [`HOLD_RECORDS`] and released at priority 1.0 until the backlog is
/// below the default `sync_threshold`, over and over.
pub fn catchup(cfg: &Config, epoch: Instant, ledger: &mut Ledger) -> DbResult<()> {
    let opts = TransformOptions::default();
    let spec = FojSpec::new("R", "S", "RS", "c", "c");
    let mut state = None;
    for _ in 0..CATCHUP_SETUPS {
        let t0 = Instant::now();
        let env = Env::new(epoch, cfg)?;
        let p0 = Instant::now();
        let mut mapping = FojMapping::prepare(&env.db, &spec)?;
        ledger
            .core
            .phase("prepare", p0.elapsed().as_secs_f64() * 1e3);
        let (_, start_lsn, _) = env.db.write_fuzzy_mark();
        let prop = Propagator::new(&env.db, start_lsn, opts.priority);
        let c0 = Instant::now();
        let (_, written) =
            TransformOperator::populate(&mut mapping, &env.db, opts.population_chunk)?;
        let copy = c0.elapsed();
        ledger.core.phase("copy", copy.as_secs_f64() * 1e3);
        ledger
            .core
            .copy_rows_per_s
            .push(written as f64 / copy.as_secs_f64());
        ledger.setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((env, mapping, prop));
    }
    let (env, mut mapping, mut prop) = state.expect("at least one set-up");
    let abort = AtomicBool::new(false);
    let clients = Clients::spawn(&env, cfg, epoch, 0);
    std::thread::sleep(WARMUP);
    let mut windows = Vec::new();
    let mut measured = 0u64;
    let mut cycles = 0usize;
    let mut result = Ok(());
    while ((measured as f64) < cfg.seconds * 1e9 || cycles < MIN_ROUNDS)
        && epoch.elapsed().as_secs_f64() < cfg.seconds * MAX_WALL_FACTOR
    {
        // Held: the base window lasts until the backlog reaches
        // HOLD_RECORDS (a traced run leaves its first half untraced).
        let halves: &[(bool, usize)] = if cfg.trace {
            &[(false, HOLD_RECORDS / 2), (true, HOLD_RECORDS)]
        } else {
            &[(false, HOLD_RECORDS)]
        };
        for &(traced, backlog) in halves {
            clients.trace(&env, traced);
            let (base, ()) = window(&env, epoch, traced, || {
                let t0 = Instant::now();
                while prop.backlog(&env.db) < backlog && t0.elapsed() < Duration::from_secs(10) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            measured += base.end - base.start;
            windows.push(base);
        }
        clients.trace(&env, cfg.trace);
        let coalesced0 = prop.coalesced();
        let (mut w, caught_up) = window(&env, epoch, cfg.trace, || -> DbResult<()> {
            let mut iterations = 0;
            loop {
                let i0 = Instant::now();
                let stats = prop.iterate(
                    &env.db,
                    &mut mapping,
                    opts.batch_size,
                    opts.cc_interval,
                    &abort,
                )?;
                let took = i0.elapsed();
                ledger.core.iterate_ms.push(took.as_secs_f64() * 1e3);
                ledger.core.prop_ns += took.as_nanos() as u64;
                ledger.core.prop_records += stats.records as u64;
                ledger.core.prop_relevant += stats.relevant as u64;
                iterations += 1;
                if stats.backlog_after < opts.sync_threshold {
                    ledger.core.iterations.push(iterations as f64);
                    return Ok(());
                }
            }
        });
        w.kind = Kind::Migrating;
        let span = w.end - w.start;
        w.phases = vec![("propagate", w.start, w.end)];
        ledger.core.attempted += 1;
        ledger.core.prop_coalesced += (prop.coalesced() - coalesced0) as u64;
        measured += span;
        if let Err(e) = caught_up {
            w.kind = Kind::Excluded;
            ledger.core.failed += 1;
            ledger.core.errors.push(format!("catch-up {cycles}: {e}"));
            windows.push(w);
            result = Err(e);
            break;
        }
        ledger.core.catchup_s.push(span as f64 / 1e9);
        ledger.core.phase("propagate", span as f64 / 1e6);
        windows.push(w);
        cycles += 1;
    }
    let outs = clients.stop();
    // Clients are stopped: drain to the tail (only the propagator's own
    // closing fuzzy mark may remain), then compare T with the FOJ of
    // the final sources, and the sources with the acknowledged writes.
    while result.is_ok() && prop.backlog(&env.db) > 1 {
        result = prop
            .iterate(
                &env.db,
                &mut mapping,
                opts.batch_size,
                opts.cc_interval,
                &abort,
            )
            .map(|_| ());
    }
    if let Err(e) = &result {
        ledger.fail(format!("propagation failed: {e}"));
    } else {
        ledger.oracle_checks += 1;
        if let Err(e) = verify_against_reference(&mapping) {
            ledger.fail(format!("RS differs from FOJ(R, S): {}", first_line(&e)));
        }
        let acked = acked_values(&outs);
        check_table(&env.db, "R", HOT_ROWS as usize, ledger, |r| {
            vec![(
                "b",
                str_at(r, 1).to_owned(),
                want(&acked, Hot::R, int_at(r, 0), "payload"),
            )]
        });
        check_table(&env.db, "S", S_ROWS as usize, ledger, |r| {
            vec![(
                "d",
                str_at(r, 1).to_owned(),
                want(&acked, Hot::S, int_at(r, 0), "dep"),
            )]
        });
    }
    check_durable(&env, &outs, ledger);
    ledger.absorb(&windows, &outs, &env.disk);
    Ok(())
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}
