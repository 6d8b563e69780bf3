//! The benchmark's disk: a [`FaultBackend`] (perfect disk, no injected
//! faults) whose every flush also sleeps a fixed modelled fsync.
//!
//! The latency is a `sleep`, not a spin or a yield loop: on a 2-core
//! host a spinning "device" would steal CPU from the clients and the
//! propagator, and the benchmark would measure the spin.
//!
//! Every call is timed here, from outside the WAL crate: this is the
//! `wal` layer of the per-layer ledger.

use morph_common::DbResult;
use morph_wal::{Backend, FaultBackend, FaultConfig, FaultHandle};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Modelled fsync latency, as in the repository's `wal_append` bench.
pub const FSYNC: Duration = Duration::from_micros(100);

/// Counters shared between the disk (owned by the `LogManager`) and
/// the harness.
pub struct DiskStats {
    epoch: Instant,
    /// Time individual calls only while set (the traced run).
    pub trace: AtomicBool,
    pub bytes: AtomicU64,
    pub appends: AtomicU64,
    pub append_ns: AtomicU64,
    pub flushes: AtomicU64,
    /// `(end, duration)` of each traced flush, in ns since `epoch`.
    pub flush_samples: Mutex<Vec<(u64, u64)>>,
}

impl DiskStats {
    /// Point-in-time copy of the monotonic counters.
    pub fn counts(&self) -> [u64; 4] {
        [
            self.bytes.load(Ordering::Relaxed),
            self.appends.load(Ordering::Relaxed),
            self.append_ns.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
        ]
    }
}

pub struct ModelDisk {
    inner: FaultBackend,
    stats: Arc<DiskStats>,
}

impl ModelDisk {
    /// A fresh disk. `epoch` is the run's time origin, shared with the
    /// client samples so flushes can be bucketed into windows.
    pub fn new(epoch: Instant, trace: bool) -> (ModelDisk, FaultHandle, Arc<DiskStats>) {
        let (inner, handle) = FaultBackend::new(FaultConfig::crash_only(0));
        let stats = Arc::new(DiskStats {
            epoch,
            trace: AtomicBool::new(trace),
            bytes: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            append_ns: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flush_samples: Mutex::new(Vec::new()),
        });
        let disk = ModelDisk {
            inner,
            stats: Arc::clone(&stats),
        };
        (disk, handle, stats)
    }
}

impl Backend for ModelDisk {
    fn append(&mut self, encoded: &[u8]) {
        let s = &self.stats;
        s.bytes
            .fetch_add(encoded.len() as u64 + 4, Ordering::Relaxed);
        s.appends.fetch_add(1, Ordering::Relaxed);
        if s.trace.load(Ordering::Relaxed) {
            let t0 = Instant::now();
            self.inner.append(encoded);
            s.append_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            self.inner.append(encoded);
        }
    }

    fn flush(&mut self) -> DbResult<()> {
        let t0 = Instant::now();
        let result = self.inner.flush();
        std::thread::sleep(FSYNC);
        let s = &self.stats;
        s.flushes.fetch_add(1, Ordering::Relaxed);
        if s.trace.load(Ordering::Relaxed) {
            let end = Instant::now();
            let at = end.duration_since(s.epoch).as_nanos() as u64;
            let took = end.duration_since(t0).as_nanos() as u64;
            s.flush_samples.lock().push((at, took));
        }
        result
    }
}
