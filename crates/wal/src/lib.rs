//! # morph-wal
//!
//! ARIES-style write-ahead log for morphdb, providing exactly the
//! contracts the transformation framework of Løland & Hvasshovd (EDBT
//! 2006) assumes:
//!
//! * **redo and undo information** in every data record ([`LogOp`]
//!   carries both old and new images),
//! * **Compensating Log Records** ([`LogRecord::Clr`]) written during
//!   rollback, so that a fuzzy copy can be repaired purely by redoing
//!   the log forward — aborted work is *compensated*, never skipped,
//! * **log sequence numbers** assigned in strictly increasing order,
//! * **fuzzy marks** ([`LogRecord::FuzzyMark`]) recording the set of
//!   active transactions and the LSN where log propagation must begin
//!   (§3.2 of the paper),
//! * **consistency-checker records** (`CcBegin` / `CcOk`, §5.3).
//!
//! The log lives in memory ([`LogManager`]) with an optional
//! length-prefixed binary backend used by restart recovery: the real
//! file ([`file::FileBackend`]) or, for deterministic crash
//! simulation, the seeded fault injector ([`fault::FaultBackend`]).

pub mod codec;
pub mod fault;
pub mod file;
pub mod manager;
pub mod record;

pub use codec::{decode_ref, LogOpRef, LogRecordRef, ValueRef};
pub use fault::{FaultBackend, FaultConfig, FaultHandle};
pub use file::{decode_stream, scan_stream, Backend, FileBackend};
pub use manager::{GroupCommitConfig, LogManager, TailCursor};
pub use record::{LogOp, LogRecord, MigrationPhase};
