//! # o2pc-storage
//!
//! The per-site storage kernel: an in-place key/value store with per-execution
//! undo tracking ([`store::Store`]) and a write-ahead log with
//! checkpoint-based crash recovery ([`wal::Wal`]).
//!
//! There is one log type. A [`Wal`] holds the decoded records once; a log
//! opened on a path ([`Wal::open`]) also has a file part — segment files,
//! byte tickets, group commit ([`durable`]) — while [`Wal::new`] is the
//! in-memory log, whose appends encode nothing and whose records count as
//! durable on append. Both recover through the same pure [`recover`] over a
//! record slice, and both follow one crash model ([`Wal::crash`]): truncate
//! to the durable watermark and reopen, which for the in-memory log loses
//! nothing.
//!
//! The paper's recovery assumptions (§2, §3.2) are exactly: (a) a site can
//! roll back any not-yet-committed (sub)transaction from its log ("standard
//! recovery techniques, e.g. undo from log"), and (b) after a site votes to
//! commit under O2PC the updates are *locally committed* — they survive in the
//! store, later undone only *semantically* by a compensating subtransaction.
//! [`store::CommitRecord`], returned by [`store::Store::commit`], carries both
//! the before-images and the semantic operation log that `o2pc-compensation`
//! turns into a compensating subtransaction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod durable;
pub mod store;
pub mod wal;

pub use durable::{
    segment_path, DurableWal, FaultKind, FlushBatch, FlushProgress, WalOptions, WalStats,
    WriteFault, DEFAULT_SEGMENT_BYTES,
};
pub use store::{CommitRecord, Store, UndoRecord};
pub use wal::{recover, LogRecord, RecoveredState, Wal};
