//! Crash-durability layer for the MPR market manager.
//!
//! The paper's manager is the single party that announces prices, collects
//! bids and pays users in core-hours. If it crashes mid-overload, every
//! acknowledged payment and clearing decision must survive the restart and
//! must never be applied twice. This crate provides the storage-level
//! building blocks for that guarantee:
//!
//! * [`storage`] — a byte-level [`Storage`] trait with a real file backend
//!   ([`FileStorage`]), an in-memory backend ([`MemStorage`]) and a
//!   deterministic, ChaCha8-seeded [`FaultyDisk`] that injects torn
//!   writes, short writes, bit flips, ENOSPC and failed fsyncs — the storage
//!   sibling of `FaultySensor` (mpr-power) and `SimNet` (mpr-core).
//! * [`wal`] — an append-only, CRC-framed, versioned write-ahead log
//!   ([`Wal`]) with a configurable [`FsyncPolicy`], plus a file-backed
//!   multi-segment variant ([`DirWal`]) with atomic segment rotation.
//! * [`recover`] — scan-and-truncate recovery: parse the longest valid
//!   record prefix, report why scanning stopped, and truncate the corrupt
//!   tail so the log is append-ready again.
//! * [`supervisor`] — run a fallible engine closure under `catch_unwind`
//!   with capped exponential backoff and escalate to a safe mode after a
//!   bounded number of failed recoveries.
//! * [`fsio`] — the shared crash-durable filesystem helpers (temp file +
//!   fsync + rename + parent-directory fsync) also used by the simulator's
//!   checkpoint writer.
//!
//! The crate is deliberately market-agnostic: records are `(seq, kind,
//! payload)` byte frames. The typed market ledger events live in
//! `mpr-sim::ledger`, which encodes them with the same little-endian codec
//! used by checkpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsio;
pub mod recover;
pub mod storage;
pub mod supervisor;
pub mod wal;

pub use recover::{scan, Corruption, ScanReport};
pub use storage::{
    DiskFaultConfig, DiskFaultCounters, FaultyDisk, FileStorage, MemStorage, Storage, StorageError,
};
pub use supervisor::{backoff_ms, supervise, Supervised, SupervisorConfig};
pub use wal::{DirWal, FsyncPolicy, Record, Wal, WalError, MAX_RECORD_LEN, WAL_VERSION};

/// Seed-domain separator for [`FaultyDisk`] RNGs, the
/// disk-fault sibling of `SENSOR_SEED_XOR` / `NET_SEED_XOR` /
/// `SCENARIO_SEED_XOR`. XORing the simulation seed with this constant keeps
/// the disk fault stream statistically independent of every other seeded
/// subsystem while remaining fully reproducible.
pub const DISK_SEED_XOR: u64 = 0x6469_736b_0bad_5eed;
