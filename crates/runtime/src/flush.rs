//! Background WAL flush pipeline: a small sharded pool of flusher threads
//! with fsync coalescing.
//!
//! The engine seals a site's buffered WAL frames into a
//! [`FlushBatch`](o2pc_storage::FlushBatch) and submits it under the site's
//! shard key. Each shard thread *drains its whole queue* before touching the
//! disk and executes the burst through
//! [`FlushBatch::execute_all`](o2pc_storage::FlushBatch::execute_all): every
//! write lands first, then each distinct segment file is fsynced exactly
//! once — a burst of N batches costs 1 fsync, not N. Batches from one site
//! always map to the same shard, so per-WAL batches execute strictly in
//! submission order, which is the property prefix durability rests on;
//! different sites' logs flush in parallel across shards.
//!
//! With a [`Waker`] (physical-fsync gating) every submitted batch holds one
//! unit until its burst has executed, and the release wakes the engine to
//! hand out the promises the new watermark covers: group commit is driven
//! by fsync completion, not by a timer.
//!
//! Without one (the deterministic sealed-gate mode) sealing happens at
//! virtual flush instants, while the physical write + fsync run behind the
//! simulation and are synchronised only at barriers (crash, checkpoint
//! compaction, end of run) — fsync latency is never observed by simulated
//! time.

use crate::wake::Waker;
use o2pc_storage::FlushBatch;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

struct Shard {
    tx: Option<Sender<FlushBatch>>,
    worker: Option<JoinHandle<()>>,
}

/// Handle to the flusher pool. Dropping it drains every queue and joins the
/// threads, so every sealed batch is durable (or its watermark poisoned)
/// before shutdown completes.
#[derive(Debug)]
pub struct FlushScheduler {
    shards: Vec<Shard>,
    waker: Option<Waker>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard").finish_non_exhaustive()
    }
}

fn drain_loop(rx: Receiver<FlushBatch>, waker: Option<Waker>) {
    while let Ok(first) = rx.recv() {
        let mut burst = vec![first];
        while let Ok(b) = rx.try_recv() {
            burst.push(b);
        }
        let units = burst.len();
        // An I/O error here means the log device failed; execute_all has
        // already poisoned the affected watermarks, so anything waiting on
        // them fails loudly instead of hanging, and the engine fail-stops
        // the site when this release wakes it.
        let _ = FlushBatch::execute_all(burst);
        if let Some(w) = &waker {
            w.release(units);
        }
    }
}

impl FlushScheduler {
    /// Spawn a pool of `shards` flusher threads (at least one). With a
    /// `waker`, each submitted batch holds one unit of it until executed.
    pub fn new(shards: usize, waker: Option<Waker>) -> Self {
        let shards = shards.max(1);
        let shards = (0..shards)
            .map(|i| {
                let (tx, rx) = channel::<FlushBatch>();
                let w = waker.clone();
                let worker = std::thread::Builder::new()
                    .name(format!("wal-flush-{i}"))
                    .spawn(move || drain_loop(rx, w))
                    .expect("spawn wal-flush thread");
                Shard {
                    tx: Some(tx),
                    worker: Some(worker),
                }
            })
            .collect();
        FlushScheduler { shards, waker }
    }

    /// Queue a sealed batch for write + fsync. `key` pins the submitter to a
    /// shard: batches with the same key stay FIFO relative to each other
    /// (use the site id, so one WAL's batches never reorder).
    pub fn submit(&self, key: u32, batch: FlushBatch) {
        let shard = &self.shards[key as usize % self.shards.len()];
        if let Some(w) = &self.waker {
            w.hold();
        }
        let sent = shard.tx.as_ref().is_some_and(|tx| tx.send(batch).is_ok());
        if !sent {
            if let Some(w) = &self.waker {
                w.release(1);
            }
        }
    }
}

impl Default for FlushScheduler {
    fn default() -> Self {
        Self::new(1, None)
    }
}

impl Drop for FlushScheduler {
    fn drop(&mut self) {
        for s in &mut self.shards {
            drop(s.tx.take());
        }
        for s in &mut self.shards {
            if let Some(w) = s.worker.take() {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2pc_common::{ExecId, GlobalTxnId};
    use o2pc_storage::{LogRecord, Wal};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("o2pc-flush-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn background_flush_advances_watermark_in_order() {
        let dir = tmpdir("order");
        let mut wal = Wal::open(dir.join("s.wal")).unwrap();
        let sched = FlushScheduler::new(2, None);
        let mut last = 0;
        for i in 0..10 {
            wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(i))));
            last = wal.append_ticket();
            sched.submit(0, wal.seal_batch().unwrap());
        }
        wal.progress().unwrap().wait_for(last).unwrap();
        assert!(!wal.is_dirty());
        drop(sched);
        let reopened = Wal::open(wal.path().unwrap()).unwrap();
        assert_eq!(reopened.len(), 10, "all batches landed, in order");
    }

    #[test]
    fn shards_flush_independent_wals_and_coalesce_fsyncs() {
        let dir = tmpdir("shards");
        let sched = FlushScheduler::new(4, None);
        let mut wals: Vec<Wal> = (0..4)
            .map(|i| Wal::open(dir.join(format!("s{i}.wal"))).unwrap())
            .collect();
        let mut tickets = Vec::new();
        for round in 0..16u64 {
            for (i, wal) in wals.iter_mut().enumerate() {
                wal.append(LogRecord::Begin(ExecId::Sub(GlobalTxnId(round))));
                sched.submit(i as u32, wal.seal_batch().unwrap());
            }
        }
        for wal in &wals {
            tickets.push((wal.progress().unwrap(), wal.append_ticket()));
        }
        for (p, t) in &tickets {
            p.wait_for(*t).unwrap();
        }
        for wal in &wals {
            assert!(!wal.is_dirty());
            // Coalescing: 16 sealed batches per WAL must cost well under 16
            // fsyncs whenever any burst of them drained together. The exact
            // count is timing-dependent; the hard upper bound is 16 and the
            // deterministic single-drain case is covered by the storage
            // crate's `burst_of_batches_costs_one_fsync`.
            assert!(wal.stats().unwrap().fsyncs() <= 16);
        }
        drop(sched);
        for wal in &wals {
            assert_eq!(Wal::open(wal.path().unwrap()).unwrap().len(), 16);
        }
    }
}
