//! Physical-fsync gating (`wal_background_flush`) releases a parked promise
//! when the fsync behind it lands, on both runtimes. The flush interval is
//! set to 10 s here: it governs only the deterministic sealed-gate mode, so
//! no commit may wait for it.

use o2pc_common::{Duration, Key, Op, SimTime, SiteId, Value};
use o2pc_core::{Engine, Msg, SystemConfig, TimerEvent, TxnRequest};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{Clock, Runtime, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use std::path::PathBuf;
use std::time::Duration as StdDuration;

const SITES: u32 = 3;
const KEYS: u64 = 4;
const INITIAL: i64 = 1_000;
const TRANSFERS: u64 = 40;
const INTERVAL: Duration = Duration::secs(10);

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("o2pc-physical-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> SystemConfig {
    let mut cfg = SystemConfig::new(SITES, ProtocolKind::O2pcP2);
    cfg.seed = 7;
    cfg.durable_wal_dir = Some(dir.to_path_buf());
    cfg.wal_background_flush = true;
    cfg.wal_flush_interval = INTERVAL;
    cfg
}

/// Load the accounts and submit a short stream of transfers, a third of
/// them local.
fn install<R: Runtime<TimerEvent, Msg>>(e: &mut Engine<R>, start: SimTime) {
    for s in 0..SITES {
        for k in 0..KEYS {
            e.load(SiteId(s), Key(k), Value(INITIAL));
        }
    }
    for i in 0..TRANSFERS {
        let from = SiteId((i % SITES as u64) as u32);
        let key = Key(i % KEYS);
        let req = if i % 3 == 0 {
            TxnRequest::local(
                from,
                vec![Op::Add(key, -5), Op::Add(Key((i + 1) % KEYS), 5)],
            )
        } else {
            let to = SiteId(((i + 1) % SITES as u64) as u32);
            TxnRequest::global(vec![
                (from, vec![Op::Add(key, -10)]),
                (to, vec![Op::Add(key, 10)]),
            ])
        };
        e.submit_at(start + Duration::millis(2 * i), req);
    }
}

#[test]
fn threaded_physical_gating_decides_everything_well_inside_the_interval() {
    let dir = wal_dir("threaded");
    let rt = ThreadedRuntime::new(
        ThreadedTransport::new(StdDuration::ZERO),
        ThreadedRuntimeConfig {
            idle_grace: StdDuration::from_millis(30),
        },
    );
    let mut e = Engine::with_runtime(config(&dir), rt);
    install(&mut e, SimTime::ZERO + Duration::millis(20));
    let r = e.run(Duration::secs(5));
    let decided = r.global_committed + r.global_aborted + r.local_committed + r.local_aborted;
    assert_eq!(decided, TRANSFERS, "every transaction decided within 5 s");
    assert!(e.unfinished_txns().is_empty());
    assert!(r.global_committed > 0);
    assert_eq!(e.total_value(), (SITES as u64 * KEYS) as i64 * INITIAL);
    assert!(r.counters.get("wal.parked_msgs") > 0, "promises parked");
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulated_physical_gating_never_waits_for_the_interval() {
    let dir = wal_dir("sim");
    let mut e = Engine::new(config(&dir));
    install(&mut e, SimTime::ZERO);
    let r = e.run(Duration::secs(60));
    let globals = TRANSFERS - TRANSFERS.div_ceil(3);
    assert!(e.unfinished_txns().is_empty());
    assert_eq!(r.global_latency.count(), globals, "every global completed");
    assert!(r.counters.get("wal.parked_msgs") > 0, "promises parked");
    assert!(
        r.global_latency.max() < INTERVAL.as_micros(),
        "a global waited out the flush interval: max {} µs",
        r.global_latency.max()
    );
    // No flush timer was ever scheduled: the virtual clock stops with the
    // last protocol event, far short of one interval.
    assert!(e.runtime().now() < SimTime::ZERO + INTERVAL);
    assert_eq!(e.total_value(), (SITES as u64 * KEYS) as i64 * INITIAL);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
