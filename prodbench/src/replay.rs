//! Timed replays: each layer's public functions called on inputs taken from
//! the workload the run just measured, one span per layer.

use crate::metrics::RunResult;
use crate::sys::{ratio, sample_quantile};
use crate::trace::Tracer;
use o2pc_common::stats::CounterSet;
use o2pc_common::Duration;
use o2pc_common::{
    ExecId, GlobalTxnId, HistEventKind, History, Key, LocalTxnId, Op, OpKind, SimTime, SiteId,
    TxnId, Value,
};
use o2pc_compensation::CompensationModel;
use o2pc_core::{Engine, RunReport, SystemConfig, TxnRequest};
use o2pc_locking::LockManager;
use o2pc_marking::{MarkEvent, MarkingProtocol, SiteMarks, TransMarks};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{Envelope, ThreadedTransport};
use o2pc_sgraph::IncrementalSg;
use o2pc_sim::EventQueue;
use o2pc_storage::codec::{decode_all, encode_frame};
use o2pc_storage::{DurableWal, LogRecord, Store};
use o2pc_workload::Schedule;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Upper bound on replayed WAL batches in the fsync replay.
const FSYNC_BATCHES: usize = 1_500;
/// Upper bound on replayed messages in the transport replay.
const HANDOFF_MSGS: u64 = 100_000;
/// Upper bound on replayed counter increments.
const COUNTER_ADDS: u64 = 1_000_000;
/// Globals an undone marking stays before the replay forgets it (UDUM).
const UDUM_LAG: usize = 8;
/// Arrivals of an open-loop schedule re-run on the simulator for the
/// serialization-graph replays.
const HISTORY_ARRIVALS: usize = 1_000;

/// One step of a replayed per-site operation stream.
enum Step {
    /// An operation of an execution at a site.
    Access(SiteId, ExecId, Op),
    /// The execution ends at the site (commit or roll back).
    End(SiteId, ExecId, bool),
}

/// The per-site operation stream of a schedule: every subtransaction and
/// local transaction in arrival order, each committed after its last op.
fn schedule_steps(schedule: &Schedule) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, (_, req)) in schedule.arrivals.iter().enumerate() {
        let mut push = |site: SiteId, exec: ExecId, ops: &[Op]| {
            for &op in ops {
                steps.push(Step::Access(site, exec, op));
            }
            steps.push(Step::End(site, exec, true));
        };
        match req {
            TxnRequest::Global { subs, .. } => {
                for (site, ops) in subs {
                    push(*site, ExecId::Sub(GlobalTxnId(i as u64)), ops);
                }
            }
            TxnRequest::Local { site, ops } => push(
                *site,
                ExecId::Local(LocalTxnId {
                    site: *site,
                    seq: i as u64,
                }),
                ops,
            ),
        }
    }
    steps
}

fn exec_of(txn: TxnId) -> ExecId {
    match txn {
        TxnId::Global(g) => ExecId::Sub(g),
        TxnId::Compensation(g) => ExecId::CompSub(g),
        TxnId::Local(l) => ExecId::Local(l),
    }
}

/// The operation stream a recorded history performed: each access as an
/// op, each local commit, commit or roll-back as the end of its execution.
fn history_steps(h: &History) -> Vec<Step> {
    let mut steps = Vec::new();
    for ev in h.events() {
        let exec = exec_of(ev.txn);
        match ev.kind {
            HistEventKind::Access { kind, key, .. } => {
                let op = match kind {
                    OpKind::Read => Op::Read(key),
                    _ => Op::Add(key, 1),
                };
                steps.push(Step::Access(ev.site, exec, op));
            }
            HistEventKind::LocallyCommitted
            | HistEventKind::Committed
            | HistEventKind::Compensated => steps.push(Step::End(ev.site, exec, true)),
            HistEventKind::RolledBack => steps.push(Step::End(ev.site, exec, false)),
            HistEventKind::Begin => {}
        }
    }
    steps
}

/// Globals of a history as (execution sites, aborted).
fn history_globals(h: &History) -> Vec<(Vec<SiteId>, bool)> {
    let mut sites: BTreeMap<GlobalTxnId, BTreeSet<SiteId>> = BTreeMap::new();
    let mut aborted: BTreeSet<GlobalTxnId> = BTreeSet::new();
    for ev in h.events() {
        match ev.txn {
            TxnId::Global(g) => {
                sites.entry(g).or_default().insert(ev.site);
                if ev.kind == HistEventKind::RolledBack {
                    aborted.insert(g);
                }
            }
            TxnId::Compensation(g) => {
                aborted.insert(g);
            }
            TxnId::Local(_) => {}
        }
    }
    sites
        .into_iter()
        .map(|(g, s)| (s.into_iter().collect(), aborted.contains(&g)))
        .collect()
}

/// Globals of a schedule as (sites, aborted), with the run's measured
/// global abort share spread evenly over them.
fn schedule_globals(schedule: &Schedule, abort_share: f64) -> Vec<(Vec<SiteId>, bool)> {
    let mut out = Vec::new();
    for (_, req) in &schedule.arrivals {
        if let TxnRequest::Global { subs, .. } = req {
            let i = out.len() as f64;
            let aborted = ((i + 1.0) * abort_share).floor() > (i * abort_share).floor();
            out.push((subs.iter().map(|(s, _)| *s).collect(), aborted));
        }
    }
    out
}

/// `Store::apply` per replayed operation, commits and roll-backs included.
fn store_apply_ns(steps: &[Step], loads: &[(SiteId, Key, Value)], sites: u32) -> f64 {
    let mut stores: Vec<Store> = (0..sites).map(|_| Store::new()).collect();
    for &(s, k, v) in loads {
        stores[s.index()].load(k, v);
    }
    let mut ops = 0u64;
    let t = Instant::now();
    for step in steps {
        match *step {
            Step::Access(s, e, op) => {
                ops += 1;
                let _ = black_box(stores[s.index()].apply(e, op));
            }
            Step::End(s, e, true) => {
                black_box(stores[s.index()].commit(e));
            }
            Step::End(s, e, false) => {
                black_box(stores[s.index()].rollback(e));
            }
        }
    }
    ratio(t.elapsed().as_nanos() as f64, ops as f64)
}

/// `LockManager::request` per replayed operation, with `release_all` at
/// each execution's end.
fn lock_ns(steps: &[Step], sites: u32) -> f64 {
    let mut managers: Vec<LockManager> = (0..sites).map(|_| LockManager::new()).collect();
    let mut ops = 0u64;
    let t = Instant::now();
    for (i, step) in steps.iter().enumerate() {
        let now = SimTime(i as u64);
        match *step {
            Step::Access(s, e, op) => {
                ops += 1;
                let lm = &mut managers[s.index()];
                // An execution left queued by an earlier conflict cannot
                // ask again; the replay releases it instead.
                if lm.waiting_on(e).is_some() {
                    black_box(lm.cancel_wait(e));
                }
                black_box(lm.request(e, op.key(), op.access_mode(), now));
            }
            Step::End(s, e, _) => {
                let lm = &mut managers[s.index()];
                if lm.waiting_on(e).is_some() {
                    black_box(lm.cancel_wait(e));
                }
                black_box(lm.release_all(e, now));
            }
        }
    }
    ratio(t.elapsed().as_nanos() as f64, ops as f64)
}

/// The R1 compatibility check (`TransMarks::check_and_absorb`) per
/// subtransaction, driving each site's marks through the Figure 2 state
/// machine as the replayed globals commit or abort.
fn r1_check_ns(globals: &[(Vec<SiteId>, bool)], sites: u32) -> f64 {
    let mut marks: Vec<SiteMarks> = (0..sites).map(|_| SiteMarks::new()).collect();
    let mut undone: VecDeque<(usize, GlobalTxnId, SiteId)> = VecDeque::new();
    let mut checks = 0u64;
    let t = Instant::now();
    for (i, (at, aborted)) in globals.iter().enumerate() {
        let g = GlobalTxnId(i as u64);
        let mut tm = TransMarks::new();
        let mut rejected = false;
        for s in at {
            checks += 1;
            if tm
                .check_and_absorb(MarkingProtocol::P2, &marks[s.index()])
                .is_err()
            {
                rejected = true;
            }
        }
        for s in at {
            let m = &mut marks[s.index()];
            let _ = m.apply(g, MarkEvent::VoteCommit);
            if *aborted || rejected {
                let _ = m.apply(g, MarkEvent::DecisionAbort);
                undone.push_back((i, g, *s));
            } else {
                let _ = m.apply(g, MarkEvent::DecisionCommit);
            }
        }
        while undone.front().is_some_and(|&(j, _, _)| j + UDUM_LAG <= i) {
            let (_, g, s) = undone.pop_front().expect("front exists");
            let _ = marks[s.index()].apply(g, MarkEvent::Udum);
        }
        black_box(&tm);
    }
    ratio(t.elapsed().as_nanos() as f64, checks as f64)
}

/// `CounterSet::add` per increment, replaying the run's counter names in
/// proportion to their final values.
fn counter_add_ns(report: &RunReport) -> f64 {
    let names: Vec<(&str, u64)> = report.counters.iter().filter(|(_, v)| *v > 0).collect();
    let total: u64 = names.iter().map(|(_, v)| v).sum();
    if total == 0 {
        return 0.0;
    }
    let scale = (COUNTER_ADDS as f64 / total as f64).min(1.0);
    let quota: Vec<(&str, u64)> = names
        .iter()
        .map(|&(n, v)| (n, ((v as f64 * scale).ceil() as u64).max(1)))
        .collect();
    let mut set = CounterSet::new();
    let mut adds = 0u64;
    let t = Instant::now();
    let mut left: Vec<u64> = quota.iter().map(|q| q.1).collect();
    let mut live = true;
    while live {
        live = false;
        for (i, (name, _)) in quota.iter().enumerate() {
            if left[i] > 0 {
                left[i] -= 1;
                live = true;
                adds += 1;
                set.add(name, 1);
            }
        }
    }
    black_box(&set);
    ratio(t.elapsed().as_nanos() as f64, adds as f64)
}

/// `ThreadedTransport` handoff per message: the run's message mix, sent
/// one message per handoff round-robin over the sites and drained from
/// each site's inbox.
fn handoff_ns(report: &RunReport, sites: u32) -> f64 {
    let msgs: u64 = report
        .counters
        .iter()
        .filter(|(k, _)| {
            k.starts_with("msg.") && k.matches('.').count() == 1 && *k != "msg.retransmit"
        })
        .map(|(_, v)| v)
        .sum();
    let n = msgs.min(HANDOFF_MSGS);
    if n == 0 {
        return 0.0;
    }
    let transport: ThreadedTransport<u64> = ThreadedTransport::new(std::time::Duration::ZERO);
    let mut inboxes: Vec<_> = (0..sites).map(|s| transport.register(SiteId(s))).collect();
    let t = Instant::now();
    let mut received = 0u64;
    for i in 0..n {
        let from = SiteId((i % sites as u64) as u32);
        let to = SiteId(((i + 1) % sites as u64) as u32);
        transport.deliver_many(
            to,
            vec![(std::time::Duration::ZERO, Envelope { from, to, msg: i })],
        );
        for inbox in inboxes.iter_mut() {
            while inbox.try_recv().is_some() {
                received += 1;
            }
        }
    }
    while received < n {
        let mut got = false;
        for inbox in inboxes.iter_mut() {
            if inbox
                .recv_timeout(std::time::Duration::from_millis(1))
                .is_some()
            {
                received += 1;
                got = true;
            }
        }
        assert!(
            got || t.elapsed().as_secs() < 30,
            "transport replay lost messages"
        );
    }
    let ns = ratio(t.elapsed().as_nanos() as f64, n as f64);
    transport.shutdown();
    ns
}

/// `EventQueue` schedule + pop per event, over the workload's own event
/// times.
fn event_queue_ns(times: &[SimTime]) -> f64 {
    let mut q = EventQueue::with_capacity(times.len());
    let t = Instant::now();
    for (i, &at) in times.iter().enumerate() {
        q.schedule(at, i as u64);
    }
    let mut acc = 0u64;
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    black_box(acc);
    ratio(t.elapsed().as_nanos() as f64, times.len() as f64)
}

/// Layers every workload replays from its operation stream, globals,
/// counters, message mix and event times.
#[allow(clippy::too_many_arguments)]
fn common_replays(
    res: &mut RunResult,
    tracer: &mut Tracer,
    steps: &[Step],
    loads: &[(SiteId, Key, Value)],
    globals: &[(Vec<SiteId>, bool)],
    times: &[SimTime],
    report: &RunReport,
    sites: u32,
) {
    let v = tracer.span("replay.store", || store_apply_ns(steps, loads, sites));
    res.layers.insert("storage.store_apply_ns", v);
    let v = tracer.span("replay.locking", || lock_ns(steps, sites));
    res.layers.insert("locking.request_release_ns", v);
    let v = tracer.span("replay.marking", || r1_check_ns(globals, sites));
    res.layers.insert("marking.r1_check_ns", v);
    let v = tracer.span("replay.counters", || counter_add_ns(report));
    res.layers.insert("common.counter_add_ns", v);
    let v = tracer.span("replay.transport", || handoff_ns(report, sites));
    res.layers.insert("runtime.handoff_ns_per_msg", v);
    let v = tracer.span("replay.event_queue", || event_queue_ns(times));
    res.layers.insert("sim.event_queue_ns", v);
}

/// Every site's WAL records as the run left them.
pub fn wal_records(engine: &crate::openloop::ThreadedEngine, sites: u32) -> Vec<Vec<LogRecord>> {
    (0..sites)
        .map(|s| {
            engine
                .wal_records(SiteId(s))
                .map(|r| r.to_vec())
                .unwrap_or_default()
        })
        .collect()
}

/// Codec, fsync and recovery replays over the run's WAL records, plus the
/// encoded bytes per committed transaction.
fn storage_replays(
    res: &mut RunResult,
    tracer: &mut Tracer,
    records: &[Vec<LogRecord>],
    committed: u64,
    decided: u64,
    expected_total: i64,
    scratch: &Path,
) {
    let n: usize = records.iter().map(Vec::len).sum();
    // Encode.
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(records.len());
    let t = Instant::now();
    tracer.begin("replay.codec.encode");
    for site in records {
        let mut buf = Vec::new();
        for r in site {
            encode_frame(r, &mut buf);
        }
        frames.push(buf);
    }
    tracer.end();
    let encode_ns = ratio(t.elapsed().as_nanos() as f64, n as f64);
    let bytes: usize = frames.iter().map(Vec::len).sum();
    // Decode.
    let t = Instant::now();
    let decoded: usize = tracer.span("replay.codec.decode", || {
        frames
            .iter()
            .map(|f| black_box(decode_all(f)).0.len())
            .sum()
    });
    let decode_ns = ratio(t.elapsed().as_nanos() as f64, n as f64);
    res.gate(decoded == n, || {
        format!("codec replay decoded {decoded} of {n} records")
    });
    res.layers.insert("storage.encode_ns_per_record", encode_ns);
    res.layers.insert("storage.decode_ns_per_record", decode_ns);
    res.layers.insert(
        "storage.wal_bytes_per_commit",
        ratio(bytes as f64, committed as f64),
    );

    // Append + sync: the run's records in transaction-sized batches into a
    // fresh log per site, one timed fsync per batch until the sample budget
    // is spent; the rest is appended and synced once, so the log recovers
    // to the run's state.
    if let Err(e) = std::fs::remove_dir_all(scratch) {
        assert!(
            e.kind() == std::io::ErrorKind::NotFound,
            "clear {}: {e}",
            scratch.display()
        );
    }
    std::fs::create_dir_all(scratch).expect("create replay WAL dir");
    let per_batch = ((n as f64 / decided.max(1) as f64).round() as usize).max(1);
    let budget = FSYNC_BATCHES / records.len().max(1);
    let mut wals: Vec<DurableWal> = (0..records.len())
        .map(|s| DurableWal::open(scratch.join(format!("site-{s}.wal"))).expect("open replay WAL"))
        .collect();
    let mut sync_us = Vec::new();
    tracer.begin("replay.fsync");
    for (wal, site) in wals.iter_mut().zip(records) {
        for (i, chunk) in site.chunks(per_batch).enumerate() {
            let t = Instant::now();
            for r in chunk {
                wal.append(r.clone());
            }
            if i < budget {
                wal.sync().expect("replay WAL sync");
                sync_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        wal.sync().expect("replay WAL sync");
    }
    tracer.end();
    drop(wals);
    res.layers
        .insert("storage.fsync_p50_us", sample_quantile(&sync_us, 0.50));
    res.layers
        .insert("storage.fsync_p99_us", sample_quantile(&sync_us, 0.99));

    // Recovery of the replayed logs, when the run had no directory of its
    // own to reopen.
    if !res.layers.contains_key("storage.recover_ms") {
        let t = Instant::now();
        let rec = tracer.span("replay.recover", || {
            o2pc_chaos::recover_killed_run(
                scratch,
                records.len() as u32,
                CompensationModel::Restricted,
                expected_total,
            )
        });
        res.layers
            .insert("storage.recover_ms", t.elapsed().as_secs_f64() * 1e3);
        for v in &rec.violations {
            res.gate_failures
                .push(format!("replayed WAL recovery: {v}"));
        }
    }
    std::fs::remove_dir_all(scratch).expect("remove replay WAL dir");
}

/// Inputs the open-loop replays take from the measured run.
pub struct OpenLoopInputs<'a> {
    pub schedule: &'a Schedule,
    pub report: &'a RunReport,
    pub records: &'a [Vec<LogRecord>],
    pub sites: u32,
    pub scratch: &'a Path,
    pub generate_ms: f64,
}

/// Every replay an open-loop run supports.
pub fn open_loop_replays(res: &mut RunResult, tracer: &mut Tracer, i: &OpenLoopInputs<'_>) {
    tracer.begin("replays");
    let r = i.report;
    let committed = r.global_committed + r.local_committed;
    let decided = committed + r.global_aborted + r.local_aborted;
    let expected_total = i.schedule.total_loaded();
    storage_replays(
        res,
        tracer,
        i.records,
        committed,
        decided,
        expected_total,
        i.scratch,
    );
    let steps = schedule_steps(i.schedule);
    let globals = schedule_globals(i.schedule, r.abort_rate());
    let times: Vec<SimTime> = i.schedule.arrivals.iter().map(|a| a.0).collect();
    common_replays(
        res,
        tracer,
        &steps,
        &i.schedule.loads,
        &globals,
        &times,
        r,
        i.sites,
    );
    let history = tracer.span("replay.sim_history", || sim_history(i.schedule, i.sites));
    sgraph_replays(res, tracer, &[history]);
    tracer.end();
    res.layers.insert("workload.generate_ms", i.generate_ms);
    res.not_exercised(
        &[
            "chaos.run_plan_p50_ms",
            "chaos.run_plan_p99_ms",
            "chaos.schedules_s",
        ],
        "open-loop runs execute no chaos plans; the chaos_sweep workload measures these",
    );
}

/// `IncrementalSg::observe` per history event, and the batch audit per
/// history.
fn sgraph_replays(res: &mut RunResult, tracer: &mut Tracer, histories: &[History]) {
    let mut sg_events = 0u64;
    let t = Instant::now();
    tracer.span("replay.sgraph.observe", || {
        for h in histories {
            let mut sg = IncrementalSg::new_exposed();
            for ev in h.events() {
                sg.observe(*ev);
                sg_events += 1;
            }
            black_box(sg.graph());
        }
    });
    res.layers.insert(
        "sgraph.observe_ns_per_event",
        ratio(t.elapsed().as_nanos() as f64, sg_events as f64),
    );
    let t = Instant::now();
    tracer.span("replay.sgraph.audit", || {
        for h in histories {
            black_box(o2pc_sgraph::audit(h, 10_000, 10));
        }
    });
    res.layers.insert(
        "sgraph.audit_ms",
        ratio(t.elapsed().as_secs_f64() * 1e3, histories.len() as f64),
    );
}

/// A history of the workload's own transactions: the first
/// `HISTORY_ARRIVALS` arrivals of the schedule re-run on the deterministic
/// simulator with history recording on (the measured threaded run keeps
/// none).
fn sim_history(schedule: &Schedule, sites: u32) -> History {
    let prefix = Schedule {
        loads: schedule.loads.clone(),
        arrivals: schedule
            .arrivals
            .iter()
            .take(HISTORY_ARRIVALS)
            .cloned()
            .collect(),
    };
    let mut engine = Engine::new(SystemConfig::new(sites, ProtocolKind::O2pcP2));
    prefix.install(&mut engine);
    engine.run(Duration::secs(600)).history
}

/// Every replay the chaos sweep supports, over the histories it kept.
pub fn chaos_replays(
    res: &mut RunResult,
    tracer: &mut Tracer,
    histories: &[History],
    report: &RunReport,
    sites: u32,
) {
    tracer.begin("replays");
    sgraph_replays(res, tracer, histories);
    let mut steps = Vec::new();
    let mut globals = Vec::new();
    let mut times = Vec::new();
    let mut keys: BTreeSet<(SiteId, Key)> = BTreeSet::new();
    for (n, h) in histories.iter().enumerate() {
        for ev in h.events() {
            times.push(ev.time);
            if let HistEventKind::Access { key, .. } = ev.kind {
                keys.insert((ev.site, key));
            }
        }
        // Each history numbers its transactions from zero: shift them apart.
        let shift = (n as u64) << 32;
        steps.extend(history_steps(h).into_iter().map(|s| match s {
            Step::Access(site, e, op) => Step::Access(site, shift_exec(e, shift), op),
            Step::End(site, e, c) => Step::End(site, shift_exec(e, shift), c),
        }));
        globals.extend(history_globals(h));
    }
    let loads: Vec<(SiteId, Key, Value)> = keys
        .into_iter()
        .map(|(s, k)| (s, k, Value(1_000)))
        .collect();
    common_replays(res, tracer, &steps, &loads, &globals, &times, report, sites);
    tracer.end();
    res.not_exercised(
        &[
            "storage.encode_ns_per_record",
            "storage.decode_ns_per_record",
            "storage.fsync_p50_us",
            "storage.fsync_p99_us",
            "storage.recover_ms",
            "storage.wal_bytes_per_commit",
        ],
        "run_plan keeps each schedule's engine and in-memory WAL private; see the open-loop workloads",
    );
}

fn shift_exec(e: ExecId, shift: u64) -> ExecId {
    match e {
        ExecId::Sub(g) => ExecId::Sub(GlobalTxnId(g.0 | shift)),
        ExecId::CompSub(g) => ExecId::CompSub(GlobalTxnId(g.0 | shift)),
        ExecId::Local(l) => ExecId::Local(LocalTxnId {
            site: l.site,
            seq: l.seq | shift,
        }),
    }
}
