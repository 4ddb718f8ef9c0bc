//! The two open-loop workloads: the threaded runtime driven by a
//! pre-generated Poisson session schedule, with the durable WAL and its
//! background flusher (`durable_open_loop`) or the in-memory WAL
//! (`memory_open_loop`).

use crate::metrics::{count_layers, fold_report, RunResult};
use crate::replay;
use crate::sys::{self, hist_quantile, json_num, json_str, median, ratio};
use crate::trace::Tracer;
use o2pc_bench::OpenLoopClients;
use o2pc_common::{Duration, SimTime, SiteId};
use o2pc_compensation::CompensationModel;
use o2pc_core::{Engine, Msg, RunReport, SystemConfig, TimerEvent};
use o2pc_protocol::ProtocolKind;
use o2pc_runtime::{LinkPolicy, ThreadedRuntime, ThreadedRuntimeConfig, ThreadedTransport};
use o2pc_storage::LogRecord;
use o2pc_workload::{BankingWorkload, Schedule};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The engine as the open-loop workloads run it.
pub type ThreadedEngine = Engine<ThreadedRuntime<TimerEvent, Msg>>;

const SITES: u32 = 3;
const ACCOUNTS_PER_SITE: u64 = 2_048;
const LOCAL_FRACTION: f64 = 0.2;
/// Sites a banking transfer touches (the generator's default).
const SITES_PER_GLOBAL: u64 = 2;
const ADMISSION_WINDOW: usize = 8;
const SESSIONS: usize = 1_000;
const VOTE_TIMEOUT_MS: u64 = 40;
const TERMINATION_TIMEOUT_MS: u64 = 50;
const RETRANSMIT_MS: u64 = 10;
const FLUSH_INTERVAL_MS: u64 = 1;
const FLUSH_BYTES: u64 = 256 * 1024;
/// Length of one measurement window. A run is a sequence of windows, each
/// with its own engine, WAL directory and seeded schedule; every
/// end-to-end metric is the median over the windows, so one rare fsync
/// stall moves one window's tail, not the run's.
const WINDOW_S: u64 = 2;
/// Idle time between the end of set-up and the first scheduled arrival, so
/// that `Engine::run`'s own start (checkpoint, WAL sync) does not make the
/// first arrivals late.
const START_LEAD_MS: u64 = 30;
/// Extra wall time past a window's last scheduled arrival before the
/// watchdog stops it and counts what is still undecided as failed.
const DRAIN_DEADLINE_S: u64 = 5;

/// One open-loop workload.
pub struct OpenLoop {
    /// Log through the durable WAL with physical-fsync gating.
    pub durable: bool,
    /// Offered load across all sessions, transactions per second.
    pub rate: f64,
}

fn config(seed: u64, wal_dir: Option<&Path>) -> SystemConfig {
    let mut cfg = SystemConfig::new(SITES, ProtocolKind::O2pcP2);
    cfg.seed = seed;
    cfg.record_history = false;
    // A wall-clock server models op service as the engine's own CPU work;
    // a virtual per-op delay would park the thread on OS timers.
    cfg.op_service_time = Duration::ZERO;
    cfg.admission_window = Some(ADMISSION_WINDOW);
    cfg.vote_timeout = Some(Duration::millis(VOTE_TIMEOUT_MS));
    cfg.termination_timeout = Some(Duration::millis(TERMINATION_TIMEOUT_MS));
    cfg.retransmit_base = Some(Duration::millis(RETRANSMIT_MS));
    cfg.wal_flush_interval = Duration::millis(FLUSH_INTERVAL_MS);
    cfg.wal_flush_bytes = FLUSH_BYTES;
    if let Some(dir) = wal_dir {
        cfg.durable_wal_dir = Some(dir.to_path_buf());
        // Promises wait for the physical fsync: the only mode that is
        // honest against a real kill.
        cfg.wal_background_flush = true;
    }
    cfg
}

fn clients(spec: &OpenLoop, seed: u64, seconds: u64) -> OpenLoopClients {
    OpenLoopClients {
        sessions: SESSIONS,
        offered_txn_per_sec: spec.rate,
        total_txns: (spec.rate * seconds as f64).round() as usize,
        mix: BankingWorkload {
            sites: SITES,
            accounts_per_site: ACCOUNTS_PER_SITE,
            local_fraction: LOCAL_FRACTION,
            sites_per_transfer: SITES_PER_GLOBAL as usize,
            seed,
            ..Default::default()
        },
    }
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        assert!(
            e.kind() == std::io::ErrorKind::NotFound,
            "cannot clear {}: {e}",
            dir.display()
        );
    }
}

/// What one window left behind for the run's totals and replays.
struct Window {
    report: RunReport,
    schedule: Schedule,
    records: Vec<Vec<LogRecord>>,
    generate_ms: f64,
    wall: f64,
    cpu: f64,
    fsyncs: u64,
    timed_out: bool,
}

/// Per-window end-to-end values, medians of which the run reports.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// Set up, run and check one window: generate its schedule, build the
/// engine and WALs, load the accounts, install the arrivals (together the
/// window's set-up time), run to quiescence or the watchdog, then gate
/// its outputs.
fn run_window(
    res: &mut RunResult,
    samples: &mut Samples,
    spec: &OpenLoop,
    seed: u64,
    seconds: u64,
    wal_dir: Option<&Path>,
    tracer: &mut Tracer,
) -> Window {
    let t = Instant::now();
    tracer.begin("setup");
    let schedule = tracer.span("workload.generate", || {
        clients(spec, seed, seconds).schedule()
    });
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some(dir) = wal_dir {
        remove_dir(dir);
    }
    let transport: ThreadedTransport<Msg> =
        ThreadedTransport::with_policy(LinkPolicy::fixed(std::time::Duration::ZERO));
    let epoch = Instant::now();
    let rt = ThreadedRuntime::new(transport, ThreadedRuntimeConfig::default());
    let mut engine = Engine::with_runtime(config(seed, wal_dir), rt);
    for &(s, k, v) in &schedule.loads {
        engine.load(s, k, v);
    }
    // Installing the arrivals takes about half a microsecond each.
    let lead =
        Duration::micros(epoch.elapsed().as_micros() as u64 + schedule.arrivals.len() as u64 / 2)
            + Duration::millis(START_LEAD_MS);
    for (at, req) in &schedule.arrivals {
        engine.submit_at(*at + lead, req.clone());
    }
    tracer.end();
    samples.push("setup_s", t.elapsed().as_secs_f64());

    let submitted = schedule.arrivals.len() as u64;
    let span = schedule.arrivals.last().map_or(SimTime::ZERO, |a| a.0);
    let deadline = lead + Duration::micros(span.micros()) + Duration::secs(DRAIN_DEADLINE_S);
    let expected_total = schedule.total_loaded();
    let late_s = (epoch.elapsed().as_secs_f64() - lead.as_micros() as f64 / 1e6).max(0.0);
    let cpu0 = sys::process_cpu_secs();
    let report = tracer.span("engine.run", || engine.run(deadline));
    let cpu = sys::process_cpu_secs() - cpu0;
    // Wall time from the first scheduled arrival (or the run's start, if
    // that was later) to the end of the run.
    let wall = epoch.elapsed().as_secs_f64() - lead.as_micros() as f64 / 1e6 - late_s;
    let timed_out = epoch.elapsed().as_micros() as u64 >= (SimTime::ZERO + deadline).micros();

    // ----- correctness gates --------------------------------------------
    tracer.begin("oracle");
    let committed = report.global_committed + report.local_committed;
    let decided = committed + report.global_aborted + report.local_aborted;
    // The report counts a global still running at the deadline as decided
    // (by its logged decision, else presumed abort), so those come back
    // from the engine's table; arrivals never admitted are missing from the
    // report altogether.
    let undecided = engine.unfinished_txns().len() as u64 + submitted.saturating_sub(decided);
    res.attempted += submitted;
    res.failed += undecided;
    res.gate(!timed_out, || {
        format!("watchdog: window missed its deadline; {undecided} transaction(s) undecided")
    });
    res.gate(decided <= submitted, || {
        format!("decided {decided} transactions but only {submitted} were submitted")
    });
    res.gate(undecided == 0, || {
        format!("{undecided} submitted transaction(s) never decided")
    });
    res.gate(report.compensations_pending == 0, || {
        format!("compensations_pending = {}", report.compensations_pending)
    });
    res.gate(engine.total_value() == expected_total, || {
        format!(
            "money not conserved: {} != {expected_total}",
            engine.total_value()
        )
    });
    for v in o2pc_chaos::oracle::check_state(&engine, &report, expected_total) {
        res.gate_failures.push(format!("oracle: {v}"));
    }
    message_gate(res, &report);
    tracer.end();

    samples.push("goodput_txn_s", committed as f64 / wall);
    samples.push(
        "commit_p50_ms",
        hist_quantile(&report.global_latency, 0.50) / 1e3,
    );
    samples.push(
        "commit_p95_ms",
        hist_quantile(&report.global_latency, 0.95) / 1e3,
    );
    samples.push(
        "commit_p99_ms",
        hist_quantile(&report.global_latency, 0.99) / 1e3,
    );
    samples.push(
        "local_p50_ms",
        hist_quantile(&report.local_latency, 0.50) / 1e3,
    );
    samples.push(
        "failed_share",
        ratio(submitted.saturating_sub(committed) as f64, submitted as f64),
    );
    samples.push("cpu_us_per_txn", ratio(cpu * 1e6, decided as f64));

    let fsyncs = (0..SITES)
        .filter_map(|s| engine.wal_stats(SiteId(s)))
        .map(|w| w.fsyncs())
        .sum();
    // Only a traced run replays the records; copying them otherwise would
    // add the benchmark's own memory to `peak_rss_mb`.
    let records = if tracer.enabled() {
        replay::wal_records(&engine, SITES)
    } else {
        Vec::new()
    };
    drop(engine);

    // Durable: reopen and recover the window's WAL directory cold.
    if let Some(dir) = wal_dir {
        let t = Instant::now();
        let rec = tracer.span("wal.reopen", || {
            o2pc_chaos::recover_killed_run(
                dir,
                SITES,
                CompensationModel::Restricted,
                expected_total,
            )
        });
        samples.push("storage.recover_ms", t.elapsed().as_secs_f64() * 1e3);
        for v in &rec.violations {
            res.gate_failures.push(format!("recovered WAL: {v}"));
        }
        res.gate(rec.recovered_total == expected_total, || {
            format!(
                "recovered WAL total {} != {expected_total}",
                rec.recovered_total
            )
        });
    }
    Window {
        report,
        schedule,
        records,
        generate_ms,
        wall,
        cpu,
        fsyncs,
        timed_out,
    }
}

/// Run one open-loop workload for `seconds` of offered traffic and check
/// its outputs.
pub fn run(
    name: &str,
    spec: &OpenLoop,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
    tracer: &mut Tracer,
) -> RunResult {
    let mut res = RunResult::default();
    let mut samples = Samples::default();
    let windows = (seconds / WINDOW_S).max(1);
    let window_s = seconds.min(WINDOW_S);
    let wal_dir = spec
        .durable
        .then(|| out_dir.join(format!("wal-{}-{name}", std::process::id())));
    let mut total = RunReport::default();
    let (mut wall, mut cpu, mut fsyncs) = (0.0, 0.0, 0u64);
    let mut last = None;
    for w in 0..windows {
        tracer.begin("window");
        // Each window draws its own schedule from the run's seed.
        let window_seed = seed.wrapping_mul(1_000).wrapping_add(w);
        let win = run_window(
            &mut res,
            &mut samples,
            spec,
            window_seed,
            window_s,
            wal_dir.as_deref(),
            tracer,
        );
        tracer.end();
        fold_report(&mut total, &win.report);
        wall += win.wall;
        cpu += win.cpu;
        fsyncs += win.fsyncs;
        let stop = win.timed_out;
        last = Some(win);
        if stop {
            break;
        }
    }
    if let Some(dir) = &wal_dir {
        remove_dir(dir);
    }
    let last = last.expect("at least one window");
    for (name, values) in &samples.0 {
        if name.contains('.') {
            res.layers.insert(name, median(values));
        } else {
            res.e2e.insert(name, median(values));
        }
    }

    // ----- per-layer counts over every window ----------------------------
    let committed = total.global_committed + total.local_committed;
    let globals_decided = total.global_committed + total.global_aborted;
    count_layers(&mut res, &total, globals_decided, wall, cpu);
    let flushes = total.counters.get("wal.flushes") as f64;
    res.layers.insert(
        "storage.fsyncs_per_commit",
        ratio(fsyncs as f64, committed as f64),
    );
    res.layers.insert(
        "storage.parked_msgs_per_global",
        ratio(
            total.counters.get("wal.parked_msgs") as f64,
            globals_decided as f64,
        ),
    );
    res.layers.insert("storage.flushes_per_s", flushes / wall);
    res.layers
        .insert("runtime.batches_per_fsync", ratio(flushes, fsyncs as f64));

    // ----- recorded parameters ------------------------------------------
    res.param("offered_txn_s", json_num(spec.rate));
    res.param(
        "windows",
        format!("{{\"count\":{windows},\"seconds\":{window_s}}}"),
    );
    res.param("transactions", res.attempted.to_string());
    res.param("sessions", SESSIONS.to_string());
    res.param("sites", SITES.to_string());
    res.param("accounts_per_site", ACCOUNTS_PER_SITE.to_string());
    res.param("local_fraction", json_num(LOCAL_FRACTION));
    res.param("protocol", json_str("O2pcP2"));
    res.param("runtime", json_str("threaded, zero link latency"));
    res.param("admission_window", ADMISSION_WINDOW.to_string());
    res.param(
        "timeouts_ms",
        format!(
            "{{\"vote\":{VOTE_TIMEOUT_MS},\"termination\":{TERMINATION_TIMEOUT_MS},\"retransmit\":{RETRANSMIT_MS}}}"
        ),
    );
    res.param(
        "wal",
        if spec.durable {
            json_str(&format!(
                "durable; wal_flush_interval {FLUSH_INTERVAL_MS} ms; wal_flush_bytes {FLUSH_BYTES}; \
                 physical-fsync gating (wal_background_flush = true)"
            ))
        } else {
            json_str("in-memory")
        },
    );
    res.param("watchdog_drain_s", DRAIN_DEADLINE_S.to_string());
    res.param("wall_s", json_num(wall));
    res.param(
        "global_latency_samples",
        total.global_latency.count().to_string(),
    );
    res.param(
        "local_latency_samples",
        total.local_latency.count().to_string(),
    );

    if tracer.enabled() {
        let inputs = replay::OpenLoopInputs {
            schedule: &last.schedule,
            report: &last.report,
            records: &last.records,
            sites: SITES,
            scratch: &out_dir.join(format!("replay-{}-{name}", std::process::id())),
            generate_ms: last.generate_ms,
        };
        replay::open_loop_replays(&mut res, tracer, &inputs);
    }
    res
}

/// The paper's no-extra-messages claim (E6) on a loss-free run: O2PC sends
/// no more than 2PC's one VOTE-REQ, vote, decision and ack per participant.
/// Every spawned subtransaction is sent a decision and acks it; its VOTE-REQ
/// may be skipped (a vote timeout aborts a global before the vote round),
/// and every reply answers a request. A coordinator retransmission (its
/// 10 ms timer fires when an ack waits on a slow fsync or a stalled thread)
/// resends a VOTE-REQ or decision to at most every participant: those
/// resends, and the replies they draw, are the only extras allowed.
fn message_gate(res: &mut RunResult, report: &RunReport) {
    let c = &report.counters;
    let lost: u64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("msg.dropped.") || k.starts_with("msg.unroutable."))
        .map(|(_, v)| v)
        .sum();
    res.gate(lost == 0, || {
        format!("loss-free run lost {lost} message(s)")
    });
    let spawn = c.get("msg.spawn");
    let [vote_req, vote, decision, ack] = [
        "msg.vote_req",
        "msg.vote",
        "msg.decision",
        "msg.decision_ack",
    ]
    .map(|k| c.get(k));
    let retransmits = c.get("msg.retransmit");
    let resent = vote_req.saturating_sub(spawn) + decision.saturating_sub(spawn);
    let ok = decision >= spawn
        && (spawn..=decision).contains(&ack)
        && vote <= vote_req
        && resent <= retransmits * SITES_PER_GLOBAL;
    res.gate(ok, || {
        format!(
            "2PC message counts: spawn {spawn}, vote_req {vote_req}, vote {vote}, \
             decision {decision}, decision_ack {ack}, retransmissions {retransmits}"
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counts: &[(&str, u64)]) -> RunReport {
        let mut r = RunReport::default();
        for &(k, v) in counts {
            r.counters.add(k, v);
        }
        r
    }

    fn gate(counts: &[(&str, u64)]) -> bool {
        let mut res = RunResult::default();
        message_gate(&mut res, &report(counts));
        res.gate_failures.is_empty()
    }

    const FULL: [(&str, u64); 5] = [
        ("msg.spawn", 10),
        ("msg.vote_req", 10),
        ("msg.vote", 10),
        ("msg.decision", 10),
        ("msg.decision_ack", 10),
    ];

    #[test]
    fn message_gate_accepts_the_2pc_pattern() {
        assert!(gate(&FULL));
        // A vote timeout aborts a global before its vote round: two
        // participants get a decision without a VOTE-REQ.
        assert!(gate(&[
            ("msg.spawn", 10),
            ("msg.vote_req", 8),
            ("msg.vote", 8),
            ("msg.decision", 10),
            ("msg.decision_ack", 10),
        ]));
        // One retransmission resends a decision to both participants, and
        // each acks again.
        assert!(gate(&[
            ("msg.spawn", 10),
            ("msg.vote_req", 10),
            ("msg.vote", 10),
            ("msg.decision", 12),
            ("msg.decision_ack", 12),
            ("msg.retransmit", 1),
        ]));
    }

    #[test]
    fn message_gate_rejects_extra_or_lost_messages() {
        let mut extra = FULL;
        extra[3].1 = 11;
        assert!(!gate(&extra), "a decision beyond one per participant");
        let mut unanswered = FULL;
        unanswered[4].1 = 9;
        assert!(!gate(&unanswered), "a participant that never acked");
        let mut lost = FULL.to_vec();
        lost.push(("msg.dropped.vote", 1));
        assert!(!gate(&lost), "a lost message on a loss-free run");
    }
}
