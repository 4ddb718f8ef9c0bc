//! The benchmark's metric catalogue and the per-run result it fills in.
//!
//! Every workload reports every metric of both tables, so the names here
//! must match `BENCHMARK.json`. A per-layer metric a workload does not
//! exercise reads 0 and carries the reason in the layer file.

use crate::sys::{hist_quantile, ratio};
use o2pc_core::RunReport;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. All lower-is-better except
/// `goodput_txn_s`.
///
/// The gated tail is p95: on the durable path the p99 of commit latency
/// falls beyond the forced-abort mode, in a tail set by host fsync and
/// scheduling stalls, and its run-to-run spread exceeds any bound the
/// benchmark may set. It is still measured and printed, as
/// [`INFORMATIONAL`].
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("goodput_txn_s", "txn/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p95_ms", "ms"),
    ("local_p50_ms", "ms"),
    ("failed_share", "ratio"),
    ("cpu_us_per_txn", "us"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end values printed for information only, never gated.
pub const INFORMATIONAL: &[(&str, &str)] = &[("commit_p99_ms", "ms")];

/// Per-layer metrics: `(name, unit, base)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "core.msgs_per_global",
        "count",
        "messages of every type per decided global",
    ),
    (
        "core.events_per_txn",
        "count",
        "engine steps per decided transaction",
    ),
    (
        "core.admit_queued_share",
        "ratio",
        "globals queued at admission per submitted global",
    ),
    (
        "marking.r1_reject_ratio",
        "ratio",
        "R1 rejections per R1 check",
    ),
    (
        "marking.forced_aborts_per_global",
        "ratio",
        "R1 forced aborts per decided global",
    ),
    (
        "compensation.plans_per_abort",
        "ratio",
        "compensation plans per aborted global",
    ),
    ("locking.wait_p99_ms", "ms", "p99 of lock waits that queued"),
    (
        "locking.x_hold_p50_ms",
        "ms",
        "p50 of exclusive lock hold times",
    ),
    (
        "locking.deadlock_victims_per_ktxn",
        "count",
        "deadlock victims per 1000 decided transactions",
    ),
    (
        "storage.fsyncs_per_commit",
        "ratio",
        "data fsyncs per committed transaction",
    ),
    (
        "storage.parked_msgs_per_global",
        "ratio",
        "messages parked on the WAL gate per decided global",
    ),
    (
        "storage.flushes_per_s",
        "1/s",
        "group-commit flush points per wall second",
    ),
    (
        "runtime.batches_per_fsync",
        "ratio",
        "sealed flush batches per data fsync",
    ),
    (
        "storage.wal_bytes_per_commit",
        "bytes",
        "encoded WAL bytes per committed transaction",
    ),
    (
        "runtime.cores_busy",
        "cores",
        "process CPU seconds per wall second of the run",
    ),
    (
        "storage.encode_ns_per_record",
        "ns",
        "codec encode per WAL record of the run",
    ),
    (
        "storage.decode_ns_per_record",
        "ns",
        "codec decode per WAL record of the run",
    ),
    (
        "storage.fsync_p50_us",
        "us",
        "p50 of DurableWal append+sync per replayed batch",
    ),
    (
        "storage.fsync_p99_us",
        "us",
        "p99 of DurableWal append+sync per replayed batch",
    ),
    (
        "storage.recover_ms",
        "ms",
        "reopen and recover every site WAL of the run",
    ),
    (
        "storage.store_apply_ns",
        "ns",
        "Store apply per replayed operation",
    ),
    (
        "locking.request_release_ns",
        "ns",
        "LockManager request+release per replayed operation",
    ),
    (
        "marking.r1_check_ns",
        "ns",
        "TransMarks R1 check per replayed subtransaction",
    ),
    (
        "common.counter_add_ns",
        "ns",
        "CounterSet add per replayed counter increment",
    ),
    (
        "runtime.handoff_ns_per_msg",
        "ns",
        "ThreadedTransport send-to-receive per replayed message",
    ),
    (
        "sim.event_queue_ns",
        "ns",
        "EventQueue schedule+pop per replayed event",
    ),
    (
        "sgraph.observe_ns_per_event",
        "ns",
        "IncrementalSg observe per history event",
    ),
    (
        "sgraph.audit_ms",
        "ms",
        "batch serialization-graph audit per history",
    ),
    (
        "chaos.run_plan_p50_ms",
        "ms",
        "p50 wall time of one run_plan call",
    ),
    (
        "chaos.run_plan_p99_ms",
        "ms",
        "p99 wall time of one run_plan call",
    ),
    (
        "chaos.schedules_s",
        "1/s",
        "chaos schedules completed per wall second",
    ),
    (
        "workload.generate_ms",
        "ms",
        "generate the run's inputs once",
    ),
];

/// What one run of a workload produced.
#[derive(Default)]
pub struct RunResult {
    /// Operations attempted (transactions submitted, or chaos schedules).
    pub attempted: u64,
    /// Operations that did not complete correctly (undecided at the
    /// deadline, or schedules the oracle rejected).
    pub failed: u64,
    /// Correctness gates that failed, one line each.
    pub gate_failures: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload does not exercise, with the reason.
    pub missing: BTreeMap<&'static str, String>,
    /// Recorded parameters: key and JSON value text.
    pub params: Vec<(&'static str, String)>,
}

impl RunResult {
    /// Record a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// Mark per-layer metrics as not exercised by this workload.
    pub fn not_exercised(&mut self, names: &[&'static str], why: &str) {
        for &n in names {
            self.layers.insert(n, 0.0);
            self.missing.insert(n, why.to_string());
        }
    }

    /// Record a parameter.
    pub fn param(&mut self, key: &'static str, json_value: impl Into<String>) {
        self.params.push((key, json_value.into()));
    }
}

/// Add one run's report into a running total: outcome counts, latency and
/// lock histograms, counters, pending compensations and engine steps.
pub fn fold_report(into: &mut RunReport, r: &RunReport) {
    into.global_committed += r.global_committed;
    into.global_aborted += r.global_aborted;
    into.local_committed += r.local_committed;
    into.local_aborted += r.local_aborted;
    into.global_latency.merge(&r.global_latency);
    into.local_latency.merge(&r.local_latency);
    into.locks.merge(&r.locks);
    into.counters.merge(&r.counters);
    into.compensations_pending += r.compensations_pending;
    into.events_processed += r.events_processed;
}

/// Per-layer counts every workload derives the same way from its report.
pub fn count_layers(
    res: &mut RunResult,
    report: &RunReport,
    globals_submitted: u64,
    wall: f64,
    cpu: f64,
) {
    let c = &report.counters;
    let globals = (report.global_committed + report.global_aborted) as f64;
    let decided = globals + (report.local_committed + report.local_aborted) as f64;
    let msgs: u64 = c
        .iter()
        .filter(|(k, _)| {
            k.starts_with("msg.") && k.matches('.').count() == 1 && *k != "msg.retransmit"
        })
        .map(|(_, v)| v)
        .sum();
    res.layers
        .insert("core.msgs_per_global", ratio(msgs as f64, globals));
    res.layers.insert(
        "core.events_per_txn",
        ratio(report.events_processed as f64, decided),
    );
    res.layers.insert(
        "core.admit_queued_share",
        ratio(c.get("txn.admit_queued") as f64, globals_submitted as f64),
    );
    res.layers.insert(
        "marking.r1_reject_ratio",
        ratio(c.get("r1.rejections") as f64, c.get("r1.checks") as f64),
    );
    res.layers.insert(
        "marking.forced_aborts_per_global",
        ratio(c.get("r1.forced_aborts") as f64, globals),
    );
    res.layers.insert(
        "compensation.plans_per_abort",
        ratio(c.get("comp.plans") as f64, report.global_aborted as f64),
    );
    res.layers.insert(
        "locking.wait_p99_ms",
        hist_quantile(&report.locks.wait_time, 0.99) / 1e3,
    );
    res.layers.insert(
        "locking.x_hold_p50_ms",
        hist_quantile(&report.locks.exclusive_hold, 0.50) / 1e3,
    );
    let victims: u64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("deadlock.victims."))
        .map(|(_, v)| v)
        .sum();
    res.layers.insert(
        "locking.deadlock_victims_per_ktxn",
        ratio(victims as f64 * 1e3, decided),
    );
    res.layers.insert("runtime.cores_busy", ratio(cpu, wall));
}
