//! The chaos sweep: a seed block of `ChaosPlan`s run one after another on
//! one core through `run_plan`, each judged by the chaos oracle (including
//! the live serialization-graph audit).

use crate::metrics::{count_layers, fold_report, RunResult};
use crate::replay;
use crate::sys::{self, hist_quantile, json_num, json_str, median, ratio, sample_quantile};
use crate::trace::Tracer;
use o2pc_chaos::{run_plan, ChaosConfig, ChaosPlan, Hardening};
use o2pc_common::History;
use o2pc_core::RunReport;
use std::time::Instant;

/// Plans in the seed block: more than a 60 s sweep runs (about 500 plans
/// per second on one core), so a run judges distinct plans; it wraps
/// around only if it outruns them.
const BLOCK: u64 = 32_768;
/// Set-up (generating the block) runs this many times; `setup_s` is the
/// median.
const SETUP_REPS: usize = 5;
/// Histories kept for the traced replays.
const KEPT_HISTORIES: usize = 64;

/// Run the sweep for `seconds` of wall time.
pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> RunResult {
    let mut res = RunResult::default();
    let cfg = ChaosConfig::default();
    let base = seed.wrapping_mul(1 << 20);

    tracer.begin("setup");
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut plans = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        plans = tracer.span("setup.rep", || {
            (0..BLOCK)
                .map(|i| ChaosPlan::generate(base + i, &cfg))
                .collect::<Vec<_>>()
        });
        setup_s.push(t.elapsed().as_secs_f64());
    }
    tracer.end();

    let mut total = RunReport::default();
    let mut plan_ms = Vec::new();
    let mut histories: Vec<History> = Vec::new();
    let mut violated = 0u64;
    let cpu0 = sys::process_cpu_secs();
    let t = Instant::now();
    tracer.begin("sweep");
    while t.elapsed().as_secs_f64() < seconds as f64 {
        let plan = &plans[plan_ms.len() % plans.len()];
        let p = Instant::now();
        let out = tracer.span("chaos.run_plan", || run_plan(plan, Hardening::default()));
        plan_ms.push(p.elapsed().as_secs_f64() * 1e3);
        if !out.survived() {
            violated += 1;
            for v in &out.violations {
                res.gate_failures
                    .push(format!("oracle, plan seed {}: {v}", plan.seed));
            }
        }
        fold_report(&mut total, &out.report);
        if tracer.enabled() && histories.len() < KEPT_HISTORIES {
            histories.push(out.report.history);
        }
    }
    tracer.end();
    let wall = t.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_secs() - cpu0;
    let schedules = plan_ms.len() as u64;

    res.attempted = schedules;
    res.failed = violated;
    res.gate(total.compensations_pending == 0, || {
        format!("compensations_pending = {}", total.compensations_pending)
    });

    let committed = total.global_committed + total.local_committed;
    let decided = committed + total.global_aborted + total.local_aborted;
    res.e2e.insert("setup_s", median(&setup_s));
    res.e2e.insert("goodput_txn_s", committed as f64 / wall);
    res.e2e.insert(
        "commit_p50_ms",
        hist_quantile(&total.global_latency, 0.50) / 1e3,
    );
    res.e2e.insert(
        "commit_p95_ms",
        hist_quantile(&total.global_latency, 0.95) / 1e3,
    );
    res.e2e.insert(
        "commit_p99_ms",
        hist_quantile(&total.global_latency, 0.99) / 1e3,
    );
    res.e2e.insert(
        "local_p50_ms",
        hist_quantile(&total.local_latency, 0.50) / 1e3,
    );
    res.e2e.insert(
        "failed_share",
        ratio((decided - committed) as f64, decided as f64),
    );
    res.e2e
        .insert("cpu_us_per_txn", ratio(cpu * 1e6, decided as f64));

    // Globals submitted equal globals decided: the oracle fails any plan
    // that leaves one unfinished.
    count_layers(
        &mut res,
        &total,
        total.global_committed + total.global_aborted,
        wall,
        cpu,
    );
    res.layers
        .insert("chaos.run_plan_p50_ms", sample_quantile(&plan_ms, 0.50));
    res.layers
        .insert("chaos.run_plan_p99_ms", sample_quantile(&plan_ms, 0.99));
    res.layers
        .insert("chaos.schedules_s", schedules as f64 / wall);
    res.layers
        .insert("workload.generate_ms", median(&setup_s) * 1e3);
    // Every chaos schedule logs to the in-memory WAL.
    for name in [
        "storage.fsyncs_per_commit",
        "storage.parked_msgs_per_global",
        "storage.flushes_per_s",
        "runtime.batches_per_fsync",
    ] {
        res.layers.insert(name, 0.0);
    }

    res.param(
        "plan_seeds",
        format!("{{\"first\":{base},\"block\":{BLOCK}}}"),
    );
    res.param("schedules", schedules.to_string());
    res.param("sites", cfg.num_sites.to_string());
    res.param("accounts_per_site", "8".to_string());
    res.param("transactions_per_schedule", "120".to_string());
    res.param(
        "faults",
        json_str(&format!(
            "heal_at {} ms, up to {} crashes, up to {} partitions, 5-15% drop, 5-15% duplication",
            cfg.heal_at.micros() / 1_000,
            cfg.max_crashes,
            cfg.max_partitions
        )),
    );
    res.param(
        "protocols",
        json_str("rotated by seed: D2pl2pc, O2pcP2, O2pcSimple, O2pcP1"),
    );
    res.param(
        "runtime",
        json_str("deterministic simulator, one core; latencies are virtual time"),
    );
    res.param(
        "timeouts_ms",
        "{\"vote\":40,\"termination\":50,\"retransmit\":10}".to_string(),
    );
    res.param("admission_window", json_str("none"));
    res.param("wal", json_str("in-memory"));
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
        replay::chaos_replays(&mut res, tracer, &histories, &total, cfg.num_sites);
    }
    res
}
