//! Production-path benchmark for the O2PC reproduction.
//!
//! ```text
//! cargo run --release --manifest-path prodbench/Cargo.toml -- \
//!     --workload durable_open_loop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload, checks its outputs, and prints as its last stdout
//! line one JSON object: `correct`, `attempted`, `failed`, and `metrics`
//! (every end-to-end metric with `--trace 0`; with `--trace 1`, every
//! per-layer metric, plus a Chrome trace and a layer file under
//! `prodbench/out/`). Exits 1 when a correctness gate fails, 2 on bad
//! arguments. See `NOTES.md` for the metric glossary.

mod chaos_sweep;
mod metrics;
mod openloop;
mod replay;
mod sys;
mod trace;

use metrics::{RunResult, END_TO_END, INFORMATIONAL, PER_LAYER};
use openloop::OpenLoop;
use std::path::{Path, PathBuf};
use sys::{json_num, json_str};
use trace::Tracer;

/// The workloads: name, the one-line reason it exists, and what it runs.
const WORKLOADS: &[(&str, &str)] = &[
    (
        "durable_open_loop",
        "threaded runtime on the durable WAL with physical-fsync gating at 1000 txn/s: the WAL append, seal, fsync and park pipeline dominates while the CPU idles",
    ),
    (
        "memory_open_loop",
        "the same mix on the in-memory WAL at 20000 txn/s: engine CPU (locking, marking, counters, transport) dominates with no WAL I/O on the path",
    ),
    (
        "chaos_sweep",
        "exercises recovery, retransmission, termination, compensation under forced aborts, and sgraph",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: o2pc-prodbench --workload <{}> --seed N --seconds N --trace <0|1>",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seconds takes an integer")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.iter().any(|w| w.0 == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        usage("--seconds must be 1 to 60");
    }
    Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    }
}

/// Benchmark outputs (trace files, scratch WALs) live under the package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run the chosen workload for `seconds` and check that it reported every
/// end-to-end metric.
fn run_workload(args: &Args, seconds: u64, tracer: &mut Tracer) -> RunResult {
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create the benchmark output dir");
    let mut res = match args.workload.as_str() {
        "durable_open_loop" => {
            let spec = OpenLoop {
                durable: true,
                rate: 1_000.0,
            };
            openloop::run(&args.workload, &spec, args.seed, seconds, &out, tracer)
        }
        "memory_open_loop" => {
            let spec = OpenLoop {
                durable: false,
                rate: 20_000.0,
            };
            openloop::run(&args.workload, &spec, args.seed, seconds, &out, tracer)
        }
        "chaos_sweep" => chaos_sweep::run(args.seed, seconds, tracer),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    res.e2e.insert("peak_rss_mb", sys::peak_rss_mb());
    res.gate(res.attempted > 0, || {
        "the run attempted nothing".to_string()
    });
    for (name, _) in END_TO_END.iter().chain(INFORMATIONAL) {
        assert!(res.e2e.contains_key(name), "workload did not report {name}");
    }
    res
}

fn params_json(args: &Args, res: &RunResult) -> String {
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or("", |w| w.1);
    let mut fields = vec![
        format!("\"workload\":{}", json_str(&args.workload)),
        format!("\"why\":{}", json_str(why)),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"nproc\":{}", sys::nproc()),
        format!("\"filesystem\":{}", json_str(&sys::fs_type(&out_dir()))),
    ];
    fields.extend(
        res.params
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k))),
    );
    format!("{{{}}}", fields.join(","))
}

/// The per-layer file: every per-layer metric with unit, base and value
/// (or the reason it is missing), the recorded parameters, and the
/// tracing overhead against the untraced run.
fn layer_file(args: &Args, traced: &RunResult, untraced: &RunResult, spans: usize) -> String {
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, base)| {
            let missing = traced
                .missing
                .get(name)
                .map_or(String::new(), |m| format!(",\"missing\":{}", json_str(m)));
            format!(
                "{{\"name\":{},\"unit\":{},\"base\":{},\"value\":{}{missing}}}",
                json_str(name),
                json_str(unit),
                json_str(base),
                json_num(traced.layers[name])
            )
        })
        .collect();
    let overhead: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit)| {
            let (u, t) = (untraced.e2e[name], traced.e2e[name]);
            format!(
                "{{\"name\":{},\"unit\":{},\"untraced\":{},\"traced\":{},\"delta\":{},\"delta_share\":{}}}",
                json_str(name),
                json_str(unit),
                json_num(u),
                json_num(t),
                json_num(t - u),
                json_num(sys::ratio(t - u, u))
            )
        })
        .collect();
    format!(
        "{{\"params\":{},\"spans\":{spans},\"per_layer\":[\n{}\n],\"tracing_overhead\":[\n{}\n]}}\n",
        params_json(args, traced),
        layers.join(",\n"),
        overhead.join(",\n")
    )
}

fn main() {
    let args = parse_args();
    let why = WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map_or("", |w| w.1);
    println!("# {} (seed {}): {why}", args.workload, args.seed);

    // A traced run splits its time: an untraced half measures the
    // end-to-end baseline the tracing overhead is taken against, then a
    // traced half records the spans and the per-layer metrics.
    let untraced_s = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let untraced = run_workload(&args, untraced_s, &mut Tracer::new(false));
    let mut gate_failures = untraced.gate_failures.clone();
    let (result, names): (&RunResult, Vec<(&str, &str)>);
    let traced;
    if args.trace {
        let mut tracer = Tracer::new(true);
        traced = run_workload(&args, (args.seconds / 2).max(1), &mut tracer);
        gate_failures.extend(traced.gate_failures.iter().cloned());
        for (name, _, _) in PER_LAYER {
            assert!(
                traced.layers.contains_key(name),
                "workload did not report {name}"
            );
        }
        let stem = out_dir().join(format!("{}-seed{}", args.workload, args.seed));
        let trace_path = stem.with_extension("trace.json");
        let layer_path = stem.with_extension("layers.json");
        std::fs::write(&trace_path, tracer.chrome_json(&args.workload)).expect("write trace");
        std::fs::write(
            &layer_path,
            layer_file(&args, &traced, &untraced, tracer.len()),
        )
        .expect("write layer file");
        println!("trace {}", trace_path.display());
        println!("layers {}", layer_path.display());
        for (name, unit) in END_TO_END {
            let (u, t) = (untraced.e2e[name], traced.e2e[name]);
            println!(
                "overhead {name} {} {unit} ({:+.2}%)",
                json_num(t - u),
                sys::ratio(t - u, u) * 100.0
            );
        }
        result = &traced;
        names = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    } else {
        result = &untraced;
        names = END_TO_END.to_vec();
    }

    println!("params {}", params_json(&args, result));
    let values = if args.trace {
        &result.layers
    } else {
        &result.e2e
    };
    for (name, unit) in &names {
        println!("metric {name} {} {unit}", json_num(values[name]));
    }
    for (name, unit) in INFORMATIONAL {
        if let Some(v) = result.e2e.get(name) {
            println!(
                "info {name} {} {unit} (not gated; see NOTES.md)",
                json_num(*v)
            );
        }
    }
    for g in &gate_failures {
        eprintln!("GATE FAILED: {g}");
    }
    let correct = gate_failures.is_empty();
    // A traced run counts the operations of both halves.
    let (attempted, failed) = if args.trace {
        (
            untraced.attempted + result.attempted,
            untraced.failed + result.failed,
        )
    } else {
        (result.attempted, result.failed)
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(values[name]),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        attempted,
        failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
