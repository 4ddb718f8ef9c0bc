//! Run the full experiment suite (F1, F2, E1–E9) in order, or one of it.
//!
//! ```sh
//! all_experiments [--backend {sim,threaded}] [--cores N] [--only NAME]
//! ```
//!
//! `--only NAME` runs a single simulator experiment, named by its table
//! (`fig1_regular_cycles`, `e5b_udum_ablation`, …; see [`EXPERIMENTS`]).
//!
//! `--backend sim` (the default) runs every experiment on the deterministic
//! simulator. `--backend threaded` runs the experiments ported to the
//! wall-clock runtime (currently E1); the others only exist on the
//! simulator and are skipped with a note.
//!
//! `--cores N` fans each simulator sweep's points out over N worker
//! threads (default: all available; `--cores 1` is fully sequential). Rows
//! are merged back in sweep order, so the emitted tables and CSVs are
//! byte-identical at any core count. The threaded backend ignores the flag:
//! its experiments measure wall-clock latency and must own the machine.
use o2pc_bench::experiments as ex;
use o2pc_bench::experiments::Backend;
use std::process::exit;

/// The simulator suite in run order: table name, regenerating function.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig1_regular_cycles", ex::fig1),
    ("fig2_marking_transitions", ex::fig2),
    ("e1_lock_hold_time", ex::e1),
    ("e2_contention_throughput", ex::e2),
    ("e3_abort_crossover", ex::e3),
    ("e4_blocking_window", ex::e4),
    ("e5_p1_overhead", ex::e5),
    ("e5b_udum_ablation", ex::e5b),
    ("e6_message_counts", ex::e6),
    ("e7_correctness_audit", ex::e7),
    ("e8_real_actions", ex::e8),
    ("e9_autonomy", ex::e9),
];

const USAGE: &str = "usage: all_experiments [--backend {sim,threaded}] [--cores N] [--only NAME]";

struct Args {
    backend: Backend,
    cores: usize,
    only: Option<fn()>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        backend: Backend::Sim,
        cores: 0, // all available
        only: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --backend requires a value (`sim` or `threaded`)");
                    exit(2);
                };
                parsed.backend = match value.parse() {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("error: {e}");
                        exit(2);
                    }
                };
            }
            "--cores" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --cores requires a value");
                    exit(2);
                };
                parsed.cores = match value.parse() {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: --cores: {e}");
                        exit(2);
                    }
                };
            }
            "--only" => {
                let Some(value) = args.next() else {
                    eprintln!("error: --only requires an experiment name");
                    exit(2);
                };
                let Some(&(_, run)) = EXPERIMENTS.iter().find(|(name, _)| value == *name) else {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
                    eprintln!(
                        "error: unknown experiment `{value}` (one of {})",
                        names.join(", ")
                    );
                    exit(2);
                };
                parsed.only = Some(run);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => {
                eprintln!("error: unexpected argument `{other}`");
                eprintln!("{USAGE}");
                exit(2);
            }
        }
    }
    if parsed.only.is_some() && parsed.backend == Backend::Threaded {
        eprintln!("error: --only selects a simulator experiment; drop --backend threaded");
        exit(2);
    }
    parsed
}

fn main() {
    let args = parse_args();
    match args.backend {
        Backend::Sim => {
            ex::set_cores(args.cores);
            if let Some(run) = args.only {
                run();
                return;
            }
            println!("# O2PC reproduction — full experiment suite (deterministic sim)");
            println!("# mode: closed-loop trace replay (pre-generated arrival schedule)\n");
            for (_, run) in EXPERIMENTS {
                run();
            }
            println!("\nAll experiments completed.");
        }
        Backend::Threaded => {
            println!("# O2PC reproduction — threaded wall-clock backend");
            println!("# E1 mode: closed-loop trace replay (pre-generated arrival schedule)");
            println!("# E10 mode: open-loop (2 000 Poisson client sessions, bounded admission)\n");
            println!("(F1–F2, E2–E9 are defined on the deterministic simulator only;");
            println!(" run them with `--backend sim`.)\n");
            ex::e1_threaded();
            ex::e10_open_loop_threaded();
            println!("\nThreaded experiments completed.");
        }
    }
}
