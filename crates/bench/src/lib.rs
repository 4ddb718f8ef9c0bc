//! # o2pc-bench
//!
//! The experiment harness. Every figure of the paper and every qualitative
//! performance claim has a regenerating function here, run alone by
//! `all_experiments --only <table>` (see DESIGN.md §4 for the
//! experiment ↔ claim index and EXPERIMENTS.md for the recorded outcomes):
//!
//! | id | table | claim |
//! |----|--------|-------|
//! | F1 | `fig1_regular_cycles` | Figure 1 / Example 1 regular-cycle semantics |
//! | F2 | `fig2_marking_transitions` | Figure 2 marking state machine |
//! | E1 | `e1_lock_hold_time` | early release shortens exclusive-lock holds |
//! | E2 | `e2_contention_throughput` | early release helps under contention |
//! | E3 | `e3_abort_crossover` | pessimism wins once aborts dominate |
//! | E4 | `e4_blocking_window` | 2PC blocks across coordinator failure, O2PC doesn't |
//! | E5 | `e5_p1_overhead` | P1 costs conflicts only when transactions abort |
//! | E5b | `e5b_udum_ablation` | UDUM1 safe forgetting buys back concurrency |
//! | E6 | `e6_message_counts` | O2PC/P1 add no messages beyond standard 2PC |
//! | E7 | `e7_correctness_audit` | criterion ⊇ serializability; P1 kills regular cycles |
//! | E8 | `e8_real_actions` | only non-compensatable sites keep blocking |
//! | E9 | `e9_autonomy` | global traffic must not inflate local latency (multidatabase autonomy) |
//!
//! `all_experiments` runs the lot (it is what `bench_output.txt` records);
//! each table is also written to `results/<slug>.csv`. The `simulate` binary
//! is a free-form driver: pick a protocol, workload, abort probability,
//! latency and seed on the command line and read the full report.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod open_loop;
pub mod table;

pub use open_loop::{run_open_loop, OpenLoopClients, OpenLoopOutcome};
pub use table::Table;
