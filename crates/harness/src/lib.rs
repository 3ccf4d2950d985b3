//! # ac-harness — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | `table1` | Table 1 — 27-cell complexity taxonomy + matching protocols | [`experiments::table1`] |
//! | `table2` | Table 2 — delay-optimal protocols | [`experiments::table2`] |
//! | `table3` | Table 3 — message-optimal protocols | [`experiments::table3`] |
//! | `table4` | Table 4 — indulgent AC vs synchronous NBAC | [`experiments::table4`] |
//! | `table5` | Table 5 — INBAC vs 2PC vs PaxosCommit (sweep) | [`experiments::table5`] |
//! | `fig1`   | Figure 1 — INBAC state transitions at 2U | [`experiments::fig1`] |
//! | `ablations` | §5.2 fast abort, consensus engagement, ack bundling | [`experiments::ablations`] |
//! | `exhaustive` | (cross-cutting) parallel small-model soundness sweep | [`experiments::exhaustive`] |
//! | `bench` | (cross-cutting) machine-readable bench baseline | [`experiments::bench_baseline`] |
//!
//! Each experiment returns a [`report::Report`] that renders as aligned
//! text (what `repro` prints and EXPERIMENTS.md records) and serializes to
//! JSON for downstream tooling. Explorer-backed experiments take a `jobs`
//! worker-thread count (the `repro` binary's `--jobs` flag). `bench` and
//! the live sweeps (`load`, `chaos`, `saturate`, `proc`) additionally emit
//! a [`report::BenchBaseline`] snapshot — one format, whose sections and
//! validation rules live in [`report`] — written to `BENCH_baseline.json`
//! and validated by `repro bench-check` in CI.

#![deny(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod procrun;
pub mod report;

pub use report::{Report, Table};
