//! Experiment harness: regenerates every table and figure of the PID-Piper
//! paper's evaluation, plus criterion performance benches.
//!
//! Each bench target under `benches/` is a thin wrapper around one module
//! here; run `cargo bench -p pidpiper-bench` to regenerate everything (the
//! first run trains and caches the ML models under
//! `target/pidpiper-cache/`). Set `PIDPIPER_SCALE=full` for the
//! paper-scale run (30 missions per cell, 5 km stealthy sweeps); the
//! default `quick` scale keeps the whole suite within a few minutes while
//! preserving every qualitative comparison.
//!
//! Outputs are printed and mirrored into `target/experiments/`.

#![deny(missing_docs)]

pub mod exp_ablation;
pub mod exp_adversarial;
pub mod exp_design_study;
pub mod exp_fault_matrix;
pub mod exp_fig2;
pub mod exp_fig6;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_perf;
pub mod exp_recovery;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_table4;
pub mod harness;

pub use harness::Scale;
