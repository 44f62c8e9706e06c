//! Shared harness code for the benchmark binaries: the §5 stress test,
//! the full-table ingestion benchmark behind `fulltable_100k`, plus the
//! `BENCH_sim.json` baseline schema validator `sim_bench` enforces.

pub mod baseline;
pub mod fulltable;
pub mod stress;

pub use baseline::{validate_sim_bench_schema, SIM_BENCH_SCHEMA};
pub use fulltable::{full_table_frames, run_full_table, FullTableResult};
pub use stress::{run_classic_bgp, run_dbgp, StressResult};
