//! The repository benchmark: three single-threaded fabric workloads timed
//! end to end from outside the simulator, plus a traced run and a ladder
//! of isolated per-layer timings. `run.py` builds this crate and runs its
//! binary; see `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod bench;
pub mod ladder;
pub mod pins;
pub mod procfs;
pub mod workloads;
