//! The PS2Stream benchmark: named workloads run on the default deployment,
//! measured end to end at the system's public API, checked pair by pair
//! against a sequential reference, plus a traced pass that times each
//! layer's public functions.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload q3-match --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and what each
//! per-layer number is expected to move.

#![warn(missing_docs)]

pub mod pipeline;
pub mod reference;
pub mod report;
pub mod trace;
pub mod workloads;
