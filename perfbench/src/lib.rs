//! Encrypted-inference benchmark for the Athena workspace.
//!
//! One process runs one workload ([`workloads`]) through the public
//! serving API and checks every decrypted answer against the certified
//! plaintext reference. The untraced pass ([`serve`]) gives the
//! end-to-end metrics; the traced pass ([`traced`]) times each plan step
//! from outside and snapshots the public counters around it for the
//! per-layer metrics. `run.py` next to this crate builds it and runs each
//! workload in its own process.

pub mod kernels;
pub mod report;
pub mod runner;
pub mod serve;
pub mod traced;
pub mod workloads;
