//! Socket-to-socket benchmark for the CREATe server.
//!
//! One command runs a seeded workload against the real evented server
//! (`create-server` over a durable `Create::open` data dir) with
//! closed-loop keep-alive clients, checks what the server answered, and
//! prints the end-to-end metrics — or, in a traced run, the per-layer
//! ledger from a single-threaded replay that times every call into a
//! layer's public function. See `bench_e2e/README.md` for the workloads
//! and the layer → end-to-end → workload map.

pub mod checks;
pub mod load;
pub mod metrics;
pub mod setup;
pub mod stats;
pub mod traced;
pub mod workload;
