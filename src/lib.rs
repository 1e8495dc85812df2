#![warn(missing_docs)]

//! Umbrella crate for the ERR reproduction workspace: re-exports the
//! public API of every member crate so examples and integration tests can
//! use a single dependency.

pub use desim;
pub use err_experiments as experiments;
pub use err_fabric as fabric;
pub use err_runtime as runtime;
pub use err_sched as sched;
pub use fairness_metrics as fairness;
pub use traffic_gen as traffic;
pub use wormhole_net as wormhole;
