//! End-to-end benchmark of the framed SQL server.
//!
//! One process starts the real `SqlServer` in-process with its default
//! `ServerConfig` and `EngineConfig`, and drives it over loopback with
//! two closed-loop clients built on the server crate's own wire codec.
//! Every answer is checked against an oracle computed from the generated
//! inputs. See `README.md` in this directory for the workloads, the
//! metrics and the layer map.

#![forbid(unsafe_code)]

mod calib;
mod client;
mod gen;
mod metrics;
mod replay;
mod runner;
mod spans;
mod stats;
mod sys;
mod workloads;

pub use calib::{calibrate, slowdown, Calibration, MAX_OTHERS_SHARE, PARTS, PART_NAMES};
pub use metrics::render_json;
pub use runner::{run, Metric, RunArgs, RunResult};
pub use workloads::Workload;
