//! A seeded end-to-end and per-layer benchmark of the Podium serving stack.
//!
//! Four workloads drive `podium-service` and `podium-core` through their
//! public functions, check every answer against an oracle, and report
//! end-to-end metrics; a traced run replays the same scripts through the
//! serving layers' public entry points with a span around each call and
//! reports per-layer metrics. See `README.md` beside this crate.

pub mod common;
pub mod layers;
pub mod openloop;
pub mod procfs;
pub mod script;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workloads;
