//! The Podium serving layer: long-lived, concurrent selection serving over
//! a live user repository.
//!
//! The paper positions Podium as a system that "applies to a given user
//! repository as-is and may be easily executed multiple times, e.g., to
//! incorporate data updates" (§9), with grouping computed offline and
//! selection queries arriving online (§7). This crate turns the batch
//! library into that online system:
//!
//! * [`snapshot`] — epoch-numbered, immutable [`snapshot::Snapshot`]s
//!   bundling the repository and its group set (with its CSR graph),
//!   published via atomic `Arc` swap by a single
//!   [`snapshot::RepositoryWriter`] that applies profile updates through
//!   [`podium_core::incremental::IncrementalGroups`];
//! * [`executor`] — a fixed worker pool draining a bounded request queue
//!   with reject-on-full admission control and per-request deadlines
//!   checked between greedy rounds;
//! * [`session`] — the paper's §6 customization loop: a session pins a
//!   snapshot epoch and accumulates `G+`/`G-`/`Gd`/`Gd?` feedback across
//!   refinement requests without re-ingesting;
//! * [`protocol`] + [`server`] + [`tcp`] — a line-delimited JSON
//!   request/response protocol (`select`, `explain`, `refine`,
//!   `update-profile`, `stats`, plus session management) served over
//!   stdin/stdout, a Unix domain socket, or TCP (with connection limits,
//!   idle timeouts, and graceful drain) using only `std`;
//! * [`client`] — a resilient TCP client with reconnection, jittered
//!   exponential backoff, per-request deadlines, and a half-open circuit
//!   breaker;
//! * [`chaos`] — a deterministic in-process chaos proxy injecting write
//!   splits, mid-frame disconnects, stalls, and refusals from a seeded
//!   splitmix64 stream, for transport-resilience tests;
//! * [`wal`] + [`recovery`] — the durability subsystem: a checksummed,
//!   length-prefixed write-ahead log with a configurable fsync policy,
//!   atomic checkpoint files, and a startup recovery path that loads the
//!   newest valid checkpoint, replays the WAL suffix through the ordinary
//!   publish path, and quarantines torn tails instead of panicking;
//! * [`bench`](mod@bench) — the seeded synthetic repository the serving tests and
//!   the `perfbench/` benchmark load.
//!
//! The crate is embeddable: [`service::PodiumService`] is an ordinary
//! `Send + Sync` value; the binary front-end lives in the workspace's
//! `podium-cli`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chaos;
pub mod client;
pub mod error;
pub mod executor;
pub mod poison;
pub mod protocol;
pub mod recovery;
pub mod server;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod tcp;
pub mod wal;

pub use chaos::{ChaosClock, ChaosConfig, ChaosProxy};
pub use client::{BreakerState, ClientConfig, ClientError, ClientHealth, PodiumClient};
pub use error::ServiceError;
pub use recovery::{DurabilityOptions, RecoveryReport};
pub use service::{PeerHealth, PodiumService, ServiceConfig};
pub use snapshot::{ProfileUpdate, RepositoryWriter, Snapshot, SnapshotStore};
pub use tcp::{TcpServer, TcpServerConfig};
pub use wal::FsyncPolicy;
