//! `dramctrl-serve`: an always-up, multi-tenant simulation service.
//!
//! The rest of the workspace is batch-shaped: a CLI invocation expands a
//! campaign, runs it, writes a report, exits. This crate keeps the
//! simulator *resident* — a daemon that accepts run/sweep jobs over a
//! Unix or TCP socket, schedules them fairly across tenants with
//! preemption at request boundaries, and records every accepted job and
//! every finished work unit in a durable store, so a SIGKILL'd daemon
//! restarted on the same store resumes all in-flight work with results
//! byte-identical to a cold CLI run.
//!
//! The pieces, bottom up:
//!
//! - [`wire`]: a minimal line-JSON codec whose numbers stay raw tokens
//!   end to end (a `u64` campaign seed never rounds through a float).
//! - [`proto`]: the protocol — version handshake ([`VersionInfo`],
//!   [`PROTO_VERSION`]), the campaign wire codec, and every event line.
//! - [`store`]: the durable job store ([`JobStore`]) — an fsync-before-
//!   ack accept log plus one `CampaignJournal` per job.
//! - [`sched`]: the two-level round-robin [`FairQueue`] (fair across
//!   tenants, then across one tenant's jobs).
//! - [`slice`]: one work unit's slice-and-checkpoint cycle
//!   ([`InFlight`]) — resident between slices, durable on an interval.
//! - [`server`]: the daemon itself ([`Server`]) — admission control,
//!   the scheduler thread, crash recovery, event streaming.
//! - [`client`]: the version-checked [`Client`] the CLI subcommands
//!   (`submit`, `watch`, `status`) are built on.
//! - [`dispatch`]: the fleet coordinator (`dramctrl dispatch`) — shards
//!   a campaign across daemons, survives dead/slow/lying peers, and
//!   merges a report byte-identical to a local sweep.
//! - [`metrics`]: the daemon's operational metric handles
//!   ([`ServeMetrics`]) over the `dramctrl-obs` registry.
//! - [`http`]: the read-only HTTP/1.1 front-end (`--http`) serving
//!   `/metrics`, `/healthz` and `/jobs`.
//!
//! Like every other crate in the workspace: no external dependencies.

#![warn(missing_docs)]

pub mod client;
pub mod dispatch;
pub mod http;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod sched;
pub mod server;
pub mod slice;
pub mod store;
pub mod wire;

pub use client::{Client, WatchSummary};
pub use dispatch::{dispatch, DispatchConfig, DispatchError, DispatchStats};
pub use http::serve_http;
pub use metrics::ServeMetrics;
pub use net::{Listener, Stream};
pub use proto::{record_data, VersionInfo, PROTO_VERSION};
pub use sched::FairQueue;
pub use server::{ServeConfig, Server, STORE_BACKOFF_MAX, STORE_BACKOFF_START};
pub use slice::InFlight;
pub use store::{JobStore, StoredJob};
