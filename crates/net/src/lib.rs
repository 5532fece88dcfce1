//! TCP serving boundary for Proteus — the deployable realization of the
//! paper's threat model (§3.1): the model owner and the optimization
//! service live in *different processes* separated by an untrusted
//! network, and the only bytes that cross are sealed buckets.
//!
//! Three layers:
//!
//! - [`codec`] — an incremental [`FrameReader`]/[`FrameWriter`] pair that
//!   reassembles wire v3 data frames and `PRTE` error frames from
//!   arbitrary TCP read-chunk boundaries (the in-process codec in
//!   `proteus_graph::wire` assumes whole buffers). Framing is all it
//!   judges: a `PRTB` record, which names no request, and a v2 data
//!   frame are each an unknown version, fatal for the stream.
//! - [`handshake`] — a versioned length-prefixed hello exchange carrying
//!   the network protocol version, the wire version, the tenant auth
//!   token, and the expected trained-artifact fingerprint; every
//!   mismatch is rejected with a typed error frame, never a silent
//!   disconnect.
//! - [`server`] / [`client`] — [`NetServer`] accepts N connections,
//!   demultiplexes interleaved frames per connection by peeking the
//!   request id, and streams each request through its own lane of one
//!   shared [`proteus::ServeRuntime`];
//!   [`NetClient`] streams an obfuscation session's sealed buckets out
//!   and reassembles the optimized results. Loopback round trips are
//!   bit-identical to the in-process session path — the e2e suite
//!   asserts exactly that.
//!
//! Server-side failures cross the wire as typed
//! [`proteus_graph::ErrorFrame`]s (see [`error`]), so a client observes
//! `Deadline` or `QuotaExceeded` as a value it can match on instead of a
//! connection reset.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod codec;
pub mod error;
pub mod handshake;
pub mod server;

pub use client::{NetClient, NetRequest, NetResponse};
pub use codec::{FrameReader, FrameWriter, NetFrame, MAX_FRAME_PAYLOAD};
pub use error::{error_code_for, NetError};
pub use handshake::{ClientHello, ServerHello, NET_PROTOCOL_VERSION};
pub use server::{NetServer, NetServerConfig, NetServerStats, TenantAuth};
