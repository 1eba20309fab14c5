//! # tmwia-service — the online billboard serving layer
//!
//! The paper's model is an offline, synchronous game: `n` players are
//! fixed up front and rounds advance in lockstep. This crate puts that
//! machinery behind a request/response service so players can **arrive,
//! probe, post, read, and depart online** while the billboard keeps
//! running:
//!
//! * [`registry`] — session bookkeeping: dynamic player-slot
//!   allocation (slots are never reused), per-session cost ledgers,
//!   churn expressed through the fault layer's [`LivenessEpoch`]
//!   sealed at tick barriers.
//! * [`service`] — the core: a bounded request queue drained in
//!   deterministic **batch ticks** (serial control pass, seeded
//!   player-grouped parallel data pass via `par_map_phased`, snapshot
//!   seal, arrival-order delivery). Byte-reproducible under any
//!   thread count.
//! * [`snapshot`] — copy-on-write versioned board views: reads are
//!   served lock-free from the latest sealed epoch and never block
//!   writers.
//! * [`wire`] — the length-prefixed binary frame codec shared by both
//!   transports; typed decode errors, no panics on hostile bytes.
//! * [`transport`] / [`tcp`] — one [`Transport`] trait, two backends:
//!   an in-process channel pair (deterministic tests) and a std-only
//!   TCP stream (real sockets, zero external deps). Queues are
//!   bounded; overload answers [`Response::Busy`] with a retry hint.
//! * [`load`] — a closed-loop, seeded load generator with a
//!   deterministic in-process driver and a wall-clock TCP driver.
//! * [`wal`] — the durability layer: an append-only write-ahead tick
//!   log (wire-codec frames, per-record CRC, fsync at seal) plus
//!   periodic sealed-state snapshots. [`Service::recover`] rebuilds a
//!   byte-identical pre-crash state by replaying the log through the
//!   normal tick path.
//! * [`shard`] / [`relay`] — the multi-process topology: a state-free
//!   relay partitions writes across object-owning shard services
//!   (seeded S5 partition), broadcasts canonical per-tick batches over
//!   [`ShardLink`]s, and cross-checks per-tick control checksums as a
//!   desync gate. The relay holds no durable state: restart is
//!   re-handshake plus resume at the shards' maximum position.
//! * [`checksum`] — the incremental state checksum: an additive
//!   multiset hash of the digested state, kept up to date where the
//!   state changes, split into a replicated part (the relay's desync
//!   gate) and an owned part (summed across shards into one global
//!   per-tick checksum).
//!
//! [`LivenessEpoch`]: tmwia_billboard::LivenessEpoch
//! [`ShardLink`]: shard::ShardLink

#![forbid(unsafe_code)]

pub mod checksum;
pub mod load;
pub mod registry;
pub mod relay;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod tcp;
pub mod transport;
pub mod wal;
pub mod wire;

pub use checksum::Checksum;
pub use load::{
    run_deterministic, run_durable, run_serving, run_tcp, ClientMix, LoadConfig, LoadOutcome,
    RequestKind,
};
pub use registry::{LeaveReceipt, SessionRegistry, SessionState};
pub use relay::{
    merge_digest_parts, spawn_local, LocalTopology, Relay, RelayConfig, ShardError, ShardedService,
};
pub use service::{
    render_digest, DigestParts, Durability, PlayerDigest, RecoverError, RecoverOptions,
    RecoveryReport, ReplayedTick, ReplySender, Service, ServiceConfig, ServiceError, Serving,
    SessionDigest, TickReport,
};
pub use shard::{
    channel_pair, run_shard_worker, service_fingerprint, topology_fingerprint, ChannelLink,
    ShardLink, ShardMsg, TcpLink,
};
pub use snapshot::{BoardSnapshot, PostCell, SnapshotCell};
pub use tcp::{serve, ServeOptions, ServeSummary, TcpServer, TcpTransport};
pub use transport::{InProcTransport, Transport, TransportError};
pub use wal::{PersistedState, WalError, WalHeader, WalWriter};
pub use wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ErrorCode,
    Request, Response, SessionId, WireError,
};
