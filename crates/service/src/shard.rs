//! The relay ↔ shard control protocol and the shard-side worker loop.
//!
//! A sharded topology (see [`crate::relay`]) runs one full [`Service`]
//! per shard behind a state-free relay. This module owns everything the
//! two processes say to each other:
//!
//! * [`ShardMsg`] — the control messages: a `Hello` handshake carrying
//!   the shard's resume position, canonical `Batch` broadcasts tagged
//!   with the global tick, `BatchDone` acknowledgements carrying the
//!   per-tick replicated/owned state checksums (the relay gates on the
//!   first and sums the second), and out-of-band query/rank/digest
//!   exchanges for the snapshot read path.
//! * [`encode_shard_msg`] / [`decode_shard_msg`] — a hand-rolled codec
//!   in the same little-endian length-prefixed idiom as [`crate::wire`]
//!   (shims policy: no serde). Client [`Request`]/[`Response`] values
//!   are embedded as their existing wire frames, so the inner codec is
//!   exercised — not duplicated — on the internal link. Frames are
//!   capped at [`SHARD_MAX_FRAME`]: batches bundle many client-sized
//!   messages, so the internal cap is larger than the public one, but
//!   still hard.
//! * [`ShardLink`] — the byte transport both sides speak:
//!   [`ChannelLink`] (in-process mpsc pairs, deterministic tests and
//!   `tmwia load --shards N`) and [`TcpLink`] (real sockets,
//!   `tmwia serve --shards N`).
//! * [`run_shard_worker`] — the shard main loop: handshake, then apply
//!   each broadcast batch through the service's normal replay + sealed
//!   tick path and answer with checksums. A worker observing EOF on its
//!   link exits cleanly: a killed relay must never leave orphan workers
//!   ticking (and double-writing their WALs) behind a restarted one.
//!
//! Decoding is total, like the client codec: corrupt input returns a
//! typed [`WireError`], never a panic.

use std::sync::mpsc::{Receiver, Sender};

use crate::service::{DigestParts, PlayerDigest, Service, SessionDigest};
use crate::wal::fnv64;
use crate::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame_capped, ErrorCode,
    Request, Response, WireError, MAX_FRAME, SHARD_MAX_FRAME,
};
use tmwia_obs::metrics::namespace_fingerprint;
use tmwia_obs::MetricId;

// ---------------------------------------------------------------- messages

/// One message on a relay ↔ shard link. Direction is part of the
/// contract: `Hello`/`BatchDone`/`QueryDone`/`RankDone`/`DigestDone`
/// flow shard → relay; the rest flow relay → shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg {
    /// Shard → relay, once, immediately after connecting: who the
    /// shard is and where its state stands. A restarted (state-free)
    /// relay resumes the topology from the maximum position across
    /// these.
    Hello {
        /// This shard's index in `0..shards`.
        shard: u32,
        /// Total shards the worker was launched for.
        shards: u32,
        /// The shard service's current tick.
        tick: u64,
        /// The shard's sealed snapshot epoch.
        epoch: u64,
        /// The next sequence number the shard would mint.
        next_seq: u64,
        /// [`topology_fingerprint`] of the shard's configuration; the
        /// relay refuses mismatched workers at handshake.
        fingerprint: u64,
    },
    /// Relay → shard: one canonical sub-batch for global tick `tick`.
    /// Broadcast to *every* shard each executed tick — an empty entry
    /// list still seals, keeping all shards in epoch lockstep.
    Batch {
        /// The global tick this batch executes as.
        tick: u64,
        /// `(seq, id, request)` in global sequence order. `seq` is
        /// relay-minted and globally unique; control requests carry
        /// the same `seq` on every shard.
        entries: Vec<(u64, u64, Request)>,
    },
    /// Shard → relay: the batch executed and sealed.
    BatchDone {
        /// Echo of the batch tick.
        tick: u64,
        /// The shard's sealed epoch after the tick.
        epoch: u64,
        /// The replicated part of [`Service::checksum`] — identical on
        /// every healthy shard; the relay's desync gate compares these.
        control: u64,
        /// The owned part of [`Service::checksum`] — shard-local
        /// (objects are partitioned); the relay sums these into the
        /// global per-tick state checksum.
        state: u64,
        /// `(id, response)` in delivery (sequence) order for this
        /// shard's sub-batch entries, one per entry.
        responses: Vec<(u64, Response)>,
    },
    /// Relay → shard: answer one immediate (snapshot) request out of
    /// band. Only `Read`, `Recommend`, and `Stats` are legal here;
    /// queued writes must go through `Batch`.
    Query {
        /// Client request id, echoed in `QueryDone`.
        id: u64,
        /// The immediate request.
        req: Request,
    },
    /// Shard → relay: the `Query` answer.
    QueryDone {
        /// Echo of the query id.
        id: u64,
        /// The response.
        resp: Response,
    },
    /// Relay → shard: the shard's top objects by net likes, with raw
    /// scores. `Recommend` needs a cross-shard merge, and the public
    /// [`Response::Recommended`] strips the scores the merge sorts by.
    Rank {
        /// Entries wanted (the relay passes its capped count; each
        /// shard's local top-`count` suffices for a global top-`count`
        /// merge because object sets are disjoint).
        count: u16,
    },
    /// Shard → relay: the `Rank` answer.
    RankDone {
        /// The shard's sealed snapshot epoch.
        epoch: u64,
        /// `(object, net likes)` — net descending, object id ascending
        /// on ties; at most `count` entries.
        entries: Vec<(u32, i64)>,
    },
    /// Relay → shard: send back the shard's full digest parts so the
    /// relay can merge a global [`Service::state_digest`]-identical
    /// rendering.
    Digest,
    /// Shard → relay: the `Digest` answer.
    DigestDone(DigestParts),
    /// Relay → shard: send back the shard's metric registry snapshot
    /// so the relay can merge the global cross-shard registry.
    Metrics,
    /// Shard → relay: the `Metrics` answer — the raw value vector in
    /// the static `METRICS` order, guarded by the name-space
    /// fingerprint so positional values are never mis-zipped across
    /// versions.
    MetricsDone {
        /// [`tmwia_obs::metrics::namespace_fingerprint`] of the
        /// shard's name space; the relay refuses a mismatch.
        namespace: u64,
        /// The counter values, in `METRICS` order.
        values: Vec<u64>,
    },
}

/// Fingerprint of the configuration a sharded topology must agree on:
/// master seed, shard count, instance shape, and batch size. Computed
/// independently by relay and workers; a mismatch at handshake is a
/// typed refusal instead of a silent divergence three ticks later.
pub fn topology_fingerprint(seed: u64, shards: u32, n: usize, m: usize, batch_size: usize) -> u64 {
    let mut s = crate::wire::Sink(Vec::with_capacity(36));
    s.put_u64(seed);
    s.put_u32(shards);
    s.put_u64(n as u64);
    s.put_u64(m as u64);
    s.put_u64(batch_size as u64);
    fnv64(&s.0)
}

/// [`topology_fingerprint`] of a live service plus a shard count.
pub fn service_fingerprint(svc: &Service, shards: u32) -> u64 {
    topology_fingerprint(
        svc.config().seed,
        shards,
        svc.n(),
        svc.m(),
        svc.config().batch_size,
    )
}

// ---------------------------------------------------------------- codec

fn count_u32(what: &'static str, len: usize) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| WireError::CountOverflow { what, count: len })
}

fn put_request(s: &mut crate::wire::Sink, id: u64, req: &Request) {
    // The client codec's frame is already length-prefixed, so the
    // embedded form is just the frame bytes verbatim.
    s.0.extend_from_slice(&encode_request(id, req));
}

fn take_request(t: &mut crate::wire::Take<'_>) -> Result<(u64, Request), WireError> {
    let len = t.u32()? as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    decode_request(t.bytes(len)?)
}

fn put_response(s: &mut crate::wire::Sink, id: u64, resp: &Response) -> Result<(), WireError> {
    s.0.extend_from_slice(&encode_response(id, resp)?);
    Ok(())
}

fn take_response(t: &mut crate::wire::Take<'_>) -> Result<(u64, Response), WireError> {
    let len = t.u32()? as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    decode_response(t.bytes(len)?)
}

fn put_digest(s: &mut crate::wire::Sink, d: &DigestParts) -> Result<(), WireError> {
    s.put_u64(d.tick);
    s.put_u64(d.seq);
    s.put_bool(d.shutdown);
    s.put_u64(d.minted);
    s.put_u64(d.retired);
    s.put_u64(d.live);
    s.put_u32(count_u32("digest sessions", d.sessions.len())?);
    for sess in &d.sessions {
        s.put_u64(sess.session);
        s.put_u64(sess.player);
        s.put_u64(sess.joined_tick);
        s.put_u64(sess.posts);
        s.put_u64(sess.served);
    }
    s.put_u32(count_u32("digest players", d.players.len())?);
    for pl in &d.players {
        s.put_u64(pl.player);
        s.put_u64(pl.probes);
        s.put_u32(count_u32("digest memo", pl.memo.len())?);
        for &j in &pl.memo {
            s.put_u64(j);
        }
    }
    s.put_u64(d.epoch);
    s.put_u64(d.snap_tick);
    s.put_u32(d.snap_live);
    s.put_u32(count_u32("digest posts", d.posts.len())?);
    for (j, entries, likes) in &d.posts {
        s.put_u32(*j);
        s.put_u32(count_u32("digest post entries", entries.len())?);
        for &(p, g) in entries {
            s.put_u64(p);
            s.put_bool(g);
        }
        s.put_u32(*likes);
    }
    Ok(())
}

fn take_digest(t: &mut crate::wire::Take<'_>) -> Result<DigestParts, WireError> {
    let tick = t.u64()?;
    let seq = t.u64()?;
    let shutdown = t.bool()?;
    let minted = t.u64()?;
    let retired = t.u64()?;
    let live = t.u64()?;
    let n_sessions = t.u32()? as usize;
    let mut sessions = Vec::with_capacity(n_sessions.min(SHARD_MAX_FRAME / 40));
    for _ in 0..n_sessions {
        sessions.push(SessionDigest {
            session: t.u64()?,
            player: t.u64()?,
            joined_tick: t.u64()?,
            posts: t.u64()?,
            served: t.u64()?,
        });
    }
    let n_players = t.u32()? as usize;
    let mut players = Vec::with_capacity(n_players.min(SHARD_MAX_FRAME / 20));
    for _ in 0..n_players {
        let player = t.u64()?;
        let probes = t.u64()?;
        let n_memo = t.u32()? as usize;
        let mut memo = Vec::with_capacity(n_memo.min(SHARD_MAX_FRAME / 8));
        for _ in 0..n_memo {
            memo.push(t.u64()?);
        }
        players.push(PlayerDigest {
            player,
            probes,
            memo,
        });
    }
    let epoch = t.u64()?;
    let snap_tick = t.u64()?;
    let snap_live = t.u32()?;
    let n_posts = t.u32()? as usize;
    let mut posts = Vec::with_capacity(n_posts.min(SHARD_MAX_FRAME / 12));
    for _ in 0..n_posts {
        let j = t.u32()?;
        let n_entries = t.u32()? as usize;
        let mut entries = Vec::with_capacity(n_entries.min(SHARD_MAX_FRAME / 9));
        for _ in 0..n_entries {
            entries.push((t.u64()?, t.bool()?));
        }
        posts.push((j, entries, t.u32()?));
    }
    Ok(DigestParts {
        tick,
        seq,
        shutdown,
        minted,
        retired,
        live,
        sessions,
        players,
        epoch,
        snap_tick,
        snap_live,
        posts,
    })
}

/// Encode a shard message as a complete frame (length prefix included).
/// A body past [`SHARD_MAX_FRAME`] is a typed error, never a silent
/// truncation.
pub fn encode_shard_msg(msg: &ShardMsg) -> Result<Vec<u8>, WireError> {
    let mut s = crate::wire::Sink(Vec::with_capacity(64));
    match msg {
        ShardMsg::Hello {
            shard,
            shards,
            tick,
            epoch,
            next_seq,
            fingerprint,
        } => {
            s.put_u8(0x01);
            s.put_u32(*shard);
            s.put_u32(*shards);
            s.put_u64(*tick);
            s.put_u64(*epoch);
            s.put_u64(*next_seq);
            s.put_u64(*fingerprint);
        }
        ShardMsg::Batch { tick, entries } => {
            s.put_u8(0x02);
            s.put_u64(*tick);
            s.put_u32(count_u32("batch entries", entries.len())?);
            for (seq, id, req) in entries {
                s.put_u64(*seq);
                put_request(&mut s, *id, req);
            }
        }
        ShardMsg::BatchDone {
            tick,
            epoch,
            control,
            state,
            responses,
        } => {
            s.put_u8(0x03);
            s.put_u64(*tick);
            s.put_u64(*epoch);
            s.put_u64(*control);
            s.put_u64(*state);
            s.put_u32(count_u32("batch responses", responses.len())?);
            for (id, resp) in responses {
                put_response(&mut s, *id, resp)?;
            }
        }
        ShardMsg::Query { id, req } => {
            s.put_u8(0x04);
            put_request(&mut s, *id, req);
        }
        ShardMsg::QueryDone { id, resp } => {
            s.put_u8(0x05);
            put_response(&mut s, *id, resp)?;
        }
        ShardMsg::Rank { count } => {
            s.put_u8(0x06);
            s.put_u16(*count);
        }
        ShardMsg::RankDone { epoch, entries } => {
            s.put_u8(0x07);
            s.put_u64(*epoch);
            s.put_u32(count_u32("rank entries", entries.len())?);
            for (j, net) in entries {
                s.put_u32(*j);
                s.put_u64(*net as u64);
            }
        }
        ShardMsg::Digest => s.put_u8(0x08),
        ShardMsg::DigestDone(parts) => {
            s.put_u8(0x09);
            put_digest(&mut s, parts)?;
        }
        ShardMsg::Metrics => s.put_u8(0x0A),
        ShardMsg::MetricsDone { namespace, values } => {
            s.put_u8(0x0B);
            s.put_u64(*namespace);
            s.put_u32(count_u32("metric values", values.len())?);
            for &v in values {
                s.put_u64(v);
            }
        }
    }
    let body = s.0;
    if body.len() > SHARD_MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: body.len() });
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decode a shard message from a frame *body* (length prefix already
/// stripped by [`read_frame_capped`]). Rejects trailing bytes.
pub fn decode_shard_msg(body: &[u8]) -> Result<ShardMsg, WireError> {
    let mut t = crate::wire::Take::new(body);
    let tag = t.u8()?;
    let msg = match tag {
        0x01 => ShardMsg::Hello {
            shard: t.u32()?,
            shards: t.u32()?,
            tick: t.u64()?,
            epoch: t.u64()?,
            next_seq: t.u64()?,
            fingerprint: t.u64()?,
        },
        0x02 => {
            let tick = t.u64()?;
            let count = t.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(SHARD_MAX_FRAME / 21));
            for _ in 0..count {
                let seq = t.u64()?;
                let (id, req) = take_request(&mut t)?;
                entries.push((seq, id, req));
            }
            ShardMsg::Batch { tick, entries }
        }
        0x03 => {
            let tick = t.u64()?;
            let epoch = t.u64()?;
            let control = t.u64()?;
            let state = t.u64()?;
            let count = t.u32()? as usize;
            let mut responses = Vec::with_capacity(count.min(SHARD_MAX_FRAME / 13));
            for _ in 0..count {
                responses.push(take_response(&mut t)?);
            }
            ShardMsg::BatchDone {
                tick,
                epoch,
                control,
                state,
                responses,
            }
        }
        0x04 => {
            let (id, req) = take_request(&mut t)?;
            ShardMsg::Query { id, req }
        }
        0x05 => {
            let (id, resp) = take_response(&mut t)?;
            ShardMsg::QueryDone { id, resp }
        }
        0x06 => ShardMsg::Rank { count: t.u16()? },
        0x07 => {
            let epoch = t.u64()?;
            let count = t.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(SHARD_MAX_FRAME / 12));
            for _ in 0..count {
                let j = t.u32()?;
                entries.push((j, t.u64()? as i64));
            }
            ShardMsg::RankDone { epoch, entries }
        }
        0x08 => ShardMsg::Digest,
        0x09 => ShardMsg::DigestDone(take_digest(&mut t)?),
        0x0A => ShardMsg::Metrics,
        0x0B => {
            let namespace = t.u64()?;
            let count = t.u32()? as usize;
            let mut values = Vec::with_capacity(count.min(SHARD_MAX_FRAME / 8));
            for _ in 0..count {
                values.push(t.u64()?);
            }
            ShardMsg::MetricsDone { namespace, values }
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    t.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------- links

/// One end of a relay ↔ shard byte link. `send` writes a complete frame
/// (length prefix included); `recv` blocks for the next frame and
/// returns its body, or `None` on a clean hang-up.
pub trait ShardLink: Send {
    /// Write one complete frame.
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError>;
    /// Block for the next frame body; `None` means the peer hung up.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError>;
}

/// In-process link: an mpsc pair carrying encoded frames. Used by the
/// deterministic in-process topology (`tmwia load --shards N`) and the
/// equivalence tests, so the exact bytes that would cross a socket
/// cross the channel instead.
pub struct ChannelLink {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// A connected pair of in-process links (relay end, shard end).
pub fn channel_pair() -> (ChannelLink, ChannelLink) {
    let (a_tx, b_rx) = std::sync::mpsc::channel();
    let (b_tx, a_rx) = std::sync::mpsc::channel();
    (
        ChannelLink { tx: a_tx, rx: a_rx },
        ChannelLink { tx: b_tx, rx: b_rx },
    )
}

impl ShardLink for ChannelLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| WireError::Io("shard link closed".into()))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Ok(frame) = self.rx.recv() else {
            // Sender dropped: the peer is gone — clean EOF, like a
            // closed socket between frames.
            return Ok(None);
        };
        let mut cur = std::io::Cursor::new(frame);
        read_frame_capped(&mut cur, SHARD_MAX_FRAME)
    }
}

/// TCP link: frames over a socket, for the multi-process topology
/// (`tmwia serve --shards N` and the hidden `tmwia shard` worker).
pub struct TcpLink {
    stream: std::net::TcpStream,
}

impl TcpLink {
    /// Wrap a connected stream.
    pub fn new(stream: std::net::TcpStream) -> Self {
        TcpLink { stream }
    }
}

impl ShardLink for TcpLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        use std::io::Write as _;
        self.stream
            .write_all(frame)
            .and_then(|()| self.stream.flush())
            .map_err(|e| WireError::Io(e.to_string()))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        read_frame_capped(&mut self.stream, SHARD_MAX_FRAME)
    }
}

// ---------------------------------------------------------------- worker

/// The shard main loop: announce the service's resume position, then
/// serve the relay until it hangs up.
///
/// Each `Batch` executes through the service's normal recovery-replay
/// machinery — `fast_forward_tick` to the tick before the batch (the
/// relay does not broadcast its empty ticks), `enqueue_replay` with the
/// relay-minted global sequence numbers, then a *sealed* tick so an
/// empty sub-batch still advances the epoch in lockstep with the other
/// shards. The `BatchDone` answer carries the two parts of the
/// service's incremental state checksum: the replicated part (relay
/// desync gate: must match across shards) and the owned part (summed
/// by the relay into the global state checksum). Both are O(1) reads.
///
/// Link EOF is a clean exit, not an error: when the relay dies its
/// workers must die with it, so a restarted relay re-spawns the world
/// instead of racing orphans for the WAL directories.
pub fn run_shard_worker(
    svc: &Service,
    shard: u32,
    shards: u32,
    link: &mut dyn ShardLink,
) -> Result<(), WireError> {
    let hello = ShardMsg::Hello {
        shard,
        shards,
        tick: svc.current_tick(),
        epoch: svc.snapshot().epoch,
        next_seq: svc.next_seq(),
        fingerprint: service_fingerprint(svc, shards),
    };
    link.send(&encode_shard_msg(&hello)?)?;
    loop {
        let Some(body) = link.recv()? else {
            return Ok(());
        };
        match decode_shard_msg(&body)? {
            ShardMsg::Batch { tick, entries } => {
                let (tx, rx) = std::sync::mpsc::channel();
                svc.fast_forward_tick(tick.saturating_sub(1));
                for (seq, id, req) in entries {
                    svc.enqueue_replay(seq, id, req, &tx);
                }
                let _ = svc.tick_sealed();
                let mut responses = Vec::new();
                while let Ok(pair) = rx.try_recv() {
                    responses.push(pair);
                }
                let sum = svc.checksum();
                let done = ShardMsg::BatchDone {
                    tick,
                    epoch: svc.snapshot().epoch,
                    control: sum.replicated,
                    state: sum.owned,
                    responses,
                };
                link.send(&encode_shard_msg(&done)?)?;
            }
            ShardMsg::Query { id, req } => {
                let resp = match req {
                    Request::Read { .. } | Request::Recommend { .. } | Request::Stats => {
                        let (tx, rx) = std::sync::mpsc::channel();
                        svc.submit(id, req, &tx);
                        match rx.try_recv() {
                            Ok((_, resp)) => resp,
                            // Unreachable for the immediate requests
                            // admitted above, but a typed answer keeps
                            // the loop total.
                            Err(_) => Response::Error {
                                code: ErrorCode::BadRequest,
                                detail: "query was not answered immediately".into(),
                            },
                        }
                    }
                    other => Response::Error {
                        code: ErrorCode::BadRequest,
                        detail: format!("{other:?} is not an out-of-band query"),
                    },
                };
                link.send(&encode_shard_msg(&ShardMsg::QueryDone { id, resp })?)?;
            }
            ShardMsg::Rank { count } => {
                // The rank path answers from the sealed snapshot and
                // bypasses `Service::submit`, so the served counter is
                // stamped here. Every shard ranks every request, which
                // is exactly the `Max` merge the metric declares.
                svc.obs().inc(MetricId::RecommendsServed);
                let snap = svc.snapshot();
                let done = ShardMsg::RankDone {
                    epoch: snap.epoch,
                    entries: snap.top_scored(count as usize),
                };
                link.send(&encode_shard_msg(&done)?)?;
            }
            ShardMsg::Digest => {
                let done = ShardMsg::DigestDone(svc.digest_parts());
                link.send(&encode_shard_msg(&done)?)?;
            }
            ShardMsg::Metrics => {
                let done = ShardMsg::MetricsDone {
                    namespace: namespace_fingerprint(),
                    values: svc.obs().snapshot().values().to_vec(),
                };
                link.send(&encode_shard_msg(&done)?)?;
            }
            // Shard-bound links never carry these relay-bound replies;
            // receiving one is a protocol violation by the peer.
            msg @ (ShardMsg::Hello { .. }
            | ShardMsg::BatchDone { .. }
            | ShardMsg::QueryDone { .. }
            | ShardMsg::RankDone { .. }
            | ShardMsg::DigestDone(_)
            | ShardMsg::MetricsDone { .. }) => {
                let tag = match msg {
                    ShardMsg::Hello { .. } => "Hello",
                    ShardMsg::BatchDone { .. } => "BatchDone",
                    ShardMsg::QueryDone { .. } => "QueryDone",
                    ShardMsg::RankDone { .. } => "RankDone",
                    ShardMsg::MetricsDone { .. } => "MetricsDone",
                    _ => "DigestDone",
                };
                return Err(WireError::Io(format!(
                    "relay sent shard-to-relay message {tag}"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &ShardMsg) {
        let frame = encode_shard_msg(msg).expect("in-range message encodes");
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        assert_eq!(len + 4, frame.len());
        let back = decode_shard_msg(&frame[4..]).expect("frame decodes");
        assert_eq!(&back, msg);
    }

    #[test]
    fn shard_messages_round_trip() {
        round_trip(&ShardMsg::Hello {
            shard: 1,
            shards: 4,
            tick: 9,
            epoch: 5,
            next_seq: 77,
            fingerprint: 0xDEAD_BEEF,
        });
        round_trip(&ShardMsg::Batch {
            tick: 3,
            entries: vec![
                (10, 1, Request::Join),
                (
                    11,
                    2,
                    Request::Probe {
                        session: 1,
                        object: 4,
                        share: true,
                    },
                ),
                (12, 3, Request::Shutdown),
            ],
        });
        round_trip(&ShardMsg::BatchDone {
            tick: 3,
            epoch: 2,
            control: 123,
            state: 456,
            responses: vec![
                (
                    1,
                    Response::Joined {
                        session: 1,
                        player: 0,
                    },
                ),
                (
                    2,
                    Response::Grade {
                        object: 4,
                        value: true,
                        charged: true,
                        posted: true,
                    },
                ),
            ],
        });
        round_trip(&ShardMsg::Query {
            id: 8,
            req: Request::Read { object: 3 },
        });
        round_trip(&ShardMsg::QueryDone {
            id: 8,
            resp: Response::Board {
                object: 3,
                epoch: 2,
                likes: 1,
                dislikes: 0,
            },
        });
        round_trip(&ShardMsg::Rank { count: 5 });
        round_trip(&ShardMsg::RankDone {
            epoch: 2,
            entries: vec![(4, 3), (1, -2)],
        });
        round_trip(&ShardMsg::Metrics);
        round_trip(&ShardMsg::MetricsDone {
            namespace: namespace_fingerprint(),
            values: vec![0, 1, 42, u64::MAX],
        });
        round_trip(&ShardMsg::Digest);
        round_trip(&ShardMsg::DigestDone(DigestParts {
            tick: 7,
            seq: 30,
            shutdown: false,
            minted: 2,
            retired: 1,
            live: 1,
            sessions: vec![SessionDigest {
                session: 2,
                player: 1,
                joined_tick: 3,
                posts: 4,
                served: 9,
            }],
            players: vec![PlayerDigest {
                player: 1,
                probes: 4,
                memo: vec![0, 3, 5],
            }],
            epoch: 4,
            snap_tick: 7,
            snap_live: 1,
            posts: vec![(3, vec![(1, true), (0, false)], 1)],
        }));
    }

    #[test]
    fn negative_rank_scores_survive_the_wire() {
        let frame = encode_shard_msg(&ShardMsg::RankDone {
            epoch: 1,
            entries: vec![(0, i64::MIN), (1, -1), (2, i64::MAX)],
        })
        .expect("encodes");
        match decode_shard_msg(&frame[4..]).expect("decodes") {
            ShardMsg::RankDone { entries, .. } => {
                assert_eq!(entries, vec![(0, i64::MIN), (1, -1), (2, i64::MAX)]);
            }
            other => panic!("expected RankDone, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_input_is_a_typed_error() {
        assert!(matches!(
            decode_shard_msg(&[0xFF]),
            Err(WireError::UnknownTag(0xFF))
        ));
        let frame = encode_shard_msg(&ShardMsg::Rank { count: 5 }).expect("encodes");
        let mut extended = frame[4..].to_vec();
        extended.push(0);
        assert_eq!(
            decode_shard_msg(&extended),
            Err(WireError::Trailing { extra: 1 })
        );
        for cut in 1..3 {
            assert!(matches!(
                decode_shard_msg(&frame[4..4 + cut]),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn channel_link_round_trips_frames_and_reports_eof() {
        let (mut relay_end, mut shard_end) = channel_pair();
        let frame = encode_shard_msg(&ShardMsg::Rank { count: 2 }).expect("encodes");
        relay_end.send(&frame).expect("send succeeds");
        let body = shard_end.recv().expect("recv succeeds").expect("a frame");
        assert_eq!(
            decode_shard_msg(&body).expect("decodes"),
            ShardMsg::Rank { count: 2 }
        );
        drop(relay_end);
        assert!(
            shard_end.recv().expect("EOF is clean").is_none(),
            "dropped peer reads as EOF"
        );
    }

    #[test]
    fn fingerprint_distinguishes_every_field() {
        let base = topology_fingerprint(1, 2, 8, 8, 4);
        assert_ne!(base, topology_fingerprint(2, 2, 8, 8, 4));
        assert_ne!(base, topology_fingerprint(1, 3, 8, 8, 4));
        assert_ne!(base, topology_fingerprint(1, 2, 9, 8, 4));
        assert_ne!(base, topology_fingerprint(1, 2, 8, 9, 4));
        assert_ne!(base, topology_fingerprint(1, 2, 8, 8, 5));
    }
}
