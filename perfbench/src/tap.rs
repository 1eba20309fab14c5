//! The link tap: a [`ShardLink`] wrapper that counts frames and bytes
//! and times the two waits a sharded tick is made of.
//!
//! On the relay end it times every `recv` that returns a `BatchDone`
//! (the relay waiting on a shard). On the shard end it times each
//! `Batch` → `BatchDone` turn: from the moment `recv` hands the worker
//! a batch until the worker sends its acknowledgement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tmwia_service::{ChannelLink, ShardLink, WireError};

/// Frame-body tags of the shard codec (`shard::encode_shard_msg`).
const TAG_BATCH: u8 = 0x02;
const TAG_BATCH_DONE: u8 = 0x03;

/// Counters and timings one link end collects.
#[derive(Default)]
pub struct TapStats {
    /// Frames sent from this end.
    pub frames: AtomicU64,
    /// Bytes sent from this end, length prefixes included.
    pub bytes: AtomicU64,
    /// `Batch` frames sent from this end.
    pub batch_frames: AtomicU64,
    /// Relay end: `recv` waits that returned a `BatchDone`, as spans.
    pub recv_waits: Spans,
    /// Shard end: `Batch` → `BatchDone` turns, as spans.
    pub batch_turns: Spans,
}

pub struct TapLink {
    inner: ChannelLink,
    stats: Arc<TapStats>,
    batch_start: Option<Instant>,
}

impl TapLink {
    pub fn new(inner: ChannelLink, stats: Arc<TapStats>) -> Self {
        TapLink {
            inner,
            stats,
            batch_start: None,
        }
    }
}

impl ShardLink for TapLink {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        match frame.get(4) {
            Some(&TAG_BATCH) => {
                self.stats.batch_frames.fetch_add(1, Ordering::Relaxed);
            }
            Some(&TAG_BATCH_DONE) => {
                if let Some(t0) = self.batch_start.take() {
                    self.stats.batch_turns.push(t0, Instant::now());
                }
            }
            _ => {}
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let t0 = Instant::now();
        let got = self.inner.recv();
        if let Ok(Some(body)) = &got {
            match body.first() {
                Some(&TAG_BATCH) => self.batch_start = Some(Instant::now()),
                Some(&TAG_BATCH_DONE) => self.stats.recv_waits.push(t0, Instant::now()),
                _ => {}
            }
        }
        got
    }
}

/// A thread-safe list of `(start, end)` intervals.
#[derive(Default)]
pub struct Spans(Mutex<Vec<(Instant, Instant)>>);

impl Spans {
    pub fn push(&self, start: Instant, end: Instant) {
        self.0
            .lock()
            .expect("a link thread panicked while recording a span")
            .push((start, end));
    }

    /// Take every interval recorded so far.
    pub fn drain(&self) -> Vec<(Instant, Instant)> {
        let mut spans = self
            .0
            .lock()
            .expect("a link thread panicked while recording a span");
        std::mem::take(&mut *spans)
    }
}
