//! The incremental state checksum: a 64-bit additive multiset hash of
//! everything [`Service::state_digest`] renders, maintained at the
//! points where that state changes instead of re-rendered on demand.
//!
//! The checksum is `Σ h(component) mod 2⁶⁴` over the state's
//! components (Bellare–Micciancio 1997; Clarke et al., "Incremental
//! multiset hash functions", 2003). Addition is commutative and has an
//! inverse, so a mutation costs one subtraction plus one addition and
//! the per-tick cost is O(touched), not O(state). Like `fnv64` before
//! it, the hash detects bugs; it makes no claim against an adversary.
//!
//! ## Components
//!
//! | component | term | maintained at |
//! |---|---|---|
//! | session binding `(session, player, joined_tick)` | `h(·)` | control pass (admit / close) |
//! | session ledgers `posts`, `served` | `count · r(session)` | seal barrier, close |
//! | player probe counter | `count · r(player)` | seal barrier (charged grades) |
//! | memo entry `(player, object)` | `h(·)` | seal barrier (charged grades) |
//! | post entry `(object, player, grade)` | `h(·)` | seal barrier (the tick's posts) |
//! | scalars `tick`, `shutdown`, `minted`, `retired`, `live`, `epoch`, `snap_tick`, `snap_live` | `h(·)` | computed on read |
//! | `seq` | `h(seq)` | computed on read |
//!
//! Counters are hashed *linearly* (`count · r(key)`), so the per-shard
//! ledgers of a sharded topology sum to the single-process term exactly
//! as `merge_digest_parts` sums the ledgers themselves.
//!
//! ## The split
//!
//! [`Checksum`] splits along the same line as the digest merge:
//!
//! * **replicated** — bindings plus scalars: byte-equal on every
//!   healthy shard, so the relay gates on it every tick;
//! * **owned** — ledgers, probe counters, memos, posts: disjoint across
//!   shards, so the per-shard values sum to the single-process value.
//!
//! `seq` belongs to neither: each shard's counter stops at the last
//! sequence number *it* replayed, so the relay supplies the global one
//! (as it does for the merged digest) through [`Checksum::total`].
//!
//! [`Checksum::of`] computes the same value from scratch out of
//! [`DigestParts`]; that recompute is the test oracle for the
//! incrementally maintained value.
//!
//! [`Service::state_digest`]: crate::Service::state_digest

use crate::service::{DigestParts, DigestPost, PlayerDigest};

/// Domain tags: one per component kind, so equal field tuples of
/// different kinds never hash alike.
mod tag {
    pub const BINDING: u64 = 0x6269_6e64_696e_6731;
    pub const POSTS: u64 = 0x706f_7374_7363_6e74;
    pub const SERVED: u64 = 0x7365_7276_6564_636e;
    pub const PROBES: u64 = 0x7072_6f62_6573_636e;
    pub const MEMO: u64 = 0x6d65_6d6f_656e_7472;
    pub const POST: u64 = 0x706f_7374_656e_7472;
    pub const SCALARS: u64 = 0x7363_616c_6172_7331;
    pub const SEQ: u64 = 0x7365_7175_656e_6365;
}

/// The splitmix64 finalizer: a bijective avalanche mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash one tagged field tuple.
fn h(tag: u64, fields: &[u64]) -> u64 {
    fields.iter().fold(mix(tag), |acc, &f| {
        mix(acc ^ f.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

/// A session binding `(session, player, joined_tick)`.
pub(crate) fn binding(session: u64, player: u64, joined_tick: u64) -> u64 {
    h(tag::BINDING, &[session, player, joined_tick])
}

/// A session's ledgers, linear in both counts.
pub(crate) fn ledger(session: u64, posts: u64, served: u64) -> u64 {
    posts
        .wrapping_mul(h(tag::POSTS, &[session]))
        .wrapping_add(served.wrapping_mul(h(tag::SERVED, &[session])))
}

/// One paid probe by `player` on `object`: the player's probe counter
/// goes up by one (a linear term) and its memo gains `object`.
pub(crate) fn paid_probe(player: u64, object: u64) -> u64 {
    h(tag::PROBES, &[player]).wrapping_add(h(tag::MEMO, &[player, object]))
}

/// One billboard post entry.
pub(crate) fn post(object: u64, player: u64, grade: bool) -> u64 {
    h(tag::POST, &[object, player, u64::from(grade)])
}

/// The sequence-number term, supplied by whoever owns the global
/// sequence position.
fn seq_term(seq: u64) -> u64 {
    h(tag::SEQ, &[seq])
}

/// The scalar fields of [`DigestParts`] other than `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scalars {
    /// Tick counter.
    pub tick: u64,
    /// Shutdown flag.
    pub shutdown: bool,
    /// Player slots ever minted.
    pub minted: u64,
    /// Sessions departed.
    pub retired: u64,
    /// Sessions live.
    pub live: u64,
    /// Sealed snapshot epoch.
    pub epoch: u64,
    /// Tick that sealed the snapshot.
    pub snap_tick: u64,
    /// Live count the snapshot sealed with.
    pub snap_live: u32,
}

impl Scalars {
    /// The scalars' hash term.
    pub(crate) fn hash(&self) -> u64 {
        h(
            tag::SCALARS,
            &[
                self.tick,
                u64::from(self.shutdown),
                self.minted,
                self.retired,
                self.live,
                self.epoch,
                self.snap_tick,
                u64::from(self.snap_live),
            ],
        )
    }
}

/// Σ probe counters, memo entries and post entries.
pub(crate) fn board_of(players: &[PlayerDigest], posts: &[DigestPost]) -> u64 {
    let mut acc = 0u64;
    for pl in players {
        acc = acc.wrapping_add(pl.probes.wrapping_mul(h(tag::PROBES, &[pl.player])));
        for &j in &pl.memo {
            acc = acc.wrapping_add(h(tag::MEMO, &[pl.player, j]));
        }
    }
    for (j, entries, _) in posts {
        for &(p, g) in entries {
            acc = acc.wrapping_add(post(u64::from(*j), p, g));
        }
    }
    acc
}

/// A state checksum split into its replicated and owned parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    /// Bindings plus scalars: equal on every healthy shard.
    pub replicated: u64,
    /// Ledgers, probe counters, memos and posts: sums across shards.
    pub owned: u64,
}

impl Checksum {
    /// The from-scratch checksum of rendered digest parts (`seq`
    /// excluded; see [`Checksum::total`]).
    pub fn of(parts: &DigestParts) -> Self {
        let scalars = Scalars {
            tick: parts.tick,
            shutdown: parts.shutdown,
            minted: parts.minted,
            retired: parts.retired,
            live: parts.live,
            epoch: parts.epoch,
            snap_tick: parts.snap_tick,
            snap_live: parts.snap_live,
        };
        let (mut bindings, mut ledgers) = (0u64, 0u64);
        for s in &parts.sessions {
            bindings = bindings.wrapping_add(binding(s.session, s.player, s.joined_tick));
            ledgers = ledgers.wrapping_add(ledger(s.session, s.posts, s.served));
        }
        Checksum {
            replicated: scalars.hash().wrapping_add(bindings),
            owned: ledgers.wrapping_add(board_of(&parts.players, &parts.posts)),
        }
    }

    /// The single state checksum at sequence position `seq`.
    pub fn total(&self, seq: u64) -> u64 {
        self.replicated
            .wrapping_add(self.owned)
            .wrapping_add(seq_term(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_of_different_kinds_do_not_collide() {
        let values = [
            binding(1, 2, 3),
            ledger(1, 1, 0),
            ledger(1, 0, 1),
            paid_probe(1, 2),
            post(1, 2, true),
            post(1, 2, false),
            seq_term(1),
        ];
        for (i, a) in values.iter().enumerate() {
            for b in &values[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn ledgers_are_linear_so_shard_parts_sum() {
        let whole = ledger(7, 5, 9);
        let parts = ledger(7, 2, 4).wrapping_add(ledger(7, 3, 5));
        assert_eq!(whole, parts);
        assert_eq!(ledger(7, 0, 0), 0);
    }

    #[test]
    fn every_scalar_moves_the_hash() {
        let base = Scalars {
            tick: 4,
            shutdown: false,
            minted: 3,
            retired: 1,
            live: 2,
            epoch: 4,
            snap_tick: 4,
            snap_live: 2,
        };
        let variants = [
            Scalars { tick: 5, ..base },
            Scalars {
                shutdown: true,
                ..base
            },
            Scalars { minted: 4, ..base },
            Scalars { retired: 2, ..base },
            Scalars { live: 3, ..base },
            Scalars { epoch: 5, ..base },
            Scalars {
                snap_tick: 5,
                ..base
            },
            Scalars {
                snap_live: 3,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(v.hash(), base.hash(), "{v:?}");
        }
    }
}
