//! The session registry: online arrival and departure of players.
//!
//! The paper's model fixes the player set up front; the serving layer
//! lets players arrive and leave while the billboard keeps running. A
//! session binds a registry-minted [`SessionId`] to a **fresh** player
//! slot. Two invariants make churn safe:
//!
//! 1. **Slots are never reused.** A departing player's probe memo and
//!    cost counter stay attached to its slot; handing the slot to a new
//!    arrival would leak the predecessor's revealed grades (free
//!    re-probes of coordinates the newcomer never paid for) and corrupt
//!    per-player cost accounting. Admission is therefore a *lifetime*
//!    bound: once `capacity` slots have been minted, `Join` is rejected
//!    with [`ErrorCode::Capacity`].
//! 2. **Liveness is observed through sealed epochs.** The registry
//!    reuses the fault layer's [`LivenessEpoch`] to describe which slots
//!    are live: a slot not currently bound to an open session is "dead"
//!    exactly like a crashed player. The epoch is captured at the seal,
//!    after the tick's control pass has applied every join and leave,
//!    so readers of a snapshot never observe a half-open session.
//!
//! Each open session carries a cost ledger (probes since join, posts,
//! requests served) reported back on `Leave`.
//!
//! The registry also keeps its share of the incremental state checksum
//! (see `checksum.rs`): the sum of the open sessions' binding hashes,
//! updated when a session is admitted or closed, and the sum of their
//! linear ledger terms, updated with the ledgers themselves.

use crate::checksum;
use crate::wire::{ErrorCode, SessionId};
use std::collections::BTreeMap;
use tmwia_billboard::{LivenessEpoch, PlayerId};

/// Per-session ledger and binding.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The player slot bound to this session.
    pub player: PlayerId,
    /// Tick at which the session was admitted.
    pub joined_tick: u64,
    /// Player-slot probe count at admission (always 0 today — slots are
    /// fresh — kept explicit so the ledger stays correct if a future
    /// layer pre-warms slots).
    pub probes_at_join: u64,
    /// Billboard posts contributed by this session.
    pub posts: u64,
    /// Queued requests executed for this session.
    pub served: u64,
}

/// What a closing session takes home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaveReceipt {
    /// The slot the session was bound to.
    pub player: PlayerId,
    /// Probes charged while the session was open.
    pub probes: u64,
    /// Posts contributed.
    pub posts: u64,
    /// Ticks the session was open.
    pub ticks: u64,
}

/// Online session bookkeeping. Not internally synchronized — the
/// service wraps it in a mutex and changes bindings only in the serial
/// control pass of a tick, which is what makes its decisions (slot
/// assignment order, admission) independent of thread scheduling.
#[derive(Debug)]
pub struct SessionRegistry {
    capacity: usize,
    next_player: PlayerId,
    next_session: SessionId,
    open: BTreeMap<SessionId, SessionState>,
    retired: u64,
    /// Σ binding hashes of the open sessions.
    bindings: u64,
    /// Σ linear ledger terms of the open sessions.
    ledgers: u64,
}

impl SessionRegistry {
    /// Registry over `capacity` player slots (the engine's `n`).
    pub fn new(capacity: usize) -> Self {
        SessionRegistry {
            capacity,
            next_player: 0,
            next_session: 1,
            open: BTreeMap::new(),
            retired: 0,
            bindings: 0,
            ledgers: 0,
        }
    }

    /// Admit a session: bind the lowest unminted slot. Rejects with
    /// [`ErrorCode::Capacity`] once all slots have been minted.
    pub fn join(&mut self, tick: u64) -> Result<(SessionId, PlayerId), ErrorCode> {
        if self.next_player >= self.capacity {
            return Err(ErrorCode::Capacity);
        }
        let player = self.next_player;
        self.next_player += 1;
        let session = self.next_session;
        self.next_session += 1;
        let st = SessionState {
            player,
            joined_tick: tick,
            probes_at_join: 0,
            posts: 0,
            served: 0,
        };
        self.bindings = self.bindings.wrapping_add(binding_of(session, &st));
        self.open.insert(session, st);
        Ok((session, player))
    }

    /// Close a session, reporting its cost. `probes_now` is the bound
    /// slot's current probe counter.
    pub fn leave(
        &mut self,
        session: SessionId,
        tick: u64,
        probes_now: u64,
    ) -> Result<LeaveReceipt, ErrorCode> {
        let st = self
            .open
            .remove(&session)
            .ok_or(ErrorCode::UnknownSession)?;
        self.bindings = self.bindings.wrapping_sub(binding_of(session, &st));
        self.ledgers = self
            .ledgers
            .wrapping_sub(checksum::ledger(session, st.posts, st.served));
        self.retired += 1;
        Ok(LeaveReceipt {
            player: st.player,
            probes: probes_now.saturating_sub(st.probes_at_join),
            posts: st.posts,
            ticks: tick.saturating_sub(st.joined_tick),
        })
    }

    /// The player slot bound to an open session.
    pub fn player_of(&self, session: SessionId) -> Option<PlayerId> {
        self.open.get(&session).map(|st| st.player)
    }

    /// Charge one executed data request to a session's ledger: `served`
    /// goes up by one and `posts` by `posted`. A session that is no
    /// longer reachable (closed earlier in the same tick) is skipped.
    pub fn record_served(&mut self, session: SessionId, posted: u64) {
        if let Some(st) = self.open.get_mut(&session) {
            st.served += 1;
            st.posts += posted;
            self.ledgers = self
                .ledgers
                .wrapping_add(checksum::ledger(session, posted, 1));
        }
    }

    /// The registry's replicated checksum term: Σ binding hashes of the
    /// committed sessions.
    pub fn bindings_checksum(&self) -> u64 {
        self.bindings
    }

    /// The registry's owned checksum term: Σ linear ledger terms.
    pub fn ledgers_checksum(&self) -> u64 {
        self.ledgers
    }

    /// Open sessions.
    pub fn live_count(&self) -> usize {
        self.open.len()
    }

    /// Player slots minted so far (open + retired).
    pub fn slots_minted(&self) -> usize {
        self.next_player
    }

    /// Sessions that have departed.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Total player slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate the open sessions in handle order (snapshot capture).
    pub fn iter_open(&self) -> impl Iterator<Item = (SessionId, &SessionState)> {
        self.open.iter().map(|(&s, st)| (s, st))
    }

    /// Next session handle to be minted (snapshot capture).
    pub fn next_session_id(&self) -> SessionId {
        self.next_session
    }

    /// Rebuild a registry from persisted parts (crash recovery).
    /// Validates the parts' internal consistency; a snapshot that fails
    /// here is treated as corrupt by the caller.
    pub fn restore(
        capacity: usize,
        next_player: PlayerId,
        next_session: SessionId,
        retired: u64,
        sessions: Vec<(SessionId, SessionState)>,
    ) -> Result<Self, String> {
        if next_player > capacity {
            return Err(format!(
                "next_player {next_player} exceeds capacity {capacity}"
            ));
        }
        let mut open = BTreeMap::new();
        let (mut bindings, mut ledgers) = (0u64, 0u64);
        for (session, st) in sessions {
            if session == 0 || session >= next_session {
                return Err(format!("session handle {session} out of minted range"));
            }
            if st.player >= next_player {
                return Err(format!("player slot {} was never minted", st.player));
            }
            bindings = bindings.wrapping_add(binding_of(session, &st));
            ledgers = ledgers.wrapping_add(checksum::ledger(session, st.posts, st.served));
            if open.insert(session, st).is_some() {
                return Err(format!("duplicate session handle {session}"));
            }
        }
        Ok(SessionRegistry {
            capacity,
            next_player,
            next_session,
            open,
            retired,
            bindings,
            ledgers,
        })
    }

    /// Seal the current liveness as a fault-layer epoch: a slot is live
    /// iff it is bound to an open session. `paid` is the per-slot probe
    /// counter vector captured at the same barrier.
    pub fn liveness(&self, paid: Vec<u64>) -> LivenessEpoch {
        let mut dead = vec![true; self.capacity];
        for st in self.open.values() {
            dead[st.player] = false;
        }
        LivenessEpoch::from_parts(dead, paid, 0)
    }
}

fn binding_of(session: SessionId, st: &SessionState) -> u64 {
    checksum::binding(session, st.player as u64, st.joined_tick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_assigns_fresh_slots_in_order() {
        let mut reg = SessionRegistry::new(3);
        let (s1, p1) = reg.join(0).unwrap();
        let (s2, p2) = reg.join(1).unwrap();
        assert_eq!((p1, p2), (0, 1));
        assert_ne!(s1, s2);
        assert_eq!(reg.live_count(), 2);
        assert_eq!(reg.slots_minted(), 2);
    }

    #[test]
    fn slots_are_never_reused_after_leave() {
        let mut reg = SessionRegistry::new(2);
        let (s1, p1) = reg.join(0).unwrap();
        let receipt = reg.leave(s1, 5, 9).unwrap();
        assert_eq!(receipt.player, p1);
        assert_eq!(receipt.probes, 9);
        assert_eq!(receipt.ticks, 5);
        // The freed slot is NOT handed out again.
        let (_, p2) = reg.join(6).unwrap();
        assert_ne!(p2, p1);
        // Capacity is a lifetime bound: both slots minted, so reject.
        assert_eq!(reg.join(7), Err(ErrorCode::Capacity));
        assert_eq!(reg.retired(), 1);
    }

    #[test]
    fn unknown_sessions_are_rejected() {
        let mut reg = SessionRegistry::new(1);
        assert_eq!(reg.leave(42, 0, 0), Err(ErrorCode::UnknownSession));
        assert_eq!(reg.player_of(42), None);
        let (s, _) = reg.join(0).unwrap();
        reg.leave(s, 1, 0).unwrap();
        // Double-leave is unknown, not a panic.
        assert_eq!(reg.leave(s, 2, 0), Err(ErrorCode::UnknownSession));
    }

    #[test]
    fn liveness_epoch_marks_unbound_slots_dead() {
        let mut reg = SessionRegistry::new(4);
        let (s1, p1) = reg.join(0).unwrap();
        let (_s2, p2) = reg.join(0).unwrap();
        reg.leave(s1, 1, 3).unwrap();
        let epoch = reg.liveness(vec![3, 1, 0, 0]);
        assert!(epoch.is_dead(p1), "departed slot is dead");
        assert!(epoch.is_live(p2), "open session is live");
        assert!(epoch.is_dead(2), "never-minted slot is dead");
        assert!(epoch.is_dead(3));
        assert_eq!(epoch.paid(p1), 3, "cost survives departure");
        assert_eq!(epoch.live_players(&[0, 1, 2, 3]), vec![p2]);
    }

    #[test]
    fn ledger_accumulates_posts_and_served() {
        let mut reg = SessionRegistry::new(1);
        let (s, _) = reg.join(0).unwrap();
        reg.record_served(s, 1);
        reg.record_served(s, 1);
        reg.record_served(s, 0);
        assert_eq!(reg.ledgers_checksum(), checksum::ledger(s, 2, 3));
        let receipt = reg.leave(s, 10, 7).unwrap();
        assert_eq!(receipt.posts, 2);
        assert_eq!(reg.ledgers_checksum(), 0, "a closed ledger leaves the sum");
    }

    #[test]
    fn checksum_terms_track_joins_and_leaves() {
        let mut reg = SessionRegistry::new(4);
        let (s1, p1) = reg.join(3).unwrap();
        let one = checksum::binding(s1, p1 as u64, 3);
        assert_eq!(reg.bindings_checksum(), one);
        let (s2, p2) = reg.join(4).unwrap();
        let two = one.wrapping_add(checksum::binding(s2, p2 as u64, 4));
        assert_eq!(reg.bindings_checksum(), two);
        // Joined and left inside one tick: the binding nets to zero,
        // but the slot stays minted and the departure is counted.
        let (s3, p3) = reg.join(5).unwrap();
        let receipt = reg.leave(s3, 5, 0).unwrap();
        assert_eq!((receipt.player, receipt.ticks), (p3, 0));
        assert_eq!(reg.bindings_checksum(), two);
        assert_eq!(
            (reg.live_count(), reg.slots_minted(), reg.retired()),
            (2, 3, 1)
        );
        assert!(reg.liveness(vec![0; 4]).is_dead(p3));
        reg.leave(s1, 6, 0).unwrap();
        reg.leave(s2, 6, 0).unwrap();
        assert_eq!((reg.bindings_checksum(), reg.ledgers_checksum()), (0, 0));
    }

    #[test]
    fn a_closed_session_no_longer_resolves_or_accrues() {
        let mut reg = SessionRegistry::new(1);
        let (s, _) = reg.join(0).unwrap();
        reg.leave(s, 1, 0).unwrap();
        assert_eq!(reg.player_of(s), None);
        // A data request that executes after its session's leave in the
        // same tick is skipped by the ledgers.
        reg.record_served(s, 1);
        assert_eq!(reg.ledgers_checksum(), 0);
    }
}
