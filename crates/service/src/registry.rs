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
//!    exactly like a crashed player. The epoch is captured at the tick
//!    barrier (after control requests, before the snapshot seal), so
//!    readers of a snapshot never observe a half-open session.
//!
//! Each open session carries a cost ledger (probes since join, posts,
//! requests served) reported back on `Leave`.
//!
//! The registry also keeps its share of the incremental state checksum
//! (see `checksum.rs`): the sum of the open sessions' binding hashes,
//! updated only when a session is admitted or closed at the commit
//! barrier, and the sum of their linear ledger terms, updated with the
//! ledgers themselves.

use crate::checksum;
use crate::wire::{ErrorCode, SessionId};
use std::collections::{BTreeMap, BTreeSet};
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
/// service wraps it in a mutex and only touches it in the serial
/// control pass of a tick, which is what makes its decisions (slot
/// assignment order, admission) independent of thread scheduling.
///
/// ## Staged control decisions (tick pipelining)
///
/// The pipelined service prepares tick `T+1`'s control pass while tick
/// `T`'s data pass is still running. Those decisions must bind (so
/// later requests in the same prepared batch resolve against them) but
/// must **not** become visible to tick `T`'s seal — a snapshot sealed
/// at `T` has to show exactly the sessions that were open through `T`.
/// The registry therefore keeps a two-phase view:
///
/// * [`SessionRegistry::stage_join`] / [`SessionRegistry::stage_leave`]
///   record admissions and closures in staging maps. Staged joins are
///   invisible to [`SessionRegistry::liveness`] / `live_count`; staged
///   closures stay *live* there (they were open through the sealing
///   tick, and their receipt has not been issued).
/// * [`SessionRegistry::commit_staged_joins`] +
///   [`SessionRegistry::finish_close`] promote the staged batch when
///   its tick actually executes — after the previous tick sealed, which
///   is exactly when the unpipelined control pass would have run.
///
/// The unpipelined path uses the same stage-then-commit calls
/// back-to-back, so both paths make byte-identical decisions.
#[derive(Debug)]
pub struct SessionRegistry {
    capacity: usize,
    next_player: PlayerId,
    next_session: SessionId,
    open: BTreeMap<SessionId, SessionState>,
    retired: u64,
    /// Admitted by a staged control pass; open for resolution inside
    /// that batch, not yet open for sealing.
    staged_joins: BTreeMap<SessionId, SessionState>,
    /// Closed by a staged control pass; gone for resolution inside that
    /// batch, still live for sealing until the receipt is issued.
    staged_closes: BTreeMap<SessionId, SessionState>,
    /// Staged closures of sessions that were still staged joins: never
    /// committed, so their binding was never added to `bindings`.
    cancelled: BTreeSet<SessionId>,
    /// Σ binding hashes of committed sessions (open plus staged-to-close
    /// that were open).
    bindings: u64,
    /// Σ linear ledger terms of every session whose ledger can still
    /// change (open, staged-to-close, staged joins).
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
            staged_joins: BTreeMap::new(),
            staged_closes: BTreeMap::new(),
            cancelled: BTreeSet::new(),
            bindings: 0,
            ledgers: 0,
        }
    }

    /// Admit a session: bind the lowest unminted slot. Rejects with
    /// [`ErrorCode::Capacity`] once all slots have been minted. This is
    /// stage + immediate commit — the unpipelined shape.
    pub fn join(&mut self, tick: u64) -> Result<(SessionId, PlayerId), ErrorCode> {
        let (session, player) = self.stage_join(tick)?;
        self.commit_staged_joins();
        Ok((session, player))
    }

    /// Close a session, reporting its cost. `probes_now` is the bound
    /// slot's current probe counter. Stage + immediate receipt — the
    /// unpipelined shape.
    pub fn leave(
        &mut self,
        session: SessionId,
        tick: u64,
        probes_now: u64,
    ) -> Result<LeaveReceipt, ErrorCode> {
        self.stage_leave(session)?;
        self.finish_close(session, tick, probes_now)
            .ok_or(ErrorCode::UnknownSession)
    }

    /// Stage an admission for a batch that has not executed yet. Mints
    /// the slot and handle immediately (later requests in the same
    /// batch must resolve the new session, and a concurrent seal must
    /// never hand out the same slot twice), but the session stays out
    /// of `open` — and therefore out of the liveness seal — until
    /// [`SessionRegistry::commit_staged_joins`].
    pub fn stage_join(&mut self, tick: u64) -> Result<(SessionId, PlayerId), ErrorCode> {
        if self.next_player >= self.capacity {
            return Err(ErrorCode::Capacity);
        }
        let player = self.next_player;
        self.next_player += 1;
        let session = self.next_session;
        self.next_session += 1;
        self.staged_joins.insert(
            session,
            SessionState {
                player,
                joined_tick: tick,
                probes_at_join: 0,
                posts: 0,
                served: 0,
            },
        );
        Ok((session, player))
    }

    /// Stage a closure. The session disappears for batch-internal
    /// resolution (a later request in the same batch sees
    /// `UnknownSession`, exactly as if the leave had executed) but its
    /// slot stays live for the in-flight seal; the receipt is deferred
    /// to [`SessionRegistry::finish_close`] so the probe ledger is read
    /// at execute time, not staging time.
    pub fn stage_leave(&mut self, session: SessionId) -> Result<PlayerId, ErrorCode> {
        // A join and leave staged in the same batch cancel out before
        // the session was ever live.
        let st = match self.staged_joins.remove(&session) {
            Some(st) => {
                self.cancelled.insert(session);
                st
            }
            None => match self.open.remove(&session) {
                Some(st) => st,
                None => return Err(ErrorCode::UnknownSession),
            },
        };
        let player = st.player;
        self.staged_closes.insert(session, st);
        Ok(player)
    }

    /// Resolve a session as the staged control pass sees it: staged
    /// closures are gone, staged admissions and open sessions resolve.
    pub fn staged_player_of(&self, session: SessionId) -> Option<PlayerId> {
        if self.staged_closes.contains_key(&session) {
            return None;
        }
        self.open
            .get(&session)
            .or_else(|| self.staged_joins.get(&session))
            .map(|st| st.player)
    }

    /// Promote every staged admission to open. Called when the staged
    /// batch's tick executes — the previous tick has sealed, so the new
    /// sessions become visible exactly one seal after they were minted,
    /// same as the unpipelined path.
    pub fn commit_staged_joins(&mut self) {
        while let Some((session, st)) = self.staged_joins.pop_first() {
            self.bindings = self.bindings.wrapping_add(binding_of(session, &st));
            self.open.insert(session, st);
        }
    }

    /// Issue the deferred receipt for a staged closure. `probes_now` is
    /// the bound slot's probe counter *at execute time*, which matches
    /// when the unpipelined control pass would have read it.
    pub fn finish_close(
        &mut self,
        session: SessionId,
        tick: u64,
        probes_now: u64,
    ) -> Option<LeaveReceipt> {
        let st = self.staged_closes.remove(&session)?;
        if !self.cancelled.remove(&session) {
            self.bindings = self.bindings.wrapping_sub(binding_of(session, &st));
        }
        self.ledgers = self
            .ledgers
            .wrapping_sub(checksum::ledger(session, st.posts, st.served));
        self.retired += 1;
        Some(LeaveReceipt {
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

    /// Mutable ledger access for a session. Staged closures are still
    /// reachable (their ledger accumulates until the receipt is
    /// issued), as are staged admissions (defensively — a staged batch
    /// never executes data requests before it commits).
    fn state_mut(&mut self, session: SessionId) -> Option<&mut SessionState> {
        if self.open.contains_key(&session) {
            return self.open.get_mut(&session);
        }
        if self.staged_closes.contains_key(&session) {
            return self.staged_closes.get_mut(&session);
        }
        self.staged_joins.get_mut(&session)
    }

    /// Charge one executed data request to a session's ledger: `served`
    /// goes up by one and `posts` by `posted`. A session that is no
    /// longer reachable (closed earlier in the same tick) is skipped.
    pub fn record_served(&mut self, session: SessionId, posted: u64) {
        if let Some(st) = self.state_mut(session) {
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

    /// Sessions live for sealing purposes: open plus staged-to-close
    /// (still live until their receipt is issued). Staged admissions
    /// are not yet live.
    pub fn live_count(&self) -> usize {
        self.open.len() + self.staged_closes.len()
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
            staged_joins: BTreeMap::new(),
            staged_closes: BTreeMap::new(),
            cancelled: BTreeSet::new(),
            bindings,
            ledgers,
        })
    }

    /// Seal the current liveness as a fault-layer epoch: a slot is live
    /// iff it is bound to an open session — including sessions staged
    /// to close by a not-yet-executed batch (they were open through the
    /// sealing tick), and excluding staged admissions (not yet open).
    /// `paid` is the per-slot probe counter vector captured at the same
    /// barrier.
    pub fn liveness(&self, paid: Vec<u64>) -> LivenessEpoch {
        let mut dead = vec![true; self.capacity];
        for st in self.open.values().chain(self.staged_closes.values()) {
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
    fn checksum_terms_track_commits_and_closes() {
        let mut reg = SessionRegistry::new(4);
        let (s1, p1) = reg.join(3).unwrap();
        let one = checksum::binding(s1, p1 as u64, 3);
        assert_eq!(reg.bindings_checksum(), one);
        // A staged join is not committed: no binding yet.
        let (s2, p2) = reg.stage_join(4).unwrap();
        assert_eq!(reg.bindings_checksum(), one);
        reg.commit_staged_joins();
        let two = one.wrapping_add(checksum::binding(s2, p2 as u64, 4));
        assert_eq!(reg.bindings_checksum(), two);
        // Joined and left inside one staged batch: never committed, so
        // closing it must not subtract a binding that was never added.
        let (s3, _) = reg.stage_join(5).unwrap();
        reg.stage_leave(s3).unwrap();
        reg.commit_staged_joins();
        reg.finish_close(s3, 5, 0).unwrap();
        assert_eq!(reg.bindings_checksum(), two);
        // A staged leave keeps the binding until its receipt.
        reg.stage_leave(s1).unwrap();
        assert_eq!(reg.bindings_checksum(), two);
        reg.finish_close(s1, 6, 0).unwrap();
        reg.leave(s2, 6, 0).unwrap();
        assert_eq!((reg.bindings_checksum(), reg.ledgers_checksum()), (0, 0));
    }

    #[test]
    fn staged_join_is_resolvable_but_not_live_until_commit() {
        let mut reg = SessionRegistry::new(2);
        let (s, p) = reg.stage_join(4).unwrap();
        // Batch-internal resolution sees the new session...
        assert_eq!(reg.staged_player_of(s), Some(p));
        // ...but the seal does not: not open, not live.
        assert_eq!(reg.player_of(s), None);
        assert_eq!(reg.live_count(), 0);
        assert!(reg.liveness(vec![0, 0]).is_dead(p));
        // The slot IS minted — a concurrent seal must never see it
        // handed out again.
        assert_eq!(reg.slots_minted(), 1);
        reg.commit_staged_joins();
        assert_eq!(reg.player_of(s), Some(p));
        assert_eq!(reg.live_count(), 1);
        assert!(reg.liveness(vec![0, 0]).is_live(p));
    }

    #[test]
    fn staged_leave_stays_live_until_receipt() {
        let mut reg = SessionRegistry::new(1);
        let (s, p) = reg.join(0).unwrap();
        assert_eq!(reg.stage_leave(s), Ok(p));
        // Batch-internal resolution: gone.
        assert_eq!(reg.staged_player_of(s), None);
        // Seal view: still live, ledger still reachable.
        assert_eq!(reg.live_count(), 1);
        assert!(reg.liveness(vec![0]).is_live(p));
        reg.record_served(s, 1);
        assert_eq!(reg.retired(), 0);
        // Receipt at execute time reads the deferred ledger.
        let receipt = reg.finish_close(s, 7, 3).unwrap();
        assert_eq!((receipt.player, receipt.probes, receipt.posts), (p, 3, 1));
        assert_eq!(receipt.ticks, 7);
        assert_eq!(reg.retired(), 1);
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn same_batch_join_then_leave_cancels_before_liveness() {
        let mut reg = SessionRegistry::new(2);
        let (s, p) = reg.stage_join(2).unwrap();
        assert_eq!(reg.stage_leave(s), Ok(p));
        // Never open, so never live — but the slot stays minted and the
        // closure still produces a receipt and a retirement.
        assert_eq!(reg.live_count(), 1, "staged closure counts as live");
        assert_eq!(reg.slots_minted(), 1);
        let receipt = reg.finish_close(s, 2, 0).unwrap();
        assert_eq!((receipt.player, receipt.ticks), (p, 0));
        // Double-staging the same closure is UnknownSession, not a panic.
        assert_eq!(reg.stage_leave(s), Err(ErrorCode::UnknownSession));
        assert_eq!(reg.finish_close(s, 3, 0), None);
    }

    #[test]
    fn double_stage_leave_is_unknown() {
        let mut reg = SessionRegistry::new(1);
        let (s, _) = reg.join(0).unwrap();
        reg.stage_leave(s).unwrap();
        assert_eq!(reg.stage_leave(s), Err(ErrorCode::UnknownSession));
    }
}
