//! The probe primitive: the only channel from the hidden truth to an
//! algorithm, charged one unit per revealed coordinate.
//!
//! Concurrency design: probes are issued from rayon worker threads (one
//! logical player per task). Per-player cost counters are relaxed
//! `AtomicU64`s — they are statistics, not synchronization. The
//! per-player probe memo is a `parking_lot::Mutex<PlayerCache>`; only
//! the thread currently simulating that player touches it, so the lock
//! is uncontended in practice but keeps the engine `Sync` without
//! `unsafe`.

use crate::cost::{CostLedger, CostSnapshot};
use crate::fault::{FaultPlan, FaultState, LivenessEpoch};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use tmwia_model::bitvec::BitVec;
use tmwia_model::matrix::{ObjectId, PlayerId, PrefMatrix};

/// Per-player memo of already-revealed coordinates.
///
/// The paper charges a player once per revealed entry: once player `p`
/// has probed object `j` the grade is public knowledge (it is on the
/// billboard), so re-reading it is free. Algorithms that want the
/// stricter "every probe pays" semantics (the determinism remark after
/// Theorem 3.2) can call [`PlayerHandle::probe_fresh`].
#[derive(Debug)]
struct PlayerCache {
    probed: BitVec,
    values: BitVec,
}

/// Owns the hidden preference matrix and meters every access to it.
///
/// ```
/// use tmwia_billboard::ProbeEngine;
/// use tmwia_model::{matrix::PrefMatrix, BitVec};
///
/// let truth = PrefMatrix::new(vec![BitVec::from_bools(&[true, false, true])]);
/// let engine = ProbeEngine::new(truth);
/// let me = engine.player(0);
/// assert!(me.probe(0));          // one unit charged
/// assert!(!me.probe(1));         // second unit
/// assert!(me.probe(0));          // cached — free
/// assert_eq!(engine.probes_of(0), 2);
/// assert_eq!(engine.max_probes(), 2); // round complexity so far
/// ```
pub struct ProbeEngine {
    truth: PrefMatrix,
    counters: Vec<AtomicU64>,
    caches: Vec<Mutex<PlayerCache>>,
    /// Compiled fault regime. `None` for the fault-free model — the
    /// clean probe path then pays only a predicted-not-taken branch
    /// (guarded by the `substrate` bench), and `with_faults` normalizes
    /// a no-op [`FaultPlan`] to `None` so the two constructions are the
    /// same engine.
    faults: Option<Box<FaultState>>,
}

impl ProbeEngine {
    /// Wrap a hidden truth matrix (fault-free model).
    pub fn new(truth: PrefMatrix) -> Self {
        Self::with_faults(truth, FaultPlan::none())
    }

    /// Wrap a hidden truth matrix under a fault regime. A
    /// [`FaultPlan::is_none`] plan compiles to the exact fault-free
    /// engine (bit-identical behavior and cost to [`ProbeEngine::new`]).
    pub fn with_faults(truth: PrefMatrix, plan: FaultPlan) -> Self {
        let n = truth.n();
        let m = truth.m();
        let faults = if plan.is_none() {
            None
        } else {
            Some(Box::new(FaultState::compile(plan, n)))
        };
        ProbeEngine {
            truth,
            counters: (0..n).map(|_| AtomicU64::new(0)).collect(),
            caches: (0..n)
                .map(|_| {
                    Mutex::new(PlayerCache {
                        probed: BitVec::zeros(m),
                        values: BitVec::zeros(m),
                    })
                })
                .collect(),
            faults,
        }
    }

    /// Number of players.
    #[inline]
    pub fn n(&self) -> usize {
        self.truth.n()
    }

    /// Number of objects.
    #[inline]
    pub fn m(&self) -> usize {
        self.truth.m()
    }

    /// A probing handle bound to player `p`.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn player(&self, p: PlayerId) -> PlayerHandle<'_> {
        assert!(p < self.n(), "player {p} out of range {}", self.n());
        PlayerHandle { engine: self, p }
    }

    /// Probes charged to player `p` so far.
    pub fn probes_of(&self, p: PlayerId) -> u64 {
        self.counters[p].load(Ordering::Relaxed)
    }

    /// Objects player `p` has already paid for, ascending — the probe
    /// memo's key set. Serving-layer crash recovery persists this and
    /// re-probes on restore (values re-derive from the truth matrix).
    /// Walks the memo a word at a time and skips zero words, so a call
    /// costs O(m/64 + |memo|).
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    pub fn probed_objects(&self, p: PlayerId) -> Vec<ObjectId> {
        assert!(p < self.n(), "player {p} out of range {}", self.n());
        let cache = self.caches[p].lock();
        let mut out = Vec::new();
        for (wi, &word) in cache.probed.words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }

    /// Total probes charged across all players.
    pub fn total_probes(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Round complexity so far: the maximum per-player charge (each
    /// round every player performs at most one probe, so an execution
    /// needs at least this many rounds).
    pub fn max_probes(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Snapshot of all per-player charges (for phase-cost deltas).
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot::new(
            self.counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// The hidden truth — **test/metric use only**. Algorithms must go
    /// through [`PlayerHandle::probe`]; this accessor exists so that
    /// evaluation code can score outputs without replicating the matrix.
    pub fn truth(&self) -> &PrefMatrix {
        &self.truth
    }

    /// The compiled fault state, if any fault is active. Metric /
    /// experiment code uses this to mask the corrupted mass; algorithms
    /// should only ever need [`ProbeEngine::is_live`].
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_deref()
    }

    /// Has player `p` stopped answering probes — crash-set member past
    /// its crash round, or probe budget exhausted? Always `false` in
    /// the fault-free model.
    ///
    /// This is an *instantaneous* read of `p`'s live counter. It is
    /// schedule-independent only when nothing else can be probing `p`
    /// concurrently (e.g. the caller is the single thread simulating
    /// `p`, or the engine is quiescent). Drivers asking about *other*
    /// players mid-phase must capture a [`ProbeEngine::begin_round`]
    /// epoch at a barrier and read that instead.
    pub fn is_dead(&self, p: PlayerId) -> bool {
        match &self.faults {
            None => false,
            Some(f) => f.denies(p, self.counters[p].load(Ordering::Relaxed)),
        }
    }

    /// Capture a frozen [`LivenessEpoch`]: a snapshot of every player's
    /// paid-probe count and the deadness it implies, taken at a phase
    /// barrier of a bulk-synchronous driver. All cross-player liveness
    /// observations during the following phase resolve against the
    /// snapshot, so they cannot depend on how worker threads interleave
    /// within the phase. Fault-free engines return the constant
    /// all-live epoch without touching any counter.
    ///
    /// The snapshot equals the live counters only for players that are
    /// quiescent at capture time — capture at a barrier where the
    /// players you will ask about have finished their phase.
    pub fn begin_round(&self) -> LivenessEpoch {
        match &self.faults {
            None => LivenessEpoch::all_live(),
            Some(f) => f.freeze(
                self.counters
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
            ),
        }
    }

    /// Negation of [`ProbeEngine::is_dead`].
    #[inline]
    pub fn is_live(&self, p: PlayerId) -> bool {
        !self.is_dead(p)
    }

    /// Players *scheduled* to crash under the active plan (empty when
    /// fault-free). Sorted by id.
    pub fn crashed_players(&self) -> Vec<PlayerId> {
        self.faults
            .as_ref()
            .map_or_else(Vec::new, |f| f.crash_set())
    }

    /// Billboard read lag prescribed by the active fault plan (0 when
    /// fault-free). Round-driven runtimes consult this so their
    /// signatures stay fault-agnostic.
    pub fn stale_lag(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.plan().stale_lag)
    }

    /// Full fault-attributed cost ledger: paid probes per player split
    /// into clean vs flipped, plus free denied attempts.
    pub fn ledger(&self) -> CostLedger {
        let n = self.n();
        let paid: Vec<u64> = (0..n).map(|p| self.probes_of(p)).collect();
        let (flipped, denied) = match &self.faults {
            None => (vec![0; n], vec![0; n]),
            Some(f) => (
                (0..n).map(|p| f.flipped_of(p)).collect(),
                (0..n).map(|p| f.denied_of(p)).collect(),
            ),
        };
        CostLedger::new(paid, flipped, denied)
    }

    fn charge(&self, p: PlayerId) {
        self.counters[p].fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for ProbeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeEngine")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("total_probes", &self.total_probes())
            .finish()
    }
}

/// A probing capability for one player. Cheap to copy around; borrows
/// the engine.
#[derive(Clone, Copy)]
pub struct PlayerHandle<'a> {
    engine: &'a ProbeEngine,
    p: PlayerId,
}

impl<'a> PlayerHandle<'a> {
    /// This handle's player id.
    #[inline]
    pub fn id(&self) -> PlayerId {
        self.p
    }

    /// Number of objects in the instance.
    #[inline]
    pub fn m(&self) -> usize {
        self.engine.m()
    }

    /// Probe object `j`: reveal `v(p)[j]`, charging one unit unless this
    /// player has already probed `j` (revealed grades are public on the
    /// billboard, so re-reads are free).
    ///
    /// Under an active [`FaultPlan`]: an already-memoized grade is still
    /// returned for free (it is public knowledge); a fresh probe by a
    /// dead/throttled player is *denied* — no charge, no reveal, the
    /// default `false` comes back and the denial is tallied — so
    /// fault-oblivious algorithm code stays total and deterministic.
    /// Fault-aware drivers use [`PlayerHandle::try_probe`] to observe
    /// denials. Flips corrupt the value before it enters the memo, so a
    /// noisy grade is consistently noisy.
    pub fn probe(&self, j: ObjectId) -> bool {
        self.try_probe(j).unwrap_or(false)
    }

    /// Like [`PlayerHandle::probe`], but surfaces denial: `None` means
    /// the player is dead/throttled *and* has no memoized grade for `j`
    /// (nothing was charged or revealed).
    pub fn try_probe(&self, j: ObjectId) -> Option<bool> {
        let mut cache = self.engine.caches[self.p].lock();
        if cache.probed.get(j) {
            return Some(cache.values.get(j));
        }
        let mut v = self.engine.truth.value(self.p, j);
        if let Some(f) = &self.engine.faults {
            if f.denies(self.p, self.engine.counters[self.p].load(Ordering::Relaxed)) {
                drop(cache);
                f.note_denial(self.p);
                return None;
            }
            if f.is_flipped(self.p, j) {
                v = !v;
                f.note_flip(self.p);
            }
        }
        cache.probed.set(j, true);
        cache.values.set(j, v);
        drop(cache);
        self.engine.charge(self.p);
        Some(v)
    }

    /// Probe object `j`, always paying — the strict semantics used when
    /// a subroutine must be oblivious to earlier phases (remark after
    /// Theorem 3.2: "Select disregards probes done before its
    /// execution"). Still records the value in the memo.
    ///
    /// Fault semantics match [`PlayerHandle::probe`]: a denied attempt
    /// is free and falls back to the memo (or `false`), and flips are
    /// the same per-`(player, object)` decision, so re-paying never
    /// changes an answer.
    pub fn probe_fresh(&self, j: ObjectId) -> bool {
        let mut cache = self.engine.caches[self.p].lock();
        let mut v = self.engine.truth.value(self.p, j);
        if let Some(f) = &self.engine.faults {
            if f.denies(self.p, self.engine.counters[self.p].load(Ordering::Relaxed)) {
                let fallback = cache.probed.get(j) && cache.values.get(j);
                drop(cache);
                f.note_denial(self.p);
                return fallback;
            }
            if f.is_flipped(self.p, j) {
                v = !v;
                f.note_flip(self.p);
            }
        }
        cache.probed.set(j, true);
        cache.values.set(j, v);
        drop(cache);
        self.engine.charge(self.p);
        v
    }

    /// Has this player already paid for object `j`?
    pub fn already_probed(&self, j: ObjectId) -> bool {
        self.engine.caches[self.p].lock().probed.get(j)
    }

    /// Probes charged to this player so far.
    pub fn cost(&self) -> u64 {
        self.engine.probes_of(self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tmwia_model::bitvec::BitVec;

    fn engine(n: usize, m: usize, seed: u64) -> ProbeEngine {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<BitVec> = (0..n).map(|_| BitVec::random(m, &mut rng)).collect();
        ProbeEngine::new(PrefMatrix::new(rows))
    }

    #[test]
    fn probe_reveals_truth_and_charges_once() {
        let eng = engine(4, 32, 1);
        let h = eng.player(2);
        let direct = eng.truth().value(2, 7);
        assert_eq!(h.probe(7), direct);
        assert_eq!(h.cost(), 1);
        // Cached re-probe is free and consistent.
        assert_eq!(h.probe(7), direct);
        assert_eq!(h.cost(), 1);
        assert!(h.already_probed(7));
        assert!(!h.already_probed(8));
    }

    #[test]
    fn probed_objects_lists_the_memo_ascending() {
        // m = 200 spans four words, the last one partial; probe across
        // word boundaries, out of order, with a re-probe.
        let eng = engine(2, 200, 5);
        let h = eng.player(1);
        for j in [199, 0, 64, 63, 130, 64, 127, 128] {
            h.probe(j);
        }
        let naive: Vec<usize> = (0..200).filter(|&j| h.already_probed(j)).collect();
        assert_eq!(eng.probed_objects(1), naive);
        assert_eq!(naive, vec![0, 63, 64, 127, 128, 130, 199]);
        assert!(eng.probed_objects(0).is_empty());
    }

    #[test]
    fn probe_fresh_always_pays() {
        let eng = engine(2, 16, 2);
        let h = eng.player(0);
        h.probe(3);
        h.probe_fresh(3);
        h.probe_fresh(3);
        assert_eq!(h.cost(), 3);
    }

    #[test]
    fn counters_are_per_player() {
        let eng = engine(3, 16, 3);
        eng.player(0).probe(0);
        eng.player(0).probe(1);
        eng.player(2).probe(0);
        assert_eq!(eng.probes_of(0), 2);
        assert_eq!(eng.probes_of(1), 0);
        assert_eq!(eng.probes_of(2), 1);
        assert_eq!(eng.total_probes(), 3);
        assert_eq!(eng.max_probes(), 2);
    }

    #[test]
    fn snapshot_reflects_current_charges() {
        let eng = engine(2, 8, 4);
        eng.player(1).probe(0);
        let snap = eng.snapshot();
        assert_eq!(snap.per_player(), &[0, 1]);
    }

    #[test]
    fn parallel_probing_is_exact() {
        // Many threads probing distinct players: totals must be exact,
        // not approximately right.
        let eng = engine(8, 256, 5);
        rayon::scope(|s| {
            for p in 0..8 {
                let engr = &eng;
                s.spawn(move |_| {
                    let h = engr.player(p);
                    for j in 0..256 {
                        h.probe(j);
                    }
                });
            }
        });
        assert_eq!(eng.total_probes(), 8 * 256);
        assert_eq!(eng.max_probes(), 256);
        for p in 0..8 {
            assert_eq!(eng.probes_of(p), 256);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_player_panics() {
        engine(2, 8, 6).player(2);
    }

    #[test]
    fn begin_round_freezes_liveness_against_later_probes() {
        use crate::fault::FaultPlan;
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<BitVec> = (0..4).map(|_| BitVec::random(16, &mut rng)).collect();
        let plan = FaultPlan {
            probe_budget: Some(2),
            ..FaultPlan::none()
        };
        let eng = ProbeEngine::with_faults(PrefMatrix::new(rows.clone()), plan);
        let before = eng.begin_round();
        assert!((0..4).all(|p| before.is_live(p)));
        // Exhaust player 0's budget. The live view changes; the epoch
        // captured before the probes does not.
        eng.player(0).probe(0);
        eng.player(0).probe(1);
        assert!(eng.is_dead(0));
        assert!(before.is_live(0), "epoch must stay frozen");
        let after = eng.begin_round();
        assert!(after.is_dead(0));
        assert_eq!(after.paid(0), 2);
        // Fault-free engines hand out the constant all-live epoch.
        let clean = ProbeEngine::new(PrefMatrix::new(rows));
        clean.player(1).probe(0);
        assert!(clean.begin_round().is_live(1));
        assert_eq!(clean.begin_round().paid(1), 0);
    }
}
