//! Copy-on-write versioned billboard snapshots.
//!
//! Reads (`Read`, `Recommend`) are served from the **latest sealed
//! snapshot** — an immutable value built once per tick, after the
//! tick's posts have landed and its epoch has been stamped. Readers
//! never take the billboard's write lock and writers never wait for
//! readers: the only shared state is one [`SnapshotCell`], a pointer
//! swap under a lock held for nanoseconds on either side.
//!
//! Consistency model: a snapshot is a prefix of billboard history at a
//! tick barrier. A read served at epoch `e` sees *every* post sealed at
//! or before `e` and *none* after — never a torn mid-tick state. This
//! is the serving-layer analogue of the round-driven runtimes' "posts
//! become visible at the next round boundary".

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use tmwia_billboard::{Billboard, LivenessEpoch, PlayerId};
use tmwia_obs::{Event, Registry as ObsRegistry};

/// One object's sealed post list. The entries live behind an `Arc` so
/// an incremental seal can carry every *untouched* object from the
/// previous snapshot into the next one with a refcount bump instead of
/// a clone, and the like count is stored so re-ranking never rescans
/// entry lists the tick didn't touch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostCell {
    /// Visible posts for this object, sorted by `(player, grade)` —
    /// deterministic regardless of post arrival order.
    pub entries: Arc<Vec<(PlayerId, bool)>>,
    /// How many of `entries` are likes (grade `true`).
    pub likes: u32,
}

impl PostCell {
    fn from_entries(entries: Vec<(PlayerId, bool)>) -> Self {
        let likes = entries.iter().filter(|&&(_, v)| v).count() as u32;
        PostCell {
            entries: Arc::new(entries),
            likes,
        }
    }

    /// Net score: likes minus dislikes.
    fn net(&self) -> i64 {
        2 * i64::from(self.likes) - self.entries.len() as i64
    }
}

/// One sealed, immutable view of the billboard.
#[derive(Debug, Clone)]
pub struct BoardSnapshot {
    /// Billboard epoch at the seal.
    pub epoch: u64,
    /// Tick that sealed the snapshot.
    pub tick: u64,
    /// Every object with visible posts.
    pub posts: BTreeMap<u32, PostCell>,
    /// Objects ranked by net likes (descending), object id ascending on
    /// ties — the recommendation order.
    pub ranked: Vec<u32>,
    /// Player-slot liveness sealed at the same barrier (registry churn
    /// expressed in fault-layer epochs).
    pub liveness: LivenessEpoch,
    /// Open sessions at the seal.
    pub live: u32,
}

impl BoardSnapshot {
    /// The pre-first-tick snapshot: empty board, epoch 0. Liveness is
    /// the constant all-live epoch — with no posts there is nothing a
    /// reader could mis-attribute.
    pub fn empty() -> Self {
        BoardSnapshot {
            epoch: 0,
            tick: 0,
            posts: BTreeMap::new(),
            ranked: Vec::new(),
            liveness: LivenessEpoch::all_live(),
            live: 0,
        }
    }

    /// Seal the billboard's current visible state. Called by the tick
    /// pipeline at the barrier after posts land and the epoch advances;
    /// the board is quiescent there, so the copy is consistent.
    pub fn build(
        board: &Billboard<u32, bool>,
        liveness: LivenessEpoch,
        live: u32,
        epoch: u64,
        tick: u64,
    ) -> Self {
        let posts: BTreeMap<u32, PostCell> = board
            .visible_posts()
            .into_iter()
            .map(|(j, entries)| (j, PostCell::from_entries(entries)))
            .collect();
        Self::assemble(posts, liveness, live, epoch, tick)
    }

    /// Seal incrementally: the previous snapshot plus exactly this
    /// tick's posts. Untouched objects are carried over as `Arc` bumps;
    /// touched objects re-sort only their own entry list; the rank
    /// order is recomputed from the stored like counts without
    /// rescanning any entries.
    ///
    /// Correctness precondition (the service's seal invariant): the
    /// billboard has zero visibility lag and `prev` sealed *all* of its
    /// visible posts, so `prev + tick_posts` is the board's exact
    /// visible state at this barrier. Entry lists are fully re-sorted
    /// after the append, so the result is byte-identical to
    /// [`BoardSnapshot::build`] — the same `(player, grade)` multiset
    /// under the same total order. The incremental-snapshot suite pins
    /// this equality across multi-epoch runs.
    pub fn build_delta(
        prev: &BoardSnapshot,
        tick_posts: &[(u32, PlayerId, bool)],
        liveness: LivenessEpoch,
        live: u32,
        epoch: u64,
        tick: u64,
    ) -> Self {
        let mut posts = prev.posts.clone();
        let mut by_obj: BTreeMap<u32, Vec<(PlayerId, bool)>> = BTreeMap::new();
        for &(j, p, v) in tick_posts {
            by_obj.entry(j).or_default().push((p, v));
        }
        for (j, fresh) in by_obj {
            let cell = posts.entry(j).or_default();
            let mut entries: Vec<(PlayerId, bool)> = (*cell.entries).clone();
            entries.extend(fresh);
            entries.sort();
            *cell = PostCell::from_entries(entries);
        }
        Self::assemble(posts, liveness, live, epoch, tick)
    }

    fn assemble(
        posts: BTreeMap<u32, PostCell>,
        liveness: LivenessEpoch,
        live: u32,
        epoch: u64,
        tick: u64,
    ) -> Self {
        let mut scored: Vec<(i64, u32)> = posts.iter().map(|(&j, cell)| (cell.net(), j)).collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let ranked = scored.into_iter().map(|(_, j)| j).collect();
        BoardSnapshot {
            epoch,
            tick,
            posts,
            ranked,
            liveness,
            live,
        }
    }

    /// `(likes, dislikes)` for one object; `(0, 0)` if never posted.
    pub fn tally(&self, object: u32) -> (u32, u32) {
        self.posts.get(&object).map_or((0, 0), |cell| {
            (cell.likes, cell.entries.len() as u32 - cell.likes)
        })
    }

    /// Majority grade for one object: `None` on a tie or no posts.
    pub fn majority(&self, object: u32) -> Option<bool> {
        let (likes, dislikes) = self.tally(object);
        match likes.cmp(&dislikes) {
            std::cmp::Ordering::Greater => Some(true),
            std::cmp::Ordering::Less => Some(false),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The top `count` objects by net likes.
    pub fn recommend(&self, count: usize) -> Vec<u32> {
        self.ranked.iter().take(count).copied().collect()
    }

    /// The first `count` ranked objects with their net scores — a
    /// shard's contribution to the relay's cross-shard rank merge.
    pub fn top_scored(&self, count: usize) -> Vec<(u32, i64)> {
        self.ranked
            .iter()
            .take(count)
            .map(|&j| (j, self.posts.get(&j).map_or(0, PostCell::net)))
            .collect()
    }

    /// Deterministic textual rendering: the byte-identity tests compare
    /// this across thread pools.
    pub fn digest(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "snapshot epoch={} tick={} live={} objects={}",
            self.epoch,
            self.tick,
            self.live,
            self.posts.len()
        );
        for (&j, cell) in &self.posts {
            let (likes, dislikes) = self.tally(j);
            let _ = writeln!(
                s,
                "  obj {j}: +{likes} -{dislikes} posts={}",
                cell.entries.len()
            );
        }
        let _ = writeln!(s, "  ranked: {:?}", self.ranked);
        s
    }
}

/// The single shared cell the read path goes through: a swap-on-seal
/// `Arc` holder. Readers clone the `Arc` (a refcount bump under a read
/// lock); the sealer builds the next snapshot entirely off to the side
/// and swaps the pointer, so reads never block a tick and a tick never
/// blocks reads.
#[derive(Debug)]
pub struct SnapshotCell {
    inner: RwLock<Arc<BoardSnapshot>>,
    /// Observability registry the cell stamps a `TickSealed` event into
    /// on every publish (`None` until the owning service attaches one).
    obs: RwLock<Option<Arc<ObsRegistry>>>,
}

impl SnapshotCell {
    /// Cell holding an initial snapshot.
    pub fn new(initial: BoardSnapshot) -> Self {
        SnapshotCell {
            inner: RwLock::new(Arc::new(initial)),
            obs: RwLock::new(None),
        }
    }

    /// Attach the registry every subsequent [`SnapshotCell::store`]
    /// traces its seal into.
    pub fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        *self.obs.write() = Some(obs);
    }

    /// The latest sealed snapshot.
    pub fn load(&self) -> Arc<BoardSnapshot> {
        self.inner.read().clone()
    }

    /// Publish a newly sealed snapshot. Publishing IS the seal becoming
    /// visible, so this is where the `TickSealed` event is traced.
    pub fn store(&self, snapshot: BoardSnapshot) {
        if let Some(obs) = self.obs.read().as_ref() {
            obs.record(Event::TickSealed {
                tick: snapshot.tick,
                epoch: snapshot.epoch,
            });
        }
        *self.inner.write() = Arc::new(snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board_with(posts: &[(u32, PlayerId, bool)]) -> Billboard<u32, bool> {
        let b = Billboard::new();
        for &(j, p, v) in posts {
            b.post(j, p, v);
        }
        b
    }

    #[test]
    fn build_sorts_and_ranks() {
        let b = board_with(&[
            (2, 1, true),
            (2, 0, true),
            (5, 0, false),
            (5, 1, false),
            (3, 2, true),
            (3, 1, false),
        ]);
        let snap = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 3, 1, 1);
        assert_eq!(snap.tally(2), (2, 0));
        assert_eq!(snap.tally(5), (0, 2));
        assert_eq!(snap.tally(3), (1, 1));
        assert_eq!(snap.tally(99), (0, 0));
        // net: obj2 = +2, obj3 = 0, obj5 = −2.
        assert_eq!(snap.ranked, vec![2, 3, 5]);
        assert_eq!(snap.recommend(2), vec![2, 3]);
        assert_eq!(snap.top_scored(2), vec![(2, 2), (3, 0)]);
        assert_eq!(snap.top_scored(9), vec![(2, 2), (3, 0), (5, -2)]);
        assert_eq!(snap.majority(2), Some(true));
        assert_eq!(snap.majority(5), Some(false));
        assert_eq!(snap.majority(3), None, "tie has no majority");
        // Posts are (player, grade)-sorted regardless of arrival order.
        assert_eq!(*snap.posts[&2].entries, vec![(0, true), (1, true)]);
        assert_eq!(snap.posts[&2].likes, 2);
    }

    #[test]
    fn delta_seal_matches_full_build() {
        let b = board_with(&[(2, 1, true), (5, 0, false)]);
        let prev = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 2, 1, 1);
        // One tick's worth of posts: a touched object, a fresh object,
        // and an out-of-order player on the touched one.
        let tick_posts: &[(u32, PlayerId, bool)] = &[(2, 0, false), (7, 3, true), (2, 2, true)];
        for &(j, p, v) in tick_posts {
            b.post(j, p, v);
        }
        let full = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 3, 2, 2);
        let delta =
            BoardSnapshot::build_delta(&prev, tick_posts, LivenessEpoch::all_live(), 3, 2, 2);
        assert_eq!(delta.posts, full.posts);
        assert_eq!(delta.ranked, full.ranked);
        assert_eq!(delta.digest(), full.digest());
        // Untouched objects are shared, not copied.
        assert!(Arc::ptr_eq(
            &prev.posts[&5].entries,
            &delta.posts[&5].entries
        ));
    }

    #[test]
    fn delta_seal_with_no_posts_restamps_only_headers() {
        let b = board_with(&[(1, 0, true)]);
        let prev = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 1, 1, 1);
        let delta = BoardSnapshot::build_delta(&prev, &[], LivenessEpoch::all_live(), 1, 2, 2);
        assert_eq!(delta.posts, prev.posts);
        assert_eq!(delta.ranked, prev.ranked);
        assert_eq!((delta.epoch, delta.tick), (2, 2));
        assert!(Arc::ptr_eq(
            &prev.posts[&1].entries,
            &delta.posts[&1].entries
        ));
    }

    #[test]
    fn rank_ties_break_by_object_id() {
        let b = board_with(&[(9, 0, true), (4, 1, true)]);
        let snap = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 2, 1, 1);
        assert_eq!(snap.ranked, vec![4, 9]);
    }

    #[test]
    fn snapshots_are_immune_to_later_posts() {
        let b = board_with(&[(1, 0, true)]);
        let snap = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 1, 1, 1);
        b.post(1, 1, false);
        b.post(7, 2, true);
        assert_eq!(snap.tally(1), (1, 0), "sealed view must not move");
        assert_eq!(snap.tally(7), (0, 0));
    }

    #[test]
    fn cell_swaps_atomically() {
        let cell = SnapshotCell::new(BoardSnapshot::empty());
        let before = cell.load();
        assert_eq!(before.epoch, 0);
        let b = board_with(&[(0, 0, true)]);
        cell.store(BoardSnapshot::build(&b, LivenessEpoch::all_live(), 1, 5, 2));
        assert_eq!(cell.load().epoch, 5);
        // The old Arc is still valid for readers that grabbed it.
        assert_eq!(before.epoch, 0);
    }

    #[test]
    fn digest_is_deterministic() {
        let b = board_with(&[(1, 1, true), (1, 0, false)]);
        let s1 = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 1, 1, 1).digest();
        let s2 = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 1, 1, 1).digest();
        assert_eq!(s1, s2);
        assert!(s1.contains("obj 1: +1 -1"), "{s1}");
    }
}
