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
//!
//! Layout: the posted objects live in a [`PostTable`] of shared,
//! immutable pages of 2^[`PAGE_BITS`] object ids, each with its own
//! rank list. A seal rebuilds only the pages its posts touch and then
//! merges every page's rank list into a short [`HEAD_LEN`] head, so
//! sealing — and dropping the snapshot it replaces — costs the touched
//! pages plus one pass over the page index, not a copy of the board.

use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::sync::Arc;
use tmwia_billboard::{Billboard, LivenessEpoch, PlayerId};
use tmwia_obs::{Event, Registry as ObsRegistry};

/// Objects per page, as a shift: object `j` lives on page
/// `j >> PAGE_BITS`. A seal copies whole pages, so this trades the
/// per-seal page-index walk (m / 2^PAGE_BITS pages) against the copy
/// of each touched page (2^PAGE_BITS cells).
pub const PAGE_BITS: u32 = 5;

/// Length of the rank head every seal precomputes. At least the
/// default `recommend_cap` (32), so capped recommendations are a
/// prefix copy; longer ones continue the same merge.
pub const HEAD_LEN: usize = 64;

/// One object's sealed post list. The entries live behind an `Arc` so
/// a seal can carry every *untouched* object into the next snapshot
/// with a refcount bump instead of a clone, and the like count is
/// stored so re-ranking never rescans entry lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostCell {
    /// Visible posts for this object, sorted by `(player, grade)` —
    /// deterministic regardless of post arrival order.
    pub entries: Arc<Vec<(PlayerId, bool)>>,
    /// How many of `entries` are likes (grade `true`).
    pub likes: u32,
}

impl PostCell {
    /// `prior` plus `fresh` (one object's new posts, sorted by
    /// `(player, grade)`), merged in order: the existing entry list is
    /// never re-sorted.
    fn merged(prior: Option<&PostCell>, fresh: &[(u32, PlayerId, bool)]) -> Self {
        let old: &[(PlayerId, bool)] = prior.map_or(&[], |cell| &cell.entries);
        let mut entries = Vec::with_capacity(old.len() + fresh.len());
        let mut old = old.iter().copied().peekable();
        for &(_, p, v) in fresh {
            while let Some(e) = old.next_if(|&e| e <= (p, v)) {
                entries.push(e);
            }
            entries.push((p, v));
        }
        entries.extend(old);
        let likes = prior.map_or(0, |cell| cell.likes)
            + fresh.iter().filter(|&&(_, _, v)| v).count() as u32;
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

/// Recommendation order as an ascending key: net likes descending,
/// object id ascending on ties.
type RankKey = (i64, u32);

/// One page of the post table: the posted objects of one
/// `j >> PAGE_BITS` range. Immutable once sealed; a seal that touches
/// the page builds a new one and every other page is shared.
#[derive(Debug)]
pub struct Page {
    /// Posted objects of this page, in object order.
    cells: Vec<(u32, PostCell)>,
    /// The same objects in recommendation order.
    rank: Vec<RankKey>,
}

impl Page {
    /// `prior` plus `fresh` (this page's new posts, sorted by
    /// `(object, player, grade)`). Returns the page and how many of its
    /// objects are new.
    fn merged(prior: Option<&Page>, fresh: &[(u32, PlayerId, bool)]) -> (Page, usize) {
        let old_cells: &[(u32, PostCell)] = prior.map_or(&[], |page| &page.cells);
        let mut cells = Vec::with_capacity(old_cells.len() + fresh.len());
        let mut old = old_cells.iter().peekable();
        for group in fresh.chunk_by(|a, b| a.0 == b.0) {
            let j = group[0].0;
            while let Some(cell) = old.next_if(|(k, _)| *k < j) {
                cells.push(cell.clone());
            }
            let same = old.next_if(|(k, _)| *k == j).map(|(_, cell)| cell);
            cells.push((j, PostCell::merged(same, group)));
        }
        cells.extend(old.cloned());
        let mut rank: Vec<RankKey> = cells.iter().map(|(j, cell)| (-cell.net(), *j)).collect();
        rank.sort_unstable();
        let added = cells.len() - old_cells.len();
        (Page { cells, rank }, added)
    }
}

/// One entry of the page index.
#[derive(Debug, Clone)]
struct Slot {
    /// Page id: the page holds objects `id << PAGE_BITS ..`.
    id: u32,
    /// The page's first rank key, kept in the index so a rank merge
    /// starts without visiting every page.
    best: RankKey,
    page: Arc<Page>,
}

impl Slot {
    fn new(id: u32, page: Page) -> Slot {
        Slot {
            id,
            best: page.rank[0],
            page: Arc::new(page),
        }
    }
}

/// Every object with visible posts, as a persistent page-chunked
/// table: a sparse, page-id-ordered index of shared [`Page`]s. Cloning
/// it is one refcount bump per page, and a seal replaces only the
/// pages its posts touch.
#[derive(Debug, Clone, Default)]
pub struct PostTable {
    pages: Vec<Slot>,
    objects: usize,
}

impl PostTable {
    /// Number of posted objects.
    pub fn len(&self) -> usize {
        self.objects
    }

    /// `true` iff nothing was posted.
    pub fn is_empty(&self) -> bool {
        self.objects == 0
    }

    /// One object's cell; `None` if it was never posted.
    pub fn get(&self, object: &u32) -> Option<&PostCell> {
        let page = self.page(object >> PAGE_BITS)?;
        let at = page.cells.binary_search_by_key(object, |(j, _)| *j).ok()?;
        Some(&page.cells[at].1)
    }

    /// Every posted object and its cell, in object order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            pages: self.pages.iter(),
            cells: [].iter(),
        }
    }

    /// The page holding objects `id << PAGE_BITS ..`, if any was posted.
    pub fn page(&self, id: u32) -> Option<&Arc<Page>> {
        let at = self.pages.binary_search_by_key(&id, |slot| slot.id).ok()?;
        Some(&self.pages[at].page)
    }

    /// Every page with its id, in page order.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &Arc<Page>)> {
        self.pages.iter().map(|slot| (slot.id, &slot.page))
    }

    /// This table plus `posts`: untouched pages are shared, each
    /// touched page is rebuilt once from its old cells and its posts.
    fn with_posts(&self, posts: &[(u32, PlayerId, bool)]) -> PostTable {
        let mut fresh = posts.to_vec();
        fresh.sort_unstable();
        let mut next = self.clone();
        for group in fresh.chunk_by(|a, b| a.0 >> PAGE_BITS == b.0 >> PAGE_BITS) {
            let id = group[0].0 >> PAGE_BITS;
            match next.pages.binary_search_by_key(&id, |slot| slot.id) {
                Ok(at) => {
                    let (page, added) = Page::merged(Some(&next.pages[at].page), group);
                    next.pages[at] = Slot::new(id, page);
                    next.objects += added;
                }
                Err(at) => {
                    let (page, added) = Page::merged(None, group);
                    next.pages.insert(at, Slot::new(id, page));
                    next.objects += added;
                }
            }
        }
        next
    }

    /// The whole table in recommendation order, as `(object, net)`: a
    /// k-way merge of the pages' rank lists, O(log pages) per item.
    fn rank_merge(&self) -> RankMerge<'_> {
        let heap = self
            .pages
            .iter()
            .enumerate()
            .map(|(at, slot)| Reverse((slot.best, at, 0)))
            .collect();
        RankMerge {
            pages: &self.pages,
            heap,
        }
    }
}

impl PartialEq for PostTable {
    fn eq(&self, other: &Self) -> bool {
        self.objects == other.objects && self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a PostTable {
    type Item = (&'a u32, &'a PostCell);
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`PostTable`]'s cells in object order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    pages: std::slice::Iter<'a, Slot>,
    cells: std::slice::Iter<'a, (u32, PostCell)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a u32, &'a PostCell);
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((j, cell)) = self.cells.next() {
                return Some((j, cell));
            }
            self.cells = self.pages.next()?.page.cells.iter();
        }
    }
}

/// K-way merge of page rank lists (see [`PostTable::rank_merge`]).
struct RankMerge<'a> {
    pages: &'a [Slot],
    /// Each page's next unmerged key, with the page and its position.
    heap: BinaryHeap<Reverse<(RankKey, usize, usize)>>,
}

impl Iterator for RankMerge<'_> {
    type Item = (u32, i64);
    fn next(&mut self) -> Option<(u32, i64)> {
        let Reverse(((neg_net, j), at, pos)) = self.heap.pop()?;
        if let Some(&key) = self.pages[at].page.rank.get(pos + 1) {
            self.heap.push(Reverse((key, at, pos + 1)));
        }
        Some((j, -neg_net))
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
    pub posts: PostTable,
    /// The first [`HEAD_LEN`] objects of the recommendation order (net
    /// likes descending, object id ascending on ties) with their net
    /// scores.
    head: Vec<(u32, i64)>,
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
            posts: PostTable::default(),
            head: Vec::new(),
            liveness: LivenessEpoch::all_live(),
            live: 0,
        }
    }

    /// Seal the billboard's current visible state: every visible post
    /// delta-sealed onto [`BoardSnapshot::empty`]. Used where no
    /// previous snapshot exists (recovery restores the board first).
    pub fn build(
        board: &Billboard<u32, bool>,
        liveness: LivenessEpoch,
        live: u32,
        epoch: u64,
        tick: u64,
    ) -> Self {
        let posts: Vec<(u32, PlayerId, bool)> = board
            .visible_posts()
            .into_iter()
            .flat_map(|(j, entries)| entries.into_iter().map(move |(p, v)| (j, p, v)))
            .collect();
        Self::build_delta(&Self::empty(), &posts, liveness, live, epoch, tick)
    }

    /// Seal incrementally: the previous snapshot plus exactly this
    /// tick's posts. The new post table shares every untouched page
    /// with `prev`; each touched page is rebuilt once, merging the
    /// tick's sorted posts into its cells and re-ranking its own
    /// objects; then the pages' rank heads are merged into the
    /// snapshot's head. Work — and the later drop of `prev` — is
    /// O(touched pages), independent of the board's size except for
    /// the page-index walk.
    ///
    /// Correctness precondition (the service's seal invariant): the
    /// billboard has zero visibility lag and `prev` sealed *all* of its
    /// visible posts, so `prev + tick_posts` is the board's exact
    /// visible state at this barrier.
    pub fn build_delta(
        prev: &BoardSnapshot,
        tick_posts: &[(u32, PlayerId, bool)],
        liveness: LivenessEpoch,
        live: u32,
        epoch: u64,
        tick: u64,
    ) -> Self {
        let (posts, head) = if tick_posts.is_empty() {
            (prev.posts.clone(), prev.head.clone())
        } else {
            let posts = prev.posts.with_posts(tick_posts);
            let head = posts.rank_merge().take(HEAD_LEN).collect();
            (posts, head)
        };
        BoardSnapshot {
            epoch,
            tick,
            posts,
            head,
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

    /// Every posted object in recommendation order: net likes
    /// descending, object id ascending on ties.
    pub fn ranked(&self) -> Vec<u32> {
        self.posts.rank_merge().map(|(j, _)| j).collect()
    }

    /// The top `count` objects by net likes.
    pub fn recommend(&self, count: usize) -> Vec<u32> {
        if self.head_covers(count) {
            self.head.iter().take(count).map(|&(j, _)| j).collect()
        } else {
            self.posts
                .rank_merge()
                .take(count)
                .map(|(j, _)| j)
                .collect()
        }
    }

    /// The first `count` ranked objects with their net scores — a
    /// shard's contribution to the relay's cross-shard rank merge.
    pub fn top_scored(&self, count: usize) -> Vec<(u32, i64)> {
        if self.head_covers(count) {
            self.head.iter().take(count).copied().collect()
        } else {
            self.posts.rank_merge().take(count).collect()
        }
    }

    /// Can the first `count` ranked objects be read off the head?
    fn head_covers(&self, count: usize) -> bool {
        count <= self.head.len() || self.head.len() == self.posts.len()
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
            let (likes, dislikes) = (cell.likes, cell.entries.len() as u32 - cell.likes);
            let _ = writeln!(
                s,
                "  obj {j}: +{likes} -{dislikes} posts={}",
                cell.entries.len()
            );
        }
        let _ = writeln!(s, "  ranked: {:?}", self.ranked());
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
        assert_eq!(snap.ranked(), vec![2, 3, 5]);
        assert_eq!(snap.recommend(2), vec![2, 3]);
        assert_eq!(snap.top_scored(2), vec![(2, 2), (3, 0)]);
        assert_eq!(snap.top_scored(9), vec![(2, 2), (3, 0), (5, -2)]);
        assert_eq!(snap.majority(2), Some(true));
        assert_eq!(snap.majority(5), Some(false));
        assert_eq!(snap.majority(3), None, "tie has no majority");
        // Posts are (player, grade)-sorted regardless of arrival order.
        let cell = snap.posts.get(&2).expect("object 2 posted");
        assert_eq!(*cell.entries, vec![(0, true), (1, true)]);
        assert_eq!(cell.likes, 2);
        assert_eq!(snap.posts.get(&4), None);
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
        assert_eq!(delta.ranked(), full.ranked());
        assert_eq!(delta.digest(), full.digest());
        // Untouched objects are shared, not copied.
        assert!(Arc::ptr_eq(
            &prev.posts.get(&5).expect("posted").entries,
            &delta.posts.get(&5).expect("posted").entries
        ));
    }

    #[test]
    fn delta_seal_with_no_posts_restamps_only_headers() {
        let b = board_with(&[(1, 0, true)]);
        let prev = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 1, 1, 1);
        let delta = BoardSnapshot::build_delta(&prev, &[], LivenessEpoch::all_live(), 1, 2, 2);
        assert_eq!(delta.posts, prev.posts);
        assert_eq!(delta.ranked(), prev.ranked());
        assert_eq!((delta.epoch, delta.tick), (2, 2));
        assert!(Arc::ptr_eq(
            &prev.posts.get(&1).expect("posted").entries,
            &delta.posts.get(&1).expect("posted").entries
        ));
        for (id, page) in prev.posts.pages() {
            assert!(Arc::ptr_eq(page, delta.posts.page(id).expect("page kept")));
        }
    }

    #[test]
    fn rank_ties_break_by_object_id() {
        let b = board_with(&[(9, 0, true), (4, 1, true)]);
        let snap = BoardSnapshot::build(&b, LivenessEpoch::all_live(), 2, 1, 1);
        assert_eq!(snap.ranked(), vec![4, 9]);
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
