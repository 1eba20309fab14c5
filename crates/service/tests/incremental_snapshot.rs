//! The incremental seal's contract, end to end: chaining
//! [`BoardSnapshot::build_delta`] epoch after epoch stays equal to the
//! naive seal (every entry list sorted, the whole board sorted into
//! recommendation order) and byte-equal to a full
//! [`BoardSnapshot::build`] of the same board; a seal rebuilds only the
//! pages its posts touch, at any board size; empty ticks leave the
//! previous sealed snapshot in place (same `Arc`, not a copy); and
//! seals replayed from the WAL during recovery reproduce the pre-crash
//! snapshot exactly.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tmwia_billboard::{Billboard, LivenessEpoch, PlayerId};
use tmwia_model::generators::planted_community;
use tmwia_model::rng::{derive, splitmix64};
use tmwia_service::snapshot::{HEAD_LEN, PAGE_BITS};
use tmwia_service::wal::fnv64;
use tmwia_service::{BoardSnapshot, Durability, RecoverOptions, Request, Service, ServiceConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let id = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tmwia-isnap-{}-{id}", std::process::id()))
}

/// Seeded post stream for epoch `e` over `objects` objects: a mix of
/// repeat posters on hot objects and fresh objects, some epochs empty.
fn tick_posts(seed: u64, e: u64, objects: u64) -> Vec<(u32, PlayerId, bool)> {
    if e % 7 == 3 {
        return Vec::new(); // an empty tick mid-stream
    }
    let count = 1 + (splitmix64(derive(seed, 0x4953_4E50, e)) % 12);
    (0..count)
        .map(|i| {
            let r = splitmix64(derive(seed, 0x4953_4E50, (e << 16) | i));
            (
                (r % objects) as u32,
                ((r >> 24) % 16) as PlayerId,
                r & 1 == 1,
            )
        })
        .collect()
}

/// One object as the naive seal sees it: id, sorted entries, likes.
type Cell = (u32, Vec<(PlayerId, bool)>, u32);

/// The naive seal of a board: each object's entries sorted, its like
/// count, and every object fully sorted by net likes descending, object
/// id ascending on ties.
struct Naive {
    cells: Vec<Cell>,
    ranked: Vec<(u32, i64)>,
}

impl Naive {
    fn of(board: &Billboard<u32, bool>) -> Naive {
        let cells: Vec<Cell> = board
            .visible_posts()
            .into_iter()
            .map(|(j, mut entries)| {
                entries.sort_unstable();
                let likes = entries.iter().filter(|&&(_, v)| v).count() as u32;
                (j, entries, likes)
            })
            .collect();
        let mut scored: Vec<(i64, u32)> = cells
            .iter()
            .map(|(j, entries, likes)| (2 * i64::from(*likes) - entries.len() as i64, *j))
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let ranked = scored.into_iter().map(|(net, j)| (j, net)).collect();
        Naive { cells, ranked }
    }

    /// [`BoardSnapshot::digest`]'s format, rendered from the naive seal.
    fn digest(&self, epoch: u64, tick: u64, live: u32) -> String {
        let mut s = String::new();
        let objects = self.cells.len();
        let _ = writeln!(
            s,
            "snapshot epoch={epoch} tick={tick} live={live} objects={objects}"
        );
        for (j, entries, likes) in &self.cells {
            let dislikes = entries.len() as u32 - likes;
            let _ = writeln!(s, "  obj {j}: +{likes} -{dislikes} posts={}", entries.len());
        }
        let ranked: Vec<u32> = self.ranked.iter().map(|&(j, _)| j).collect();
        let _ = writeln!(s, "  ranked: {ranked:?}");
        s
    }

    /// Assert that `snap` serves exactly this board.
    fn check(&self, snap: &BoardSnapshot, what: &str) {
        let cells: Vec<Cell> = snap
            .posts
            .iter()
            .map(|(&j, cell)| (j, (*cell.entries).clone(), cell.likes))
            .collect();
        assert_eq!(cells, self.cells, "cells diverged {what}");
        assert_eq!(snap.posts.len(), self.cells.len(), "object count {what}");
        let objects: Vec<u32> = self.ranked.iter().map(|&(j, _)| j).collect();
        assert_eq!(snap.ranked(), objects, "ranking diverged {what}");
        assert_eq!(
            snap.digest(),
            self.digest(snap.epoch, snap.tick, snap.live),
            "digest diverged {what}"
        );
        let all = objects.len();
        for count in [
            0,
            1,
            31,
            32,
            HEAD_LEN - 1,
            HEAD_LEN,
            HEAD_LEN + 1,
            all,
            all + 7,
        ] {
            let want = count.min(all);
            assert_eq!(
                snap.recommend(count),
                objects[..want],
                "recommend({count}) {what}"
            );
            assert_eq!(
                snap.top_scored(count),
                self.ranked[..want],
                "top_scored({count}) {what}"
            );
        }
        for &(j, ref entries, likes) in &self.cells {
            assert_eq!(
                snap.tally(j),
                (likes, entries.len() as u32 - likes),
                "tally {what}"
            );
        }
    }
}

/// Chain delta seals over `epochs` ticks of the `objects`-object post
/// stream, checking every seal against the naive seal and a full build
/// (the restore path) of the same board.
fn chain_against_naive(seed: u64, epochs: u64, objects: u64) -> BoardSnapshot {
    let board: Billboard<u32, bool> = Billboard::new();
    let mut prev = BoardSnapshot::empty();
    for e in 1..=epochs {
        let posts = tick_posts(seed, e, objects);
        board.post_batch(posts.clone());
        let live = 16 + (e % 5) as u32; // the live count may drift between epochs
        let full = BoardSnapshot::build(&board, LivenessEpoch::all_live(), live, e, e);
        let delta =
            BoardSnapshot::build_delta(&prev, &posts, LivenessEpoch::all_live(), live, e, e);
        let naive = Naive::of(&board);
        naive.check(&delta, &format!("(delta) at epoch {e}"));
        naive.check(&full, &format!("(full build) at epoch {e}"));
        assert_eq!(delta.posts, full.posts, "posts diverged at epoch {e}");
        assert_eq!(
            delta.digest(),
            full.digest(),
            "digest diverged at epoch {e}"
        );
        // Untouched objects must be shared with the previous seal, not
        // rebuilt (an empty tick touches none) — that is the whole
        // point of the delta.
        let touched: BTreeSet<u32> = posts.iter().map(|&(j, _, _)| j).collect();
        for (j, cell) in &prev.posts {
            if !touched.contains(j) {
                let now = delta.posts.get(j).expect("objects are never dropped");
                assert!(
                    Arc::ptr_eq(&cell.entries, &now.entries),
                    "delta copied untouched object {j} at epoch {e}"
                );
            }
        }
        prev = delta;
    }
    prev
}

#[test]
fn chained_delta_seals_match_full_builds_over_many_epochs() {
    chain_against_naive(42, 64, 24);
}

#[test]
fn chained_delta_seals_match_the_naive_seal_past_the_head() {
    // Enough objects, over enough pages, that recommendations longer
    // than the precomputed head continue the merge past it.
    let last = chain_against_naive(43, 160, 2_000);
    assert!(
        last.posts.len() > 2 * HEAD_LEN,
        "the board must outgrow the head"
    );
    assert!(
        last.posts.pages().count() > 8,
        "the board must span many pages"
    );
}

/// Seal `ticks` ticks of `per_tick` posts each onto a board of `m`
/// objects that already holds one post on every object, and check that
/// each seal shares every untouched page with its predecessor and
/// builds at most one new page per touched object.
fn seal_touches_only_its_pages(m: u32, per_tick: u64, ticks: u64) {
    let base: Vec<(u32, PlayerId, bool)> = (0..m).map(|j| (j, 0, j % 3 == 0)).collect();
    let mut prev = BoardSnapshot::build_delta(
        &BoardSnapshot::empty(),
        &base,
        LivenessEpoch::all_live(),
        1,
        1,
        1,
    );
    assert_eq!(prev.posts.len(), m as usize);
    for t in 0..ticks {
        let posts: Vec<(u32, PlayerId, bool)> = (0..per_tick)
            .map(|i| {
                let r = splitmix64(derive(9, u64::from(m), (t << 16) | i));
                (
                    (r % u64::from(m)) as u32,
                    1 + (r >> 32) as PlayerId % 64,
                    r & 1 == 1,
                )
            })
            .collect();
        let e = t + 2;
        let next = BoardSnapshot::build_delta(&prev, &posts, LivenessEpoch::all_live(), 1, e, e);
        let touched: BTreeSet<u32> = posts.iter().map(|&(j, _, _)| j >> PAGE_BITS).collect();
        let objects: BTreeSet<u32> = posts.iter().map(|&(j, _, _)| j).collect();
        let mut rebuilt = 0;
        for (id, page) in next.posts.pages() {
            let old = prev.posts.page(id).expect("every page already exists");
            if !Arc::ptr_eq(page, old) {
                assert!(
                    touched.contains(&id),
                    "m={m}: untouched page {id} was rebuilt"
                );
                rebuilt += 1;
            }
        }
        assert!(
            rebuilt <= objects.len(),
            "m={m}: {rebuilt} new pages for {} objects",
            objects.len()
        );
        assert_eq!(next.posts.pages().count(), prev.posts.pages().count());
        prev = next;
    }
}

#[test]
fn a_seal_rebuilds_only_the_pages_it_touches_at_any_board_size() {
    // Equal posts per tick on boards 100× apart: the pages a seal
    // builds depend on the posts alone, not on m.
    seal_touches_only_its_pages(1_000, 24, 16);
    seal_touches_only_its_pages(100_000, 24, 16);
}

/// Build a small service and submit a fixed write script, ticking
/// every `batch` requests. Returns the service.
fn driven_service(wal_dir: Option<&PathBuf>) -> Arc<Service> {
    let inst = planted_community(32, 32, 16, 4, 7);
    let cfg = ServiceConfig {
        batch_size: 8,
        queue_capacity: 64,
        seed: 21,
        ..ServiceConfig::default()
    };
    let svc = match wal_dir {
        None => Arc::new(Service::new(inst.truth, cfg).expect("valid config")),
        Some(dir) => {
            let (svc, _) = Service::recover(
                inst.truth,
                cfg,
                &Durability {
                    dir: dir.clone(),
                    snapshot_every: 0, // log only: recovery replays every tick
                },
                RecoverOptions {
                    use_snapshot: false,
                    capture: false,
                },
            )
            .expect("durable service");
            Arc::new(svc)
        }
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let mut id = 0u64;
    for _ in 0..8 {
        svc.submit(id, Request::Join, &tx);
        id += 1;
    }
    svc.tick();
    for round in 0u64..5 {
        for s in 1..=8u64 {
            svc.submit(
                id,
                Request::Probe {
                    session: s,
                    object: ((s * 3 + round) % 32) as u32,
                    share: true,
                },
                &tx,
            );
            id += 1;
        }
        svc.tick();
    }
    while svc.queue_len() > 0 {
        svc.tick();
    }
    drop(rx);
    svc
}

#[test]
fn empty_ticks_leave_the_sealed_snapshot_in_place() {
    let svc = driven_service(None);
    let before = svc.snapshot();
    let report = svc.tick();
    assert_eq!(report.sealed_epoch, None, "an empty tick seals nothing");
    let after = svc.snapshot();
    assert!(
        Arc::ptr_eq(&before, &after),
        "empty tick must not replace the sealed snapshot"
    );
}

#[test]
fn recovery_replays_to_the_same_sealed_snapshot() {
    let dir = scratch_dir();
    let original = driven_service(Some(&dir));
    let want_digest = original.snapshot().digest();
    let want_state = fnv64(original.state_digest().as_bytes());
    drop(original);

    // Recover from the log alone; the replayed ticks run through the
    // same (delta-sealing) tick path.
    let inst = planted_community(32, 32, 16, 4, 7);
    let (recovered, report) = Service::recover(
        inst.truth,
        ServiceConfig {
            batch_size: 8,
            queue_capacity: 64,
            seed: 21,
            ..ServiceConfig::default()
        },
        &Durability {
            dir: dir.clone(),
            snapshot_every: 0,
        },
        RecoverOptions {
            use_snapshot: false,
            capture: false,
        },
    )
    .expect("recovery succeeds");
    assert!(report.replayed_ticks > 0, "the log must not be empty");
    assert_eq!(
        recovered.snapshot().digest(),
        want_digest,
        "replayed seals must reproduce the pre-crash snapshot"
    );
    assert_eq!(
        fnv64(recovered.state_digest().as_bytes()),
        want_state,
        "replayed state must match the pre-crash state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The durable run's log, sealed snapshot and state, pinned to the
/// values the earlier two-mode service produced in both of its modes.
#[test]
fn durable_seal_matches_its_pinned_wal_bytes() {
    let dir = scratch_dir();
    let svc = driven_service(Some(&dir));
    let wal = std::fs::read(dir.join("ticks.wal")).expect("wal file");
    assert_eq!((wal.len(), fnv64(&wal)), (1692, 0x92e1_9094_9939_c105));
    assert_eq!(
        fnv64(svc.snapshot().digest().as_bytes()),
        0x96c4_4eac_a2cf_08f0
    );
    assert_eq!(fnv64(svc.state_digest().as_bytes()), 0x165f_a7af_8207_9c1f);
    std::fs::remove_dir_all(&dir).ok();
}
