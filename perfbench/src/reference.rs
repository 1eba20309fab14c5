//! The reference kernel: a fixed piece of benchmark-owned work, timed
//! once per measured round, that measures how fast the host runs at
//! that moment.
//!
//! Shared hosts have slow phases lasting from seconds to minutes in
//! which the same code takes up to twice as long; consecutive runs share
//! them, so no reducer over the samples of one run removes them. The
//! kernel slows with the host but not with the program: it calls no
//! repository code. Each episode's times are scaled by
//! `REFERENCE_NS ÷ (the kernel's median time in that episode)`, which
//! reports them at one fixed host speed (see README.md § Reference
//! speed). The kernel mimics the serving tick's own shape and mix: like
//! the tick's data pass, it spawns one scoped thread per available CPU,
//! and each clones an ordered map of `Arc`-shared cells, ranks it, and
//! hashes a buffer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

/// Cells in the kernel's map.
const CELLS: u32 = 2_000;
/// Words hashed per run.
const WORDS: u64 = 2_048;
/// The kernel time that defines the reference speed; its median on a
/// 2-vCPU VM (2.1 GHz Xeon) ranged over 0.7–1.1 ms.
pub const REFERENCE_NS: f64 = 700_000.0;

pub struct Kernel {
    cells: BTreeMap<u32, Arc<Vec<(u32, bool)>>>,
    words: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut cells = BTreeMap::new();
        for i in 0..CELLS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 1 + (x % 5) as usize;
            cells.insert(
                (x % u64::from(CELLS * 4)) as u32,
                Arc::new(vec![(i, i % 3 == 0); len]),
            );
        }
        let words = (0..WORDS).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        Kernel { cells, words }
    }

    /// Run the kernel on one scoped thread per available CPU at once;
    /// the wall time from the first spawn to the last join, in
    /// nanoseconds. An untimed pass on the calling thread first brings
    /// the kernel's data back into cache, and each thread runs it twice,
    /// so the program's own cache footprint barely reaches the result,
    /// while thread start-up and wake-up, and the slower of the CPUs,
    /// do, as they do a tick's.
    pub fn run(&self) -> u64 {
        let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.once();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    self.once();
                    self.once();
                });
            }
        });
        t0.elapsed().as_nanos() as u64
    }

    fn once(&self) {
        let copy = black_box(&self.cells).clone();
        let mut ranked: Vec<(i64, u32)> = copy
            .iter()
            .map(|(&j, cell)| {
                let likes = cell.iter().filter(|e| e.1).count() as i64;
                (2 * likes - cell.len() as i64, j)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let hash = black_box(&self.words)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, &w| {
                (h ^ w).wrapping_mul(0x100_0000_01b3)
            });
        black_box((copy, ranked, hash));
    }
}
