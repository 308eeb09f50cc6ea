//! Per-thread output collection for irregular parallel producers.
//!
//! Recursive traversals (WSPD construction, MemoGFK pair retrieval) emit
//! results at unpredictable points of a fork-join computation. A
//! [`Collector`] gives every rayon worker its own shard — pushes are
//! uncontended — and each shard stores its items in fixed-size *segments*
//! of `SEGMENT_LEN` items. A shard fills one segment at a time and starts
//! a new one when it is full, so no buffer ever grows by doubling: the
//! allocated capacity exceeds the item count by at most one partly filled
//! segment per shard. [`Collector::into_segments`] hands the segments over
//! as they are, without copying. The output order is nondeterministic
//! across threads; consumers that need determinism sort by a canonical key
//! afterwards (all of ours do).

use crate::unpoisoned;
use std::sync::Mutex;

/// Items per segment: 128 KiB of 16-byte frontier states or edges. Large
/// enough that a segment list stays short and a segment is a worthwhile
/// unit of parallel work, small enough that the one partly filled segment
/// per shard is negligible slack.
const SEGMENT_LEN: usize = 8192;

/// A fixed set of per-worker shards of segments.
pub struct Collector<T> {
    shards: Vec<Mutex<Shard<T>>>,
}

/// One worker's output: full segments in push order, then the open one.
struct Shard<T> {
    full: Vec<Vec<T>>,
    /// The segment being filled; unallocated until the shard's first push.
    open: Vec<T>,
}

impl<T> Shard<T> {
    #[inline]
    fn push(&mut self, value: T) {
        if self.open.len() == self.open.capacity() {
            let done = std::mem::replace(&mut self.open, Vec::with_capacity(SEGMENT_LEN));
            if !done.is_empty() {
                self.full.push(done);
            }
        }
        self.open.push(value);
    }

    fn len(&self) -> usize {
        self.full.iter().map(Vec::len).sum::<usize>() + self.open.len()
    }
}

impl<T> Default for Collector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Collector<T> {
    pub fn new() -> Self {
        // One shard per worker plus one for pushes from outside the pool.
        let shards = (0..rayon::current_num_threads() + 1)
            .map(|_| {
                Mutex::new(Shard {
                    full: Vec::new(),
                    open: Vec::new(),
                })
            })
            .collect();
        Collector { shards }
    }

    /// Shard for the calling thread. The modulo guards against being used
    /// from a pool larger than the one present at construction time.
    #[inline]
    fn shard(&self) -> &Mutex<Shard<T>> {
        let i = rayon::current_thread_index().map_or(self.shards.len() - 1, |i| i);
        &self.shards[i % self.shards.len()]
    }

    /// Append `value` to the current worker's shard.
    #[inline]
    pub fn push(&self, value: T) {
        unpoisoned(self.shard().lock()).push(value);
    }

    /// Append many values at once, taking the shard's lock once.
    pub fn extend<I: IntoIterator<Item = T>>(&self, values: I) {
        let mut shard = unpoisoned(self.shard().lock());
        for value in values {
            shard.push(value);
        }
    }

    /// Total number of collected items.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| unpoisoned(s.lock()).len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The collected segments (must be called after producers finish),
    /// moved out without copying. No segment is empty. Shard by shard, each
    /// shard's segments come in push order, so the items one thread pushed
    /// appear in the order it pushed them.
    pub fn into_segments(self) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        for shard in self.shards {
            let Shard { full, open } = unpoisoned(shard.into_inner());
            out.extend(full);
            if !open.is_empty() {
                out.push(open);
            }
        }
        out
    }

    /// All items in one contiguous vector, in [`Collector::into_segments`]
    /// order. This copies every item once; consumers that can work
    /// segment by segment use `into_segments` instead.
    pub fn into_vec(self) -> Vec<T> {
        let segments = self.into_segments();
        let mut out = Vec::with_capacity(segments.iter().map(Vec::len).sum());
        for segment in segments {
            out.extend(segment);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn collects_everything() {
        let c: Collector<u64> = Collector::new();
        (0..100_000u64).into_par_iter().for_each(|i| c.push(i));
        assert_eq!(c.len(), 100_000);
        let mut out = c.into_vec();
        out.sort_unstable();
        assert_eq!(out, (0..100_000).collect::<Vec<_>>());
    }

    /// One thread's pushes allocate at most one segment beyond what they
    /// fill: no doubling slack, whether they come one by one or in bulk.
    #[test]
    fn segment_capacity_bounded_by_pushes() {
        let s = SEGMENT_LEN;
        for n in [0, 1, s - 1, s, s + 1, 5 * s + 7] {
            let one = Collector::new();
            (0..n).for_each(|i| one.push(i));
            let bulk = Collector::new();
            bulk.extend(0..n);
            for c in [one, bulk] {
                assert_eq!(c.len(), n);
                let segs = c.into_segments();
                let cap: usize = segs.iter().map(Vec::capacity).sum();
                assert!(cap <= n + s, "{n} pushes hold {cap} slots");
                assert!(segs.iter().all(|seg| !seg.is_empty()));
                assert_eq!(segs.len(), n.div_ceil(s));
            }
        }
    }

    /// Segments are handed over in push order: one thread's pushes read
    /// back as pushed, every segment but the last one full.
    #[test]
    fn into_segments_keeps_one_threads_push_order() {
        let n = 3 * SEGMENT_LEN + 100;
        let c = Collector::new();
        (0..n as u32).for_each(|i| c.push(i));
        let segs = c.into_segments();
        let (last, rest) = segs.split_last().expect("segments");
        assert!(rest.iter().all(|seg| seg.len() == SEGMENT_LEN));
        assert_eq!(last.len(), 100);
        let flat: Vec<u32> = segs.into_iter().flatten().collect();
        assert_eq!(flat, (0..n as u32).collect::<Vec<_>>());
    }

    /// Sharding stays sound when pushes come from more ad-hoc OS threads
    /// than the pool has workers: outside-pool threads have no worker index
    /// (they share the overflow shard) and nothing is lost or duplicated,
    /// across segment boundaries too. Each ad-hoc thread's values keep
    /// their push order.
    #[test]
    fn adhoc_threads_exceeding_pool_width() {
        const PER_THREAD: u64 = 3_000;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        let c: Collector<u64> = pool.install(Collector::new);
        assert_eq!(c.shards.len(), 2 + 1, "sized by the installing pool");
        let adhoc = 8 * PER_THREAD;
        let total = adhoc + 12_000;
        std::thread::scope(|s| {
            // 8 ad-hoc threads (4x the pool width) plus the pool itself.
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.push(t * PER_THREAD + i);
                    }
                });
            }
            pool.install(|| {
                (adhoc..total).into_par_iter().for_each(|i| c.push(i));
            });
        });
        let segs = c.into_segments();
        assert!(segs.len() > 3, "the overflow shard spans several segments");
        let flat: Vec<u64> = segs.into_iter().flatten().collect();
        for t in 0..8u64 {
            let mine: Vec<u64> = flat
                .iter()
                .copied()
                .filter(|&x| x / PER_THREAD == t && x < adhoc)
                .collect();
            assert_eq!(
                mine,
                (t * PER_THREAD..(t + 1) * PER_THREAD).collect::<Vec<_>>()
            );
        }
        let mut out = flat;
        out.sort_unstable();
        assert_eq!(out, (0..total).collect::<Vec<_>>());
    }

    /// A collector built inside a *small* pool but fed from a *larger* one:
    /// worker indices exceed the shard count and must wrap, not panic.
    #[test]
    fn pushes_from_wider_pool_than_construction() {
        let small = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        let wide = rayon::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .expect("pool");
        let c: Collector<u32> = small.install(Collector::new);
        wide.install(|| {
            (0..50_000u32).into_par_iter().for_each(|i| c.push(i));
        });
        assert_eq!(c.len(), 50_000);
        let mut out = c.into_vec();
        out.sort_unstable();
        assert_eq!(out, (0..50_000).collect::<Vec<_>>());
    }

    #[test]
    fn push_outside_pool() {
        let c: Collector<u32> = Collector::new();
        c.push(1);
        c.extend([2, 3]);
        let mut out = c.into_vec();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }
}
