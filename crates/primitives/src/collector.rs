//! Per-thread output collection for irregular parallel producers.
//!
//! Recursive traversals (WSPD construction, MemoGFK pair retrieval) emit
//! results at unpredictable points of a fork-join computation. A
//! [`Collector`] gives every rayon worker its own buffer — pushes are
//! uncontended — and concatenates the buffers at the end. The output order
//! is nondeterministic across threads; consumers that need determinism sort
//! by a canonical key afterwards (all of ours do).

use parking_lot::Mutex;

/// A fixed set of per-worker buffers.
pub struct Collector<T> {
    shards: Vec<Mutex<Vec<T>>>,
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
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        Collector { shards }
    }

    /// Shard for the calling thread. The modulo guards against being used
    /// from a pool larger than the one present at construction time.
    #[inline]
    fn shard(&self) -> &Mutex<Vec<T>> {
        let i = rayon::current_thread_index().map_or(self.shards.len() - 1, |i| i);
        &self.shards[i % self.shards.len()]
    }

    /// Append `value` to the current worker's buffer.
    #[inline]
    pub fn push(&self, value: T) {
        self.shard().lock().push(value);
    }

    /// Append many values at once.
    pub fn extend<I: IntoIterator<Item = T>>(&self, values: I) {
        self.shard().lock().extend(values);
    }

    /// Total number of collected items.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Concatenate all buffers (must be called after producers finish).
    /// The largest buffer becomes the output, so only the others are
    /// copied.
    pub fn into_vec(self) -> Vec<T> {
        let mut bufs: Vec<Vec<T>> = self.shards.into_iter().map(Mutex::into_inner).collect();
        let largest = (0..bufs.len())
            .max_by_key(|&i| bufs[i].len())
            .expect("a collector has at least one shard");
        let mut out = bufs.swap_remove(largest);
        out.reserve_exact(bufs.iter().map(Vec::len).sum());
        for buf in bufs {
            out.extend(buf);
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

    /// Sharding stays sound when pushes come from more ad-hoc OS threads
    /// than the pool has workers: outside-pool threads have no worker index
    /// (they share the overflow shard) and nothing is lost or duplicated.
    #[test]
    fn adhoc_threads_exceeding_pool_width() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("pool");
        let c: Collector<u64> = pool.install(Collector::new);
        assert_eq!(c.shards.len(), 2 + 1, "sized by the installing pool");
        std::thread::scope(|s| {
            // 8 ad-hoc threads (4x the pool width) plus the pool itself.
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..1_000 {
                        c.push(t * 1_000 + i);
                    }
                });
            }
            pool.install(|| {
                (8_000..20_000u64).into_par_iter().for_each(|i| c.push(i));
            });
        });
        let mut out = c.into_vec();
        out.sort_unstable();
        assert_eq!(out, (0..20_000).collect::<Vec<_>>());
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
