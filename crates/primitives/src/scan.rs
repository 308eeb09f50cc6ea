//! Parallel prefix sums (scans).
//!
//! The classic blocked two-pass scan: per-block sums are computed in
//! parallel, scanned sequentially (the number of blocks is small), and the
//! block offsets are pushed back down in a second parallel pass. This is the
//! `O(n)` work, `O(log n)` depth primitive of Section 2.2.

use rayon::prelude::*;

use crate::{block_size, SEQ_CUTOFF};

/// Exclusive prefix sum of `input` under an associative `op` with `identity`.
///
/// Returns the output sequence `[id, a1, a1⊕a2, ...]` and the total
/// `a1⊕...⊕an`, matching the paper's definition of *prefix sum*.
pub fn scan_exclusive<T, F>(input: &[T], identity: T, op: F) -> (Vec<T>, T)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Send + Sync,
{
    let n = input.len();
    if n < SEQ_CUTOFF {
        let mut out = Vec::with_capacity(n);
        let mut acc = identity;
        for &x in input {
            out.push(acc);
            acc = op(acc, x);
        }
        return (out, acc);
    }

    let bs = block_size(n);

    // Pass 1: per-block totals.
    let mut block_sums: Vec<T> = input
        .par_chunks(bs)
        .map(|chunk| {
            let mut acc = chunk[0];
            for &x in &chunk[1..] {
                acc = op(acc, x);
            }
            acc
        })
        .collect();

    // Sequential scan over the (few) block totals.
    let mut acc = identity;
    for b in block_sums.iter_mut() {
        let next = op(acc, *b);
        *b = acc;
        acc = next;
    }
    let total = acc;

    // Pass 2: rescan each block seeded with its offset.
    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: capacity is `n` and pass 2 writes every index exactly once
    // (block ranges partition the input); T: Copy, nothing to drop.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n)
    };
    let out_ptr = crate::SendPtr(out.as_mut_ptr());
    input
        .par_chunks(bs)
        .zip(block_sums.par_iter())
        .enumerate()
        .for_each(|(bi, (chunk, &offset))| {
            let base = bi * bs;
            let mut acc = offset;
            for (i, &x) in chunk.iter().enumerate() {
                // SAFETY: each block writes a disjoint index range.
                unsafe { out_ptr.write(base + i, acc) };
                acc = op(acc, x);
            }
        });
    (out, total)
}

/// Exclusive prefix sum over `usize` addition — the common case used by
/// pack/split/grouping.
pub fn scan_exclusive_usize(input: &[usize]) -> (Vec<usize>, usize) {
    scan_exclusive(input, 0usize, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_small() {
        let xs = [3usize, 1, 4, 1, 5];
        let (pre, total) = scan_exclusive_usize(&xs);
        assert_eq!(pre, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn exclusive_empty() {
        let (pre, total) = scan_exclusive_usize(&[]);
        assert!(pre.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn exclusive_large_matches_sequential() {
        let xs: Vec<usize> = (0..100_000).map(|i| (i * 7919) % 13).collect();
        let (pre, total) = scan_exclusive_usize(&xs);
        let mut acc = 0usize;
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(pre[i], acc, "mismatch at {i}");
            acc += x;
        }
        assert_eq!(total, acc);
    }

    /// Adversarial sizes (0, 1, block ± 1, cutoff ± 1, huge) under a real
    /// multi-worker pool; scan results must also be identical across pool
    /// widths (usize addition is exact, so this checks chunk bookkeeping).
    #[test]
    fn scan_adversarial_sizes_under_pool() {
        let bs = crate::block_size(crate::SEQ_CUTOFF);
        let sizes = [
            0,
            1,
            bs - 1,
            bs,
            bs + 1,
            SEQ_CUTOFF - 1,
            SEQ_CUTOFF,
            SEQ_CUTOFF + 1,
            5 * bs + 3,
            500_000,
        ];
        let reference: Vec<(Vec<usize>, usize)> = sizes
            .iter()
            .map(|&n| {
                let xs: Vec<usize> = (0..n).map(|i| (i * 7919) % 31).collect();
                let mut out = Vec::with_capacity(n);
                let mut acc = 0usize;
                for &x in &xs {
                    out.push(acc);
                    acc += x;
                }
                (out, acc)
            })
            .collect();
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                for (&n, want) in sizes.iter().zip(&reference) {
                    let xs: Vec<usize> = (0..n).map(|i| (i * 7919) % 31).collect();
                    let (pre, total) = scan_exclusive_usize(&xs);
                    assert_eq!(pre, want.0, "scan mismatch at n={n}, {threads} threads");
                    assert_eq!(total, want.1, "total mismatch at n={n}, {threads} threads");
                }
            });
        }
    }

    #[test]
    fn scan_with_max_operator() {
        let xs: Vec<u32> = vec![2, 9, 4, 7, 1, 9, 11, 0];
        let (pre, total) = scan_exclusive(&xs, 0u32, |a, b| a.max(b));
        assert_eq!(pre, vec![0, 2, 9, 9, 9, 9, 9, 11]);
        assert_eq!(total, 11);
    }
}
