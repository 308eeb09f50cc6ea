//! Parallel pack (filter) and split.
//!
//! `pack` keeps the elements satisfying a predicate, in order; `split` moves
//! all "true" elements before all "false" elements, stably. Both are the
//! scan-based primitives from Section 2.2 of the paper.

use rayon::prelude::*;

use crate::scan::scan_exclusive_usize;
use crate::{block_size, SendPtr, SEQ_CUTOFF};

/// Parallel filter: returns the elements `x` of `items` with `f(x)` true, in
/// their original order.
pub fn pack<T, F>(items: &[T], f: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    let n = items.len();
    if n < SEQ_CUTOFF {
        return items.iter().filter(|x| f(x)).copied().collect();
    }
    let bs = block_size(n);
    let counts: Vec<usize> = items
        .par_chunks(bs)
        .map(|chunk| chunk.iter().filter(|x| f(x)).count())
        .collect();
    let (offsets, total) = scan_exclusive_usize(&counts);

    let mut out: Vec<T> = Vec::with_capacity(total);
    // SAFETY: capacity is `total` and the scatter below writes every index
    // exactly once (offsets partition [0, total)); T: Copy, so the
    // uninitialized gap holds no drop obligations in between.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(total)
    };
    let out_ptr = SendPtr(out.as_mut_ptr());
    items
        .par_chunks(bs)
        .zip(offsets.par_iter())
        .for_each(|(chunk, &off)| {
            let mut pos = off;
            for x in chunk {
                if f(x) {
                    // SAFETY: blocks write disjoint ranges [off, off+count).
                    unsafe { out_ptr.write(pos, *x) };
                    pos += 1;
                }
            }
        });
    out
}

/// Parallel stable split: returns a vector with all "true" elements first
/// (in order), then all "false" elements (in order), plus the number of
/// "true" elements. This is the `SPLIT` primitive used by Algorithm 2.
pub fn split<T, F>(items: &[T], f: F) -> (Vec<T>, usize)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Send + Sync,
{
    let n = items.len();
    if n < SEQ_CUTOFF {
        let mut trues: Vec<T> = Vec::new();
        let mut falses: Vec<T> = Vec::new();
        for x in items {
            if f(x) {
                trues.push(*x);
            } else {
                falses.push(*x);
            }
        }
        let ntrue = trues.len();
        trues.extend_from_slice(&falses);
        return (trues, ntrue);
    }
    let bs = block_size(n);
    let counts: Vec<usize> = items
        .par_chunks(bs)
        .map(|chunk| chunk.iter().filter(|x| f(x)).count())
        .collect();
    let (true_offsets, ntrue) = scan_exclusive_usize(&counts);
    let false_counts: Vec<usize> = items
        .par_chunks(bs)
        .zip(counts.par_iter())
        .map(|(chunk, &c)| chunk.len() - c)
        .collect();
    let (false_offsets, _) = scan_exclusive_usize(&false_counts);

    let mut out: Vec<T> = Vec::with_capacity(n);
    // SAFETY: capacity is `n`; the true/false offset scans partition
    // [0, n) and each index is written exactly once below. T: Copy.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n)
    };
    let out_ptr = SendPtr(out.as_mut_ptr());
    items.par_chunks(bs).enumerate().for_each(|(b, chunk)| {
        let mut tpos = true_offsets[b];
        let mut fpos = ntrue + false_offsets[b];
        for x in chunk {
            if f(x) {
                // SAFETY: each block writes the disjoint true-range
                // [true_offsets[b], true_offsets[b] + count_b).
                unsafe { out_ptr.write(tpos, *x) };
                tpos += 1;
            } else {
                // SAFETY: false destinations live past `ntrue`, disjoint
                // from every true range and between blocks.
                unsafe { out_ptr.write(fpos, *x) };
                fpos += 1;
            }
        }
    });
    (out, ntrue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_small() {
        let xs = [1, 2, 3, 4, 5, 6];
        assert_eq!(pack(&xs, |&x| x % 2 == 0), vec![2, 4, 6]);
    }

    #[test]
    fn pack_empty_and_none_match() {
        assert_eq!(pack::<i32, _>(&[], |_| true), Vec::<i32>::new());
        assert_eq!(pack(&[1, 3, 5], |&x| x % 2 == 0), Vec::<i32>::new());
    }

    #[test]
    fn pack_large_matches_sequential() {
        let xs: Vec<u64> = (0..120_000).map(|i| (i * 2654435761) % 1000).collect();
        let got = pack(&xs, |&x| x < 250);
        let want: Vec<u64> = xs.iter().copied().filter(|&x| x < 250).collect();
        assert_eq!(got, want);
    }

    /// Adversarial sizes around every boundary (empty, singleton, the
    /// sequential cutoff, block-size multiples ± 1, and a large input),
    /// driven through a real multi-worker pool.
    #[test]
    fn pack_adversarial_sizes_under_pool() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        pool.install(|| {
            let bs = crate::block_size(crate::SEQ_CUTOFF);
            let sizes = [
                0,
                1,
                2,
                bs - 1,
                bs,
                bs + 1,
                crate::SEQ_CUTOFF - 1,
                crate::SEQ_CUTOFF,
                crate::SEQ_CUTOFF + 1,
                7 * bs - 1,
                7 * bs,
                7 * bs + 1,
                600_000,
            ];
            for n in sizes {
                let xs: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 97).collect();
                let got = pack(&xs, |&x| x % 3 == 0);
                let want: Vec<u64> = xs.iter().copied().filter(|&x| x % 3 == 0).collect();
                assert_eq!(got, want, "pack mismatch at n={n}");

                let (out, ntrue) = split(&xs, |&x| x & 1 == 0);
                let want_t: Vec<u64> = xs.iter().copied().filter(|&x| x & 1 == 0).collect();
                let want_f: Vec<u64> = xs.iter().copied().filter(|&x| x & 1 == 1).collect();
                assert_eq!(ntrue, want_t.len(), "split count mismatch at n={n}");
                assert_eq!(&out[..ntrue], &want_t[..], "split trues mismatch at n={n}");
                assert_eq!(&out[ntrue..], &want_f[..], "split falses mismatch at n={n}");
            }
        });
    }

    #[test]
    fn split_small_stable() {
        let xs = [5, 2, 7, 1, 8, 3];
        let (out, ntrue) = split(&xs, |&x| x >= 5);
        assert_eq!(ntrue, 3);
        assert_eq!(out, vec![5, 7, 8, 2, 1, 3]);
    }

    #[test]
    fn split_large_matches_sequential() {
        let xs: Vec<u32> = (0..90_000)
            .map(|i| (i as u32).wrapping_mul(48271) % 100)
            .collect();
        let (out, ntrue) = split(&xs, |&x| x & 1 == 0);
        let want_true: Vec<u32> = xs.iter().copied().filter(|&x| x & 1 == 0).collect();
        let want_false: Vec<u32> = xs.iter().copied().filter(|&x| x & 1 == 1).collect();
        assert_eq!(ntrue, want_true.len());
        assert_eq!(&out[..ntrue], &want_true[..]);
        assert_eq!(&out[ntrue..], &want_false[..]);
    }

    #[test]
    fn split_all_true_all_false() {
        let xs = [1, 2, 3];
        let (out, ntrue) = split(&xs, |_| true);
        assert_eq!((out.as_slice(), ntrue), (&[1, 2, 3][..], 3));
        let (out, ntrue) = split(&xs, |_| false);
        assert_eq!((out.as_slice(), ntrue), (&[1, 2, 3][..], 0));
    }
}
