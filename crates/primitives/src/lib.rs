//! Parallel and concurrent primitives substrate.
//!
//! This crate provides the building blocks assumed by the paper's algorithms
//! (Section 2.2, "Parallel Primitives"): prefix sum, filter/pack, split,
//! parallel selection, the `WRITE_MIN` priority concurrent write, and
//! union-find, plus the unweighted tree distances the dendrogram needs.
//!
//! All primitives are implemented on top of [`rayon`]'s work-stealing
//! fork-join runtime, the Rust analogue of the Cilk runtime used by the
//! paper. Each primitive falls back to a sequential implementation below a
//! grain size so that small inputs pay no parallel overhead.

pub mod atomic;
pub mod collector;
pub mod euler;
pub mod hash;
pub mod pack;
pub mod scan;
pub mod select;
pub mod unionfind;

/// Inputs smaller than this are processed sequentially by the parallel
/// primitives; the value balances rayon task overhead against parallelism
/// for typical point-set sizes.
pub const SEQ_CUTOFF: usize = 8192;

/// Chunk size used by blocked two-pass primitives (scan, pack, split).
#[inline]
pub(crate) fn block_size(n: usize) -> usize {
    // Fixed fan-out, deliberately independent of the worker count: chunk
    // boundaries are part of each primitive's deterministic output contract
    // across thread counts. 256 blocks keep every realistic pool busy, and
    // blocks of at least 2048 elements keep the sequential pass dominant.
    (n / 256).max(2048)
}

/// A raw pointer wrapper that lets disjoint-index writes cross rayon task
/// boundaries. Callers must guarantee that concurrent tasks write disjoint
/// indices.
#[derive(Clone, Copy)]
pub struct SendPtr<T>(pub *mut T);
// SAFETY: users uphold the disjoint-index contract documented above, so
// sending the pointer to another task cannot create aliased writes.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: same contract — shared copies only ever write disjoint indices.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// `idx` must be in bounds for the allocation and no other task may
    /// access the same index concurrently.
    #[inline]
    pub unsafe fn write(self, idx: usize, value: T) {
        // SAFETY: bounds and disjointness guaranteed by the caller.
        unsafe { self.0.add(idx).write(value) };
    }
}
