//! Priority concurrent writes (`WRITE_MIN`).
//!
//! The paper assumes a priority concurrent write that, under concurrent
//! writers, keeps the smallest value (Section 2.2, citing Shun et al.
//! [57]). We implement it as a compare-and-swap loop over the IEEE-754 bit
//! pattern; comparisons are performed on the `f64` values so the primitive
//! is correct for negative inputs as well.

use crate::unpoisoned;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An `f64` cell supporting `write_min`: concurrent writers race and the
/// minimum value wins. Initialized to `+inf`.
#[derive(Debug)]
pub struct AtomicF64Min(AtomicU64);

impl Default for AtomicF64Min {
    fn default() -> Self {
        Self::new(f64::INFINITY)
    }
}

impl AtomicF64Min {
    pub fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    /// `WRITE_MIN`: atomically replace the stored value with `v` if `v` is
    /// smaller. Returns `true` if this call lowered the stored value.
    #[inline]
    pub fn write_min(&self, v: f64) -> bool {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) <= v {
                return false;
            }
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Unconditional store; only safe to use outside concurrent phases.
    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// `WRITE_MIN` with an attached payload: keeps the payload of the smallest
/// key seen. A lock-free fast path rejects keys that cannot win before
/// falling back to a mutex for the update, so the common (losing) writer
/// never contends.
#[derive(Debug)]
pub struct AtomicMinPair<T> {
    key: AtomicF64Min,
    slot: Mutex<(f64, Option<T>)>,
}

impl<T> Default for AtomicMinPair<T> {
    fn default() -> Self {
        Self {
            key: AtomicF64Min::default(),
            slot: Mutex::new((f64::INFINITY, None)),
        }
    }
}

impl<T: Clone> AtomicMinPair<T> {
    /// Record `(key, payload)` if `key` is strictly smaller than the best
    /// key seen so far.
    pub fn write_min(&self, key: f64, payload: T) {
        // Fast reject: the racy read only ever under-reports the chance of
        // winning, never loses a genuine minimum, because the locked section
        // re-checks.
        if key > self.key.load() {
            return;
        }
        let mut slot = unpoisoned(self.slot.lock());
        if key < slot.0 {
            *slot = (key, Some(payload));
            self.key.write_min(key);
        }
    }

    /// Returns the smallest `(key, payload)` recorded, if any.
    pub fn get(&self) -> Option<(f64, T)> {
        let slot = unpoisoned(self.slot.lock());
        slot.1.clone().map(|p| (slot.0, p))
    }

    pub fn key(&self) -> f64 {
        self.key.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn write_min_sequential() {
        let m = AtomicF64Min::default();
        assert!(m.write_min(3.0));
        assert!(!m.write_min(4.0));
        assert!(m.write_min(1.5));
        assert_eq!(m.load(), 1.5);
    }

    #[test]
    fn write_min_negative_values() {
        let m = AtomicF64Min::default();
        m.write_min(-1.0);
        m.write_min(-3.5);
        m.write_min(2.0);
        assert_eq!(m.load(), -3.5);
    }

    #[test]
    fn write_min_concurrent() {
        let m = AtomicF64Min::default();
        (0..100_000u64).into_par_iter().for_each(|i| {
            m.write_min(((i * 2654435761) % 1_000_003) as f64);
        });
        let want = (0..100_000u64)
            .map(|i| ((i * 2654435761) % 1_000_003) as f64)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(m.load(), want);
    }

    #[test]
    fn min_pair_keeps_argmin() {
        let m: AtomicMinPair<u64> = AtomicMinPair::default();
        (0..100_000u64).into_par_iter().for_each(|i| {
            let key = ((i * 48271) % 65_537) as f64;
            m.write_min(key, i);
        });
        let (key, payload) = m.get().unwrap();
        assert_eq!(key, (payload * 48271 % 65_537) as f64);
        let want = (0..100_000u64)
            .map(|i| ((i * 48271) % 65_537) as f64)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(key, want);
    }

    #[test]
    fn min_pair_empty() {
        let m: AtomicMinPair<u32> = AtomicMinPair::default();
        assert!(m.get().is_none());
        assert_eq!(m.key(), f64::INFINITY);
    }
}
