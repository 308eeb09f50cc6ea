//! Parallel iterators over splittable producers.
//!
//! [`Par`] wraps a [`Producer`]: a splittable description of a data source
//! (range, slice, chunked slice, owned vector) plus a stack of adapters
//! (`map`, `zip`, `enumerate`, `filter`, ...). Terminal operations
//! recursively split the producer in half down to a leaf size and dispatch
//! the halves through [`crate::join`], so the work really runs on the
//! current pool's workers, chunked.
//!
//! **Determinism:** the split tree is a function of the input length and
//! the `with_min_len` hint only — never of the worker count. Combined with
//! index-preserving `collect` and a fixed reduction tree, every terminal op
//! returns bit-identical results at any thread count (including 1), even
//! for non-associative floating-point operators. This is the property the
//! workspace's cross-thread-count determinism suite pins down.
//!
//! Methods are inherent (not a trait impl), so rayon-specific signatures
//! such as `reduce(identity, op)` never collide with
//! `std::iter::Iterator`.

use std::cmp::Ordering as CmpOrdering;
use std::mem::ManuallyDrop;
use std::sync::Arc;

/// Upper bound on the number of leaves a terminal op splits into. Fixed (not
/// worker-count-dependent) so the execution tree is identical at every pool
/// width; 512 leaves keep far more tasks than workers available for load
/// balancing without drowning the queue.
const MAX_LEAVES: usize = 512;

/// Leaf size for a terminal op: at least the `with_min_len` hint, and large
/// enough that at most [`MAX_LEAVES`] leaves exist.
#[inline]
fn leaf_size(len: usize, min_len: usize) -> usize {
    min_len.max(len.div_ceil(MAX_LEAVES)).max(1)
}

/// A splittable, exactly-sized description of a parallel data source.
pub trait Producer: Sized + Send {
    type Item: Send;
    type IntoIter: Iterator<Item = Self::Item>;

    /// Whether `len()` equals the number of items actually yielded (false
    /// for `filter`-like adapters, where `len` is only an upper bound used
    /// to balance splits).
    const EXACT: bool;

    /// Number of items (exact for `EXACT` producers, upper bound otherwise).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into `[0, index)` and `[index, len)`. `index` is in `(0, len)`.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Sequential iterator over this producer's items.
    fn into_iter(self) -> Self::IntoIter;
}

/// A parallel iterator: a producer plus a granularity hint.
pub struct Par<P> {
    producer: P,
    min_len: usize,
}

impl<P: Producer> Par<P> {
    #[inline]
    fn new(producer: P) -> Self {
        Par {
            producer,
            min_len: 1,
        }
    }

    // ---- adapters -------------------------------------------------------

    #[inline]
    pub fn map<O, F>(self, f: F) -> Par<MapP<P, F>>
    where
        O: Send,
        F: Fn(P::Item) -> O + Send + Sync,
    {
        let base = MapP {
            base: self.producer,
            f: Arc::new(f),
        };
        Par {
            producer: base,
            min_len: self.min_len,
        }
    }

    #[inline]
    pub fn filter<F>(self, f: F) -> Par<FilterP<P, F>>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        let p = FilterP {
            base: self.producer,
            f: Arc::new(f),
        };
        Par {
            producer: p,
            min_len: self.min_len,
        }
    }

    #[inline]
    pub fn filter_map<O, F>(self, f: F) -> Par<FilterMapP<P, F>>
    where
        O: Send,
        F: Fn(P::Item) -> Option<O> + Send + Sync,
    {
        let p = FilterMapP {
            base: self.producer,
            f: Arc::new(f),
        };
        Par {
            producer: p,
            min_len: self.min_len,
        }
    }

    #[inline]
    pub fn flat_map<O, F>(self, f: F) -> Par<FlatMapP<P, F>>
    where
        O: IntoIterator,
        O::Item: Send,
        F: Fn(P::Item) -> O + Send + Sync,
    {
        let p = FlatMapP {
            base: self.producer,
            f: Arc::new(f),
        };
        Par {
            producer: p,
            min_len: self.min_len,
        }
    }

    #[inline]
    pub fn zip<Q: Producer>(self, other: Par<Q>) -> Par<ZipP<P, Q>> {
        Par {
            producer: ZipP {
                a: self.producer,
                b: other.producer,
            },
            min_len: self.min_len.max(other.min_len),
        }
    }

    #[inline]
    pub fn enumerate(self) -> Par<EnumerateP<P>> {
        // Split offsets assume the base yields exactly `len` items; on a
        // filtered base the indices would silently come out wrong. Real
        // rayon rejects this at compile time (IndexedParallelIterator);
        // the shim rejects it loudly at runtime.
        assert!(
            P::EXACT,
            "enumerate requires an exactly-sized parallel iterator \
             (not filter/filter_map/flat_map output)"
        );
        Par {
            producer: EnumerateP {
                base: self.producer,
                offset: 0,
            },
            min_len: self.min_len,
        }
    }

    #[inline]
    pub fn cloned<'a, T>(self) -> Par<ClonedP<P>>
    where
        T: 'a + Clone + Send + Sync,
        P: Producer<Item = &'a T>,
    {
        Par {
            producer: ClonedP(self.producer),
            min_len: self.min_len,
        }
    }

    #[inline]
    pub fn copied<'a, T>(self) -> Par<CopiedP<P>>
    where
        T: 'a + Copy + Send + Sync,
        P: Producer<Item = &'a T>,
    {
        Par {
            producer: CopiedP(self.producer),
            min_len: self.min_len,
        }
    }

    /// Granularity hint: leaves of the split tree hold at least `min`
    /// items. Part of the deterministic tree shape (not scheduling advice).
    #[inline]
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = self.min_len.max(min.max(1));
        self
    }

    // ---- parallel terminal ops ------------------------------------------

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        let leaf = leaf_size(self.producer.len(), self.min_len);
        for_each_rec(self.producer, leaf, &f);
    }

    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<P::Item>,
    {
        C::from_par(self)
    }

    /// Rayon-style reduce: combine from an identity element, over a fixed
    /// binary tree.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        let leaf = leaf_size(self.producer.len(), self.min_len);
        reduce_rec(self.producer, leaf, &identity, &op)
    }

    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<P::Item> + std::iter::Sum<S> + Send,
    {
        let leaf = leaf_size(self.producer.len(), self.min_len);
        sum_rec(self.producer, leaf)
    }

    pub fn count(self) -> usize {
        let leaf = leaf_size(self.producer.len(), self.min_len);
        count_rec(self.producer, leaf)
    }

    pub fn max_by<F>(self, f: F) -> Option<P::Item>
    where
        F: Fn(&P::Item, &P::Item) -> CmpOrdering + Send + Sync,
    {
        let leaf = leaf_size(self.producer.len(), self.min_len);
        // Keep the right candidate on ties (`Iterator::max_by` is last-wins).
        select_rec(self.producer, leaf, &|a, b| {
            !matches!(f(b, a), CmpOrdering::Less)
        })
    }

    pub fn max_by_key<K, F>(self, f: F) -> Option<P::Item>
    where
        K: Ord,
        F: Fn(&P::Item) -> K + Send + Sync,
    {
        let leaf = leaf_size(self.producer.len(), self.min_len);
        select_rec(self.producer, leaf, &|a, b| f(b) >= f(a))
    }

    // ---- sequential terminal ops ----------------------------------------
    //
    // Short-circuiting searches: evaluated in order on the calling thread
    // (they are off every hot path in this workspace).

    pub fn any<F: FnMut(P::Item) -> bool>(self, f: F) -> bool {
        let mut f = f;
        self.producer.into_iter().any(&mut f)
    }

    pub fn all<F: FnMut(P::Item) -> bool>(self, f: F) -> bool {
        let mut f = f;
        self.producer.into_iter().all(&mut f)
    }
}

// ---- recursive drivers ---------------------------------------------------

fn for_each_rec<P, F>(p: P, leaf: usize, f: &F)
where
    P: Producer,
    F: Fn(P::Item) + Send + Sync,
{
    let len = p.len();
    if len <= leaf {
        p.into_iter().for_each(f);
        return;
    }
    let (l, r) = p.split_at(len / 2);
    crate::join(|| for_each_rec(l, leaf, f), || for_each_rec(r, leaf, f));
}

fn reduce_rec<P, ID, OP>(p: P, leaf: usize, identity: &ID, op: &OP) -> P::Item
where
    P: Producer,
    ID: Fn() -> P::Item + Send + Sync,
    OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
{
    let len = p.len();
    if len <= leaf {
        return p.into_iter().fold(identity(), op);
    }
    let (l, r) = p.split_at(len / 2);
    let (a, b) = crate::join(
        || reduce_rec(l, leaf, identity, op),
        || reduce_rec(r, leaf, identity, op),
    );
    op(a, b)
}

fn sum_rec<P, S>(p: P, leaf: usize) -> S
where
    P: Producer,
    S: std::iter::Sum<P::Item> + std::iter::Sum<S> + Send,
{
    let len = p.len();
    if len <= leaf {
        return p.into_iter().sum();
    }
    let (l, r) = p.split_at(len / 2);
    let (a, b) = crate::join(|| sum_rec::<_, S>(l, leaf), || sum_rec::<_, S>(r, leaf));
    [a, b].into_iter().sum()
}

fn count_rec<P: Producer>(p: P, leaf: usize) -> usize {
    let len = p.len();
    if len <= leaf {
        return p.into_iter().count();
    }
    let (l, r) = p.split_at(len / 2);
    let (a, b) = crate::join(|| count_rec(l, leaf), || count_rec(r, leaf));
    a + b
}

/// Generic min/max over the in-order tree. `replace(cur, cand)` returns
/// true when the right-hand candidate should replace the left-hand one.
fn select_rec<P, R>(p: P, leaf: usize, replace: &R) -> Option<P::Item>
where
    P: Producer,
    R: Fn(&P::Item, &P::Item) -> bool + Send + Sync,
{
    let len = p.len();
    if len <= leaf {
        let mut best: Option<P::Item> = None;
        for x in p.into_iter() {
            best = match best {
                None => Some(x),
                Some(cur) => {
                    if replace(&cur, &x) {
                        Some(x)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        return best;
    }
    let (l, r) = p.split_at(len / 2);
    let (a, b) = crate::join(
        || select_rec(l, leaf, replace),
        || select_rec(r, leaf, replace),
    );
    match (a, b) {
        (Some(x), Some(y)) => Some(if replace(&x, &y) { y } else { x }),
        (x, y) => x.or(y),
    }
}

/// Raw pointer wrapper for disjoint index-preserving writes across tasks.
struct SendPtr<T>(*mut T);
// SAFETY: every task derives writes from a distinct index range of one
// allocation, so cross-thread use never aliases (see collect_exact_rec).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same disjointness argument; shared references only copy the
// pointer value, never dereference it concurrently at the same index.
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Write `p`'s items into `out[offset..offset + len]`.
///
/// Panic-safety invariant (inductive): on normal return the whole range is
/// initialized; on unwind the whole range has been dropped/never written.
/// Leaves clean their own partial writes via a guard; interior nodes drop
/// the fully-written sibling range when the other side unwinds. `Copy`-ish
/// item types (`!needs_drop`) skip all of this.
fn collect_exact_rec<P: Producer>(p: P, leaf: usize, offset: usize, out: SendPtr<P::Item>) {
    let len = p.len();
    if len <= leaf {
        if !std::mem::needs_drop::<P::Item>() {
            let mut i = offset;
            for x in p.into_iter() {
                // SAFETY: EXACT producers yield exactly `len` items and
                // every leaf owns the disjoint range `[offset, offset+len)`
                // of an allocation sized to the root length.
                unsafe { out.0.add(i).write(x) };
                i += 1;
            }
            debug_assert_eq!(i, offset + len, "EXACT producer lied about its length");
            return;
        }
        struct PartialGuard<T> {
            out: SendPtr<T>,
            start: usize,
            cur: usize,
        }
        impl<T> Drop for PartialGuard<T> {
            fn drop(&mut self) {
                // SAFETY: `[start, cur)` was initialized by this leaf and,
                // mid-unwind, will never be read or set_len'd.
                unsafe {
                    std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                        self.out.0.add(self.start),
                        self.cur - self.start,
                    ))
                };
            }
        }
        let mut guard = PartialGuard {
            out,
            start: offset,
            cur: offset,
        };
        for x in p.into_iter() {
            // SAFETY: as in the no-drop path above.
            unsafe { out.0.add(guard.cur).write(x) };
            guard.cur += 1;
        }
        debug_assert_eq!(
            guard.cur,
            offset + len,
            "EXACT producer lied about its length"
        );
        std::mem::forget(guard);
        return;
    }
    let mid = len / 2;
    let (l, r) = p.split_at(mid);
    if !std::mem::needs_drop::<P::Item>() {
        crate::join(
            || collect_exact_rec(l, leaf, offset, out),
            || collect_exact_rec(r, leaf, offset + mid, out),
        );
        return;
    }
    let (ra, rb) = crate::join(
        || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                collect_exact_rec(l, leaf, offset, out)
            }))
        },
        || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                collect_exact_rec(r, leaf, offset + mid, out)
            }))
        },
    );
    match (ra, rb) {
        (Ok(()), Ok(())) => {}
        (Err(payload), Ok(())) => {
            // SAFETY: the Ok right side fully initialized its range (the
            // invariant above); after the panic it will never be read.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                    out.0.add(offset + mid),
                    len - mid,
                ))
            };
            std::panic::resume_unwind(payload);
        }
        (Ok(()), Err(payload)) => {
            // SAFETY: mirror case — the Ok left side fully initialized
            // `[offset, offset+mid)` and the range is dead after the panic.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(out.0.add(offset), mid))
            };
            std::panic::resume_unwind(payload);
        }
        // Both sides cleaned their own ranges; propagate the left panic.
        (Err(payload), Err(_)) => std::panic::resume_unwind(payload),
    }
}

fn collect_concat_rec<P: Producer>(p: P, leaf: usize) -> Vec<P::Item> {
    let len = p.len();
    if len <= leaf {
        return p.into_iter().collect();
    }
    let (l, r) = p.split_at(len / 2);
    let (mut a, mut b) = crate::join(
        || collect_concat_rec(l, leaf),
        || collect_concat_rec(r, leaf),
    );
    a.append(&mut b);
    a
}

/// Collections a parallel iterator can collect into.
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par<P: Producer<Item = T>>(par: Par<P>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par<P: Producer<Item = T>>(par: Par<P>) -> Vec<T> {
        let len = par.producer.len();
        let leaf = leaf_size(len, par.min_len);
        if P::EXACT {
            // Index-preserving parallel write into a pre-sized buffer.
            let mut out: Vec<T> = Vec::with_capacity(len);
            let ptr = SendPtr(out.as_mut_ptr());
            collect_exact_rec(par.producer, leaf, 0, ptr);
            // SAFETY: every index in [0, len) was initialized exactly once
            // by the disjoint leaf ranges above.
            unsafe { out.set_len(len) };
            out
        } else {
            // Unknown yield count (filter & friends): per-leaf vectors
            // concatenated in order.
            collect_concat_rec(par.producer, leaf)
        }
    }
}

// ---- adapter producers ----------------------------------------------------

pub struct MapP<P, F> {
    base: P,
    f: Arc<F>,
}

pub struct MapIter<I, F> {
    base: I,
    f: Arc<F>,
}

impl<O, I: Iterator, F: Fn(I::Item) -> O> Iterator for MapIter<I, F> {
    type Item = O;
    #[inline]
    fn next(&mut self) -> Option<O> {
        self.base.next().map(|x| (self.f)(x))
    }
}

impl<O, P, F> Producer for MapP<P, F>
where
    O: Send,
    P: Producer,
    F: Fn(P::Item) -> O + Send + Sync,
{
    type Item = O;
    type IntoIter = MapIter<P::IntoIter, F>;
    const EXACT: bool = P::EXACT;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            MapP {
                base: l,
                f: Arc::clone(&self.f),
            },
            MapP { base: r, f: self.f },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        MapIter {
            base: self.base.into_iter(),
            f: self.f,
        }
    }
}

pub struct FilterP<P, F> {
    base: P,
    f: Arc<F>,
}

pub struct FilterIter<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I: Iterator, F: Fn(&I::Item) -> bool> Iterator for FilterIter<I, F> {
    type Item = I::Item;
    #[inline]
    fn next(&mut self) -> Option<I::Item> {
        self.base.by_ref().find(|x| (self.f)(x))
    }
}

impl<P, F> Producer for FilterP<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;
    type IntoIter = FilterIter<P::IntoIter, F>;
    const EXACT: bool = false;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FilterP {
                base: l,
                f: Arc::clone(&self.f),
            },
            FilterP { base: r, f: self.f },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        FilterIter {
            base: self.base.into_iter(),
            f: self.f,
        }
    }
}

pub struct FilterMapP<P, F> {
    base: P,
    f: Arc<F>,
}

pub struct FilterMapIter<I, F> {
    base: I,
    f: Arc<F>,
}

impl<O, I: Iterator, F: Fn(I::Item) -> Option<O>> Iterator for FilterMapIter<I, F> {
    type Item = O;
    #[inline]
    fn next(&mut self) -> Option<O> {
        loop {
            match self.base.next() {
                None => return None,
                Some(x) => {
                    if let Some(o) = (self.f)(x) {
                        return Some(o);
                    }
                }
            }
        }
    }
}

impl<O, P, F> Producer for FilterMapP<P, F>
where
    O: Send,
    P: Producer,
    F: Fn(P::Item) -> Option<O> + Send + Sync,
{
    type Item = O;
    type IntoIter = FilterMapIter<P::IntoIter, F>;
    const EXACT: bool = false;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FilterMapP {
                base: l,
                f: Arc::clone(&self.f),
            },
            FilterMapP { base: r, f: self.f },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        FilterMapIter {
            base: self.base.into_iter(),
            f: self.f,
        }
    }
}

pub struct FlatMapP<P, F> {
    base: P,
    f: Arc<F>,
}

pub struct FlatMapIter<I, O: IntoIterator, F> {
    base: I,
    cur: Option<O::IntoIter>,
    f: Arc<F>,
}

impl<I, O, F> Iterator for FlatMapIter<I, O, F>
where
    I: Iterator,
    O: IntoIterator,
    F: Fn(I::Item) -> O,
{
    type Item = O::Item;
    fn next(&mut self) -> Option<O::Item> {
        loop {
            if let Some(cur) = &mut self.cur {
                if let Some(x) = cur.next() {
                    return Some(x);
                }
            }
            match self.base.next() {
                None => return None,
                Some(x) => self.cur = Some((self.f)(x).into_iter()),
            }
        }
    }
}

impl<O, P, F> Producer for FlatMapP<P, F>
where
    O: IntoIterator,
    O::Item: Send,
    P: Producer,
    F: Fn(P::Item) -> O + Send + Sync,
{
    type Item = O::Item;
    type IntoIter = FlatMapIter<P::IntoIter, O, F>;
    const EXACT: bool = false;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            FlatMapP {
                base: l,
                f: Arc::clone(&self.f),
            },
            FlatMapP { base: r, f: self.f },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        FlatMapIter {
            base: self.base.into_iter(),
            cur: None,
            f: self.f,
        }
    }
}

pub struct ZipP<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipP<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
    // Exactness holds because split indices never exceed min(len_a, len_b).
    const EXACT: bool = A::EXACT && B::EXACT;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (ZipP { a: al, b: bl }, ZipP { a: ar, b: br })
    }

    fn into_iter(self) -> Self::IntoIter {
        self.a.into_iter().zip(self.b.into_iter())
    }
}

pub struct EnumerateP<P> {
    base: P,
    offset: usize,
}

pub struct EnumerateIter<I> {
    base: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateIter<I> {
    type Item = (usize, I::Item);
    #[inline]
    fn next(&mut self) -> Option<(usize, I::Item)> {
        let x = self.base.next()?;
        let i = self.next;
        self.next += 1;
        Some((i, x))
    }
}

impl<P: Producer> Producer for EnumerateP<P> {
    type Item = (usize, P::Item);
    type IntoIter = EnumerateIter<P::IntoIter>;
    const EXACT: bool = P::EXACT;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            EnumerateP {
                base: l,
                offset: self.offset,
            },
            EnumerateP {
                base: r,
                offset: self.offset + index,
            },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        EnumerateIter {
            base: self.base.into_iter(),
            next: self.offset,
        }
    }
}

pub struct ClonedP<P>(P);

impl<'a, T, P> Producer for ClonedP<P>
where
    T: 'a + Clone + Send + Sync,
    P: Producer<Item = &'a T>,
{
    type Item = T;
    type IntoIter = std::iter::Cloned<P::IntoIter>;
    const EXACT: bool = P::EXACT;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (ClonedP(l), ClonedP(r))
    }

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().cloned()
    }
}

pub struct CopiedP<P>(P);

impl<'a, T, P> Producer for CopiedP<P>
where
    T: 'a + Copy + Send + Sync,
    P: Producer<Item = &'a T>,
{
    type Item = T;
    type IntoIter = std::iter::Copied<P::IntoIter>;
    const EXACT: bool = P::EXACT;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (CopiedP(l), CopiedP(r))
    }

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().copied()
    }
}

// ---- base producers -------------------------------------------------------

pub struct SliceP<'a, T>(&'a [T]);

impl<'a, T: Sync> Producer for SliceP<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    const EXACT: bool = true;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (SliceP(l), SliceP(r))
    }

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

pub struct SliceMutP<'a, T>(&'a mut [T]);

impl<'a, T: Send> Producer for SliceMutP<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    const EXACT: bool = true;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(index);
        (SliceMutP(l), SliceMutP(r))
    }

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter_mut()
    }
}

pub struct ChunksP<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ChunksP<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;
    const EXACT: bool = true;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index * self.size);
        (
            ChunksP {
                slice: l,
                size: self.size,
            },
            ChunksP {
                slice: r,
                size: self.size,
            },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks(self.size)
    }
}

pub struct ChunksMutP<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMutP<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;
    const EXACT: bool = true;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index * self.size);
        (
            ChunksMutP {
                slice: l,
                size: self.size,
            },
            ChunksMutP {
                slice: r,
                size: self.size,
            },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.size)
    }
}

/// Integer types usable as parallel range endpoints.
pub trait RangeInt: Copy + Send + Sized {
    fn offset(self, n: usize) -> Self;
    fn distance(lo: Self, hi: Self) -> usize;
}

/// Unsigned endpoints: a split index `n` never exceeds the range length, so
/// `start + n` stays within `[start, end]` and the narrowing cast is exact.
macro_rules! impl_range_int_unsigned {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn offset(self, n: usize) -> Self {
                self + n as $t
            }
            #[inline]
            fn distance(lo: Self, hi: Self) -> usize {
                if hi > lo { (hi - lo) as usize } else { 0 }
            }
        }
    )*};
}

/// Signed endpoints go through a wider intermediate: a range like
/// `i32::MIN..i32::MAX` is longer than `$t::MAX`, so `n as $t` would wrap
/// (and the resulting bogus split would break the EXACT-producer contract
/// that `collect`'s unsafe pre-sized writes rely on).
macro_rules! impl_range_int_signed {
    ($($t:ty => $wide:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn offset(self, n: usize) -> Self {
                (self as $wide + n as $wide) as $t
            }
            #[inline]
            fn distance(lo: Self, hi: Self) -> usize {
                if hi > lo { (hi as $wide - lo as $wide) as usize } else { 0 }
            }
        }
    )*};
}

impl_range_int_unsigned!(u16, u32, u64, usize);
impl_range_int_signed!(i32 => i64, i64 => i128);

pub struct RangeP<T> {
    start: T,
    end: T,
}

impl<T> Producer for RangeP<T>
where
    T: RangeInt,
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type IntoIter = std::ops::Range<T>;
    const EXACT: bool = true;

    fn len(&self) -> usize {
        T::distance(self.start, self.end)
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.start.offset(index);
        (
            RangeP {
                start: self.start,
                end: mid,
            },
            RangeP {
                start: mid,
                end: self.end,
            },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        self.start..self.end
    }
}

/// Backing buffer of a consumed `Vec`, deallocated (without dropping
/// elements — ownership of those moved into the producers) when the last
/// split producer finishes.
struct VecBuf<T> {
    ptr: *mut T,
    cap: usize,
}

// SAFETY: VecBuf only carries the allocation; element accesses go through
// producers/iterators that each own a disjoint index range.
unsafe impl<T: Send> Send for VecBuf<T> {}
// SAFETY: shared access is limited to reading `ptr`/`cap`; the disjoint
// range ownership above prevents concurrent element aliasing.
unsafe impl<T: Send> Sync for VecBuf<T> {}

impl<T> Drop for VecBuf<T> {
    fn drop(&mut self) {
        // SAFETY: reconstitute with len 0: elements were moved out (or
        // dropped) by the producers/iterators that owned their ranges.
        unsafe { drop(Vec::from_raw_parts(self.ptr, 0, self.cap)) };
    }
}

/// Owning producer over a consumed `Vec<T>`: each split owns a disjoint
/// index range and moves elements out with `ptr::read`.
pub struct VecP<T: Send> {
    buf: Arc<VecBuf<T>>,
    start: usize,
    end: usize,
}

impl<T: Send> Drop for VecP<T> {
    fn drop(&mut self) {
        // Dropped without being iterated (e.g. mid-panic unwind): drop the
        // owned range in place.
        let slice = std::ptr::slice_from_raw_parts_mut(
            // SAFETY: start ≤ cap, so the offset stays in the allocation.
            unsafe { self.buf.ptr.add(self.start) },
            self.end - self.start,
        );
        // SAFETY: this producer exclusively owns [start, end) and none of
        // those elements were moved out (into_iter/split_at skip Drop).
        unsafe { std::ptr::drop_in_place(slice) };
    }
}

pub struct VecIter<T: Send> {
    buf: Arc<VecBuf<T>>,
    cur: usize,
    end: usize,
}

impl<T: Send> Iterator for VecIter<T> {
    type Item = T;
    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.cur == self.end {
            return None;
        }
        // SAFETY: this iterator exclusively owns [cur, end); each element
        // is read exactly once.
        let v = unsafe { self.buf.ptr.add(self.cur).read() };
        self.cur += 1;
        Some(v)
    }
}

impl<T: Send> Drop for VecIter<T> {
    fn drop(&mut self) {
        let slice = std::ptr::slice_from_raw_parts_mut(
            // SAFETY: cur ≤ cap, so the offset stays in the allocation.
            unsafe { self.buf.ptr.add(self.cur) },
            self.end - self.cur,
        );
        // SAFETY: [cur, end) was never yielded; drop those elements.
        unsafe { std::ptr::drop_in_place(slice) };
    }
}

impl<T: Send> Producer for VecP<T> {
    type Item = T;
    type IntoIter = VecIter<T>;
    const EXACT: bool = true;

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn split_at(self, index: usize) -> (Self, Self) {
        let this = ManuallyDrop::new(self);
        // SAFETY: move the Arc out of the forgotten `this`; its Drop (which
        // would drop the range's elements) is skipped, and the two children
        // partition the range exactly.
        let buf = unsafe { std::ptr::read(&this.buf) };
        let mid = this.start + index;
        (
            VecP {
                buf: Arc::clone(&buf),
                start: this.start,
                end: mid,
            },
            VecP {
                buf,
                start: mid,
                end: this.end,
            },
        )
    }

    fn into_iter(self) -> Self::IntoIter {
        let this = ManuallyDrop::new(self);
        // SAFETY: as in `split_at`: ownership of [start, end) transfers to
        // the iterator, `this`'s Drop is skipped.
        let buf = unsafe { std::ptr::read(&this.buf) };
        VecIter {
            buf,
            cur: this.start,
            end: this.end,
        }
    }
}

// ---- entry-point traits ---------------------------------------------------

/// `into_par_iter()` for owned sources (vectors and integer ranges).
pub trait IntoParallelIterator {
    type Item: Send;
    type Producer: Producer<Item = Self::Item>;

    fn into_par_iter(self) -> Par<Self::Producer>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Producer = VecP<T>;

    fn into_par_iter(self) -> Par<VecP<T>> {
        let mut v = ManuallyDrop::new(self);
        let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
        Par::new(VecP {
            buf: Arc::new(VecBuf { ptr, cap }),
            start: 0,
            end: len,
        })
    }
}

impl<T> IntoParallelIterator for std::ops::Range<T>
where
    T: RangeInt,
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Producer = RangeP<T>;

    fn into_par_iter(self) -> Par<RangeP<T>> {
        Par::new(RangeP {
            start: self.start,
            end: self.end,
        })
    }
}

/// `par_iter()` on `&self` for slices and vectors.
pub trait IntoParallelRefIterator<'data> {
    type Item: Send + 'data;
    type Producer: Producer<Item = Self::Item>;

    fn par_iter(&'data self) -> Par<Self::Producer>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Producer = SliceP<'data, T>;

    fn par_iter(&'data self) -> Par<SliceP<'data, T>> {
        Par::new(SliceP(self))
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Producer = SliceP<'data, T>;

    fn par_iter(&'data self) -> Par<SliceP<'data, T>> {
        Par::new(SliceP(self))
    }
}

/// `par_iter_mut()` on `&mut self` for slices and vectors.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: Send + 'data;
    type Producer: Producer<Item = Self::Item>;

    fn par_iter_mut(&'data mut self) -> Par<Self::Producer>;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;
    type Producer = SliceMutP<'data, T>;

    fn par_iter_mut(&'data mut self) -> Par<SliceMutP<'data, T>> {
        Par::new(SliceMutP(self))
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Item = &'data mut T;
    type Producer = SliceMutP<'data, T>;

    fn par_iter_mut(&'data mut self) -> Par<SliceMutP<'data, T>> {
        Par::new(SliceMutP(self))
    }
}

/// Chunked views of slices, rayon-style.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksP<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Par<ChunksP<'_, T>> {
        assert!(chunk_size > 0, "chunk size must be positive");
        Par::new(ChunksP {
            slice: self,
            size: chunk_size,
        })
    }
}

/// Mutable chunked views and the parallel sort, rayon-style.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutP<'_, T>>;
    fn par_sort_unstable_by<F: Fn(&T, &T) -> CmpOrdering + Sync>(&mut self, compare: F);
}

/// Sequential cutoff and fixed chunk width for the parallel sort. The
/// chunk width is constant (not worker-count-derived) so the pre-sorted
/// runs — and hence the full output permutation even under non-total
/// comparators — are identical at every thread count.
const SORT_CHUNK: usize = 16 * 1024;

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> Par<ChunksMutP<'_, T>> {
        assert!(chunk_size > 0, "chunk size must be positive");
        Par::new(ChunksMutP {
            slice: self,
            size: chunk_size,
        })
    }

    /// Pre-sort fixed-width disjoint chunks in parallel, then let
    /// `slice::sort_by` (a run-detecting stable mergesort) merge the sorted
    /// runs: the comparison-heavy O(n log n) phase parallelizes, the merge
    /// pass is O(n log k) over k runs. No unsafe, and panic-safe.
    fn par_sort_unstable_by<F: Fn(&T, &T) -> CmpOrdering + Sync>(&mut self, compare: F) {
        if self.len() > 2 * SORT_CHUNK {
            self.par_chunks_mut(SORT_CHUNK)
                .for_each(|chunk| chunk.sort_unstable_by(&compare));
        }
        self.sort_by(compare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..50_000).collect();
        let got: Vec<u64> = xs.par_iter().map(|&x| x * 3).collect();
        let want: Vec<u64> = xs.iter().map(|&x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn filter_collect_preserves_order() {
        let got: Vec<u32> = (0..100_000u32)
            .into_par_iter()
            .filter(|&x| x % 7 == 0)
            .collect();
        let want: Vec<u32> = (0..100_000).filter(|&x| x % 7 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn vec_into_par_iter_moves_noncopy_items() {
        let strings: Vec<String> = (0..10_000).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = strings.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 10_000);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[9_999], 4);
    }

    #[test]
    fn vec_producer_drops_unconsumed_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        {
            let v: Vec<Counted> = (0..100).map(|_| Counted).collect();
            let par = v.into_par_iter();
            drop(par); // never iterated
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zip_enumerate_for_each_writes_disjoint() {
        let mut a = vec![0u32; 40_000];
        let mut b = vec![0u32; 40_000];
        a.par_iter_mut()
            .zip(b.par_iter_mut())
            .enumerate()
            .for_each(|(i, (x, y))| {
                *x = i as u32;
                *y = 2 * i as u32;
            });
        assert!(a.iter().enumerate().all(|(i, &x)| x == i as u32));
        assert!(b.iter().enumerate().all(|(i, &x)| x == 2 * i as u32));
    }

    #[test]
    fn chunks_cover_everything() {
        let xs: Vec<u64> = (0..100_003).collect();
        let sums: Vec<u64> = xs.par_chunks(997).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 100_003usize.div_ceil(997));
        assert_eq!(sums.iter().sum::<u64>(), xs.iter().sum::<u64>());
    }

    #[test]
    fn reduce_tree_is_identical_across_thread_counts() {
        // Float addition is not associative: identical results across
        // widths prove the split tree is width-independent.
        let xs: Vec<f64> = (0..200_000)
            .map(|i| ((i * 2654435761u64) % 1_000_003) as f64 * 1e-7)
            .collect();
        let run = |threads: usize| -> f64 {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| xs.par_iter().map(|&x| x.sin()).reduce(|| 0.0, |a, b| a + b))
        };
        let baseline = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                baseline.to_bits(),
                run(threads).to_bits(),
                "float reduce differs at {threads} threads"
            );
        }
    }

    #[test]
    fn min_max_match_sequential_semantics() {
        let xs: Vec<i64> = (0..30_000).map(|i| (i * 48271) % 257 - 128).collect();
        assert_eq!(
            xs.par_iter().max_by(|a, b| a.cmp(b)).copied(),
            xs.iter().max().copied()
        );
    }

    #[test]
    fn filter_count_counts_matches_only() {
        let n = (0..123_457u32)
            .into_par_iter()
            .filter(|&x| x % 3 == 0)
            .count();
        assert_eq!(n, (0..123_457).filter(|&x| x % 3 == 0).count());
    }

    #[test]
    fn sum_and_flat_map() {
        let total: u64 = (0..10_000u64).into_par_iter().sum();
        assert_eq!(total, 10_000 * 9_999 / 2);
        let expanded: Vec<u32> = (0..1_000u32)
            .into_par_iter()
            .flat_map(|x| [x, x + 100_000])
            .collect();
        assert_eq!(expanded.len(), 2_000);
        assert_eq!(expanded[0], 0);
        assert_eq!(expanded[1], 100_000);
    }

    #[test]
    fn exact_collect_drops_written_items_on_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicIsize, Ordering};
        static LIVE: AtomicIsize = AtomicIsize::new(0);
        struct Tracked;
        impl Tracked {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::Relaxed);
                Tracked
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }
        for threads in [1, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    (0..10_000u32)
                        .into_par_iter()
                        .map(|i| {
                            if i == 7_777 {
                                panic!("boom mid-collect");
                            }
                            Tracked::new()
                        })
                        .collect::<Vec<Tracked>>()
                })
            }));
            assert!(result.is_err());
            assert_eq!(
                LIVE.load(Ordering::Relaxed),
                0,
                "items written before the panic leaked at {threads} threads"
            );
        }
    }

    #[test]
    fn par_sorts_match_std() {
        let xs: Vec<u64> = (0..150_000).map(|i| (i * 2654435761) % 10_000).collect();
        let mut a = xs.clone();
        let mut b = xs.clone();
        a.par_sort_unstable_by(u64::cmp);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn par_sort_deterministic_across_thread_counts() {
        let xs: Vec<u64> = (0..120_000).map(|i| (i * 48271) % 1_000).collect();
        let run = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut v: Vec<(u64, usize)> = xs.iter().copied().zip(0..).collect();
                v.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
                v
            })
        };
        let base = run(1);
        assert_eq!(
            base,
            run(4),
            "unstable sort permutation must not depend on width"
        );
    }

    #[test]
    fn adversarial_sizes() {
        for n in [
            0usize,
            1,
            2,
            MAX_LEAVES - 1,
            MAX_LEAVES,
            MAX_LEAVES + 1,
            4 * MAX_LEAVES + 3,
        ] {
            let xs: Vec<usize> = (0..n).collect();
            let got: Vec<usize> = xs.par_iter().map(|&x| x + 1).collect();
            assert_eq!(got.len(), n);
            assert!(got.iter().enumerate().all(|(i, &x)| x == i + 1));
            assert_eq!(xs.par_iter().count(), n);
        }
    }

    #[test]
    fn with_min_len_changes_leaf_but_not_result() {
        let xs: Vec<f64> = (0..80_000).map(|i| (i as f64).sqrt()).collect();
        let plain: f64 = xs.par_iter().copied().reduce(|| 0.0, |a, b| a + b);
        let hinted: f64 = xs
            .par_iter()
            .with_min_len(4096)
            .copied()
            .reduce(|| 0.0, |a, b| a + b);
        // Different trees may give different float totals; both must be
        // finite and close. (Equality across *thread counts* is what the
        // determinism tests pin; min_len is part of the tree shape.)
        assert!((plain - hinted).abs() < 1e-6 * plain.abs());
    }
}
