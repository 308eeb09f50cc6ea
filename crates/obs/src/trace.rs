//! Structured span tracing with per-thread atomic ring buffers.
//!
//! Design constraints, in priority order:
//!
//! 1. **Disabled cost is one branch.** `span!` compiles to a relaxed load
//!    of a global flag; when it is false the returned [`Span`] is inert
//!    and its `Drop` is a second branch. No clocks, no TLS, no locks.
//! 2. **Enabled cost is lock-free.** Each thread owns a ring of
//!    fixed-size event slots made of `AtomicU64` words. Recording is a
//!    handful of `Relaxed` stores plus one `Release` publish of the ring
//!    head; name interning touches a mutex only once per call site ever
//!    (the interned id is cached in a per-site `AtomicU32`).
//! 3. **Never UB, even if misused.** A drain racing with recorders can
//!    observe *torn events* (words from different spans) because slots are
//!    plain atomics, but never undefined behavior. The supported contract
//!    is a quiescent drain (see [`crate::export::drain`]); `repro` drains
//!    once after the timed work completes.
//!
//! Rings keep the newest [`RING_CAP`] events per thread and silently
//! overwrite older ones, which is why instrumentation sits at phase/batch
//! granularity, not per-BCCP-call.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events retained per thread (newest win). 8192 events × 32 B = 256 KiB.
pub const RING_CAP: usize = 1 << 13;

/// Sentinel for "span has no argument".
pub(crate) const NO_KEY: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span recording on. Idempotent; also pins the trace epoch.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn span recording off. Already-recorded events stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The global name interner: index ↔ `&'static str`. Only touched on the
/// first execution of each `span!` call site and during cold drains.
pub(crate) fn names() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    // analyze:allow(hotpath-lock) — interner mutex is constructed once and locked once per call site ever; the id is cached in Site afterwards
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Every ring ever registered, in thread-registration order; the index is
/// the Chrome-trace `tid`. Rings outlive their threads so a drain after a
/// pool shut down still sees their events.
pub(crate) fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    // analyze:allow(hotpath-lock) — ring registry is locked once per thread lifetime (registration) and during cold drains only
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// One span event: 4 atomic words.
/// `w0` = `name_id << 32 | arg_key_id` (`arg_key_id == NO_KEY` ⇒ no arg),
/// `w1` = start ns since epoch, `w2` = duration ns, `w3` = arg value.
pub(crate) struct Slot {
    pub(crate) words: [AtomicU64; 4],
}

/// A per-thread event ring. `head` counts events ever pushed; slot
/// `head % RING_CAP` is overwritten next. Only the owning thread pushes;
/// the `Release` store on `head` publishes the slot words to an
/// `Acquire`-loading drainer.
pub(crate) struct Ring {
    pub(crate) slots: Box<[Slot]>,
    pub(crate) head: AtomicU64,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        Ring {
            slots: (0..cap)
                .map(|_| Slot {
                    words: [
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                        AtomicU64::new(0),
                    ],
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    #[inline]
    fn push(&self, w0: u64, w1: u64, w2: u64, w3: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[h as usize & (self.slots.len() - 1)];
        slot.words[0].store(w0, Ordering::Relaxed);
        slot.words[1].store(w1, Ordering::Relaxed);
        slot.words[2].store(w2, Ordering::Relaxed);
        slot.words[3].store(w3, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }
}

thread_local! {
    static RING: Arc<Ring> = register_ring();
}

fn register_ring() -> Arc<Ring> {
    let ring = Arc::new(Ring::with_capacity(RING_CAP));
    // analyze:allow(hotpath-lock) — one lock per thread lifetime.
    let mut all = rings().lock().unwrap_or_else(|e| e.into_inner());
    all.push(Arc::clone(&ring));
    ring
}

/// A `span!` call site: the static name plus a cached interned id.
/// `u32::MAX` means "not yet interned".
pub struct Site {
    name: &'static str,
    id: AtomicU32,
}

impl Site {
    /// Const constructor so `span!` can embed a `static Site` per site.
    pub const fn new(name: &'static str) -> Site {
        Site {
            name,
            id: AtomicU32::new(u32::MAX),
        }
    }

    #[inline]
    fn id(&self) -> u32 {
        let cached = self.id.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return cached;
        }
        self.intern_slow()
    }

    #[cold]
    fn intern_slow(&self) -> u32 {
        // analyze:allow(hotpath-lock) — runs once per call site ever; every later span hits the relaxed id cache above
        let mut names = names().lock().unwrap_or_else(|e| e.into_inner());
        let idx = match names.iter().position(|n| *n == self.name) {
            Some(i) => i as u32,
            None => {
                names.push(self.name);
                (names.len() - 1) as u32
            }
        };
        self.id.store(idx, Ordering::Relaxed);
        idx
    }
}

/// An in-flight span; on drop records a complete event (if tracing was on
/// at creation) and, for a phase guard, adds the same duration to its
/// `slot`. A plain span is inert (two branches total) when tracing is off.
#[must_use = "a span records its duration when dropped; bind it with `let _span = ...`"]
pub struct Span<'a> {
    slot: Option<&'a AtomicU64>,
    meta: u64,
    start_ns: u64,
    arg_val: u64,
    armed: bool,
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if !self.armed && self.slot.is_none() {
            return;
        }
        let dur = now_ns().saturating_sub(self.start_ns);
        if let Some(slot) = self.slot {
            slot.fetch_add(dur, Ordering::Relaxed);
        }
        if self.armed {
            let (meta, start, val) = (self.meta, self.start_ns, self.arg_val);
            // During thread teardown the TLS ring may already be destroyed;
            // dropping the event beats aborting the process.
            let _ = RING.try_with(|r| r.push(meta, start, dur, val));
        }
    }
}

/// Start a span (`slot: None`) or a phase guard at a static call site.
/// Prefer the [`span!`](crate::span) and [`phase!`](crate::phase) macros, which declare the `Site`
/// statics for you.
#[inline]
pub fn span_at<'a>(
    slot: Option<&'a AtomicU64>,
    site: &'static Site,
    arg: Option<(&'static Site, u64)>,
) -> Span<'a> {
    let armed = ENABLED.load(Ordering::Relaxed);
    let (meta, arg_val) = match (armed, arg) {
        (false, _) => (0, 0),
        (true, Some((k, v))) => ((site.id() as u64) << 32 | k.id() as u64, v),
        (true, None) => ((site.id() as u64) << 32 | NO_KEY as u64, 0),
    };
    let start_ns = if armed || slot.is_some() { now_ns() } else { 0 };
    Span {
        slot,
        meta,
        start_ns,
        arg_val,
        armed,
    }
}

/// Record a timed span over the enclosing scope:
///
/// ```
/// # fn build_tree() {}
/// let _span = parclust_obs::span!("kdtree.build");
/// let _span = parclust_obs::span!("wspd.batch", pairs = 128usize);
/// build_tree();
/// ```
///
/// The optional `key = value` argument is stored as a `u64` and exported
/// into the Chrome-trace `args` object.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $val:expr)?) => {
        $crate::__span_at!(::core::option::Option::None, $name $(, $key = $val)?)
    };
}

/// A phase guard: a [`span!`](crate::span) that always reads the clock and adds its
/// duration to the `&AtomicU64` nanosecond slot given first, e.g.
/// `phase!(&rec.wspd, "wspd.get_rho", beta = beta)`. The slot is thus
/// exactly the sum of its spans' durations.
#[macro_export]
macro_rules! phase {
    ($slot:expr, $name:literal $(, $key:ident = $val:expr)?) => {
        $crate::__span_at!(::core::option::Option::Some($slot), $name $(, $key = $val)?)
    };
}

/// The body of `span!` and `phase!`: one static `Site` per call site
/// (plus one for the argument key, if any).
#[doc(hidden)]
#[macro_export]
macro_rules! __span_at {
    ($slot:expr, $name:literal $(, $key:ident = $val:expr)?) => {{
        static __PARCLUST_SITE: $crate::trace::Site = $crate::trace::Site::new($name);
        let arg = ::core::option::Option::None $(.or({
            static __PARCLUST_KEY: $crate::trace::Site =
                $crate::trace::Site::new(::core::stringify!($key));
            ::core::option::Option::Some((&__PARCLUST_KEY, ($val) as u64))
        }))?;
        $crate::trace::span_at($slot, &__PARCLUST_SITE, arg)
    }};
}

/// Serializes the unit tests that flip the process-wide [`ENABLED`] flag:
/// the test harness runs them on parallel threads, and one test's
/// `disable` must not land inside another's enabled window.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _flag = TEST_FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disable();
        let before: u64 = rings()
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.head.load(Ordering::Acquire))
            .sum();
        {
            let _s = crate::span!("test.disabled");
        }
        let after: u64 = rings()
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.head.load(Ordering::Acquire))
            .sum();
        assert_eq!(before, after);
    }

    #[test]
    fn site_interning_is_idempotent() {
        static S: Site = Site::new("test.intern");
        let a = S.id();
        let b = S.id();
        assert_eq!(a, b);
        assert_eq!(names().lock().unwrap()[a as usize], "test.intern");
        // A second Site with the same name resolves to the same id.
        static S2: Site = Site::new("test.intern");
        assert_eq!(S2.id(), a);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = Ring::with_capacity(4);
        for i in 0..6u64 {
            r.push(i, i, i, i);
        }
        assert_eq!(r.head.load(Ordering::Acquire), 6);
        // Newest 4 events are 2..6; event i lands in slot i & (cap - 1).
        for i in 2..6u64 {
            assert_eq!(r.slots[i as usize % 4].words[0].load(Ordering::Relaxed), i);
        }
    }
}
