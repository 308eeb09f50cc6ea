//! Phase-guard contract: every guard adds its duration to its own slot,
//! and with tracing on it records one span whose duration is exactly what
//! it added. These tests only ever enable tracing, so they live in their
//! own binary, apart from the unit tests that toggle it off.

use parclust_obs::export::drain;
use parclust_obs::{phase, span, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Events this thread has recorded, found through a marker span.
fn my_events(marker: &'static str) -> Vec<TraceEvent> {
    drop(span!("test.phase.marker"));
    let events = drain();
    let me = events
        .iter()
        .rev()
        .find(|e| e.name == "test.phase.marker")
        .expect("marker span recorded")
        .tid;
    events
        .into_iter()
        .filter(|e| e.tid == me && e.name == marker)
        .collect()
}

#[test]
fn slot_accumulates_across_phases() {
    let slot = AtomicU64::new(0);
    {
        let _p = phase!(&slot, "test.phase.accumulate");
    }
    let first = slot.load(Ordering::Relaxed);
    {
        let _p = phase!(&slot, "test.phase.accumulate");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(slot.load(Ordering::Relaxed) >= first + 2_000_000);
}

#[test]
fn traced_phases_sum_to_their_slot() {
    parclust_obs::trace::enable();
    let slot = AtomicU64::new(0);
    for beta in [2u64, 4, 8] {
        let _p = phase!(&slot, "test.phase.traced", beta = beta);
        std::thread::sleep(Duration::from_micros(50));
    }
    let mine = my_events("test.phase.traced");
    assert_eq!(mine.len(), 3, "one span per guard");
    assert_eq!(
        mine.iter().map(|e| e.dur_ns).sum::<u64>(),
        slot.load(Ordering::Relaxed)
    );
    let args: Vec<_> = mine.iter().map(|e| e.arg).collect();
    assert_eq!(args, [2, 4, 8].map(|b| Some(("beta", b))));
}
