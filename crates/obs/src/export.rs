//! Cold-path trace drain and Chrome-trace JSON export.
//!
//! The supported drain contract is *quiescent*: stop issuing spans (join
//! or idle your worker threads) before draining, otherwise an event whose
//! ring slot is being overwritten concurrently can read torn — wrong
//! values, never undefined behavior. `repro --trace` drains once after
//! all timed work completes.

use crate::trace::{self, NO_KEY, RING_CAP};
use std::sync::atomic::Ordering;

/// One drained span event. `tid` is the ring (thread) registration index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: &'static str,
    pub tid: u32,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub arg: Option<(&'static str, u64)>,
}

/// Drain every registered ring into a time-sorted event list. Each ring
/// yields its newest `RING_CAP` events (older ones were overwritten).
pub fn drain() -> Vec<TraceEvent> {
    let names = trace::names()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let rings = trace::rings()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut out = Vec::new();
    for (tid, ring) in rings.iter().enumerate() {
        let head = ring.head.load(Ordering::Acquire);
        let start = head.saturating_sub(RING_CAP as u64);
        for i in start..head {
            let slot = &ring.slots[i as usize & (ring.slots.len() - 1)];
            let w0 = slot.words[0].load(Ordering::Relaxed);
            let name_id = (w0 >> 32) as usize;
            let key_id = w0 as u32;
            let Some(&name) = names.get(name_id) else {
                continue; // torn or pre-enable slot; skip rather than lie
            };
            let arg = if key_id == NO_KEY {
                None
            } else {
                names
                    .get(key_id as usize)
                    .map(|&k| (k, slot.words[3].load(Ordering::Relaxed)))
            };
            out.push(TraceEvent {
                name,
                tid: tid as u32,
                ts_ns: slot.words[1].load(Ordering::Relaxed),
                dur_ns: slot.words[2].load(Ordering::Relaxed),
                arg,
            });
        }
    }
    out.sort_by_key(|e| (e.ts_ns, e.tid, e.dur_ns));
    out
}

/// Render events as Chrome trace format ("X" complete events, timestamps
/// in microseconds), loadable in `chrome://tracing` and Perfetto.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(e.name, &mut out);
        out.push_str("\",\"cat\":\"parclust\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        push_u64(e.tid as u64, &mut out);
        out.push_str(",\"ts\":");
        push_micros(e.ts_ns, &mut out);
        out.push_str(",\"dur\":");
        push_micros(e.dur_ns, &mut out);
        if let Some((key, val)) = e.arg {
            out.push_str(",\"args\":{\"");
            escape_into(key, &mut out);
            out.push_str("\":");
            push_u64(val, &mut out);
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Convenience: drain all rings and render in one call.
pub fn drain_chrome_json() -> String {
    to_chrome_json(&drain())
}

fn push_u64(v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

/// Nanoseconds rendered as fractional microseconds (`1234567` → `1234.567`).
fn push_micros(ns: u64, out: &mut String) {
    push_u64(ns / 1_000, out);
    let frac = ns % 1_000;
    out.push('.');
    out.push((b'0' + (frac / 100) as u8) as char);
    out.push((b'0' + (frac / 10 % 10) as u8) as char);
    out.push((b'0' + (frac % 10) as u8) as char);
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                let b = c as u32;
                out.push(char::from_digit(b >> 4, 16).unwrap_or('0'));
                out.push(char::from_digit(b & 0xf, 16).unwrap_or('0'));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_drain_in_time_order_with_args() {
        let _flag = crate::trace::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::trace::enable();
        {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner", pairs = 42usize);
        }
        crate::trace::disable();
        let events = drain();
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns, "outer starts first");
        assert!(outer.dur_ns >= inner.dur_ns, "outer encloses inner");
        assert_eq!(inner.arg, Some(("pairs", 42u64)));
        assert_eq!(outer.arg, None);
        let sorted: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let events = vec![
            TraceEvent {
                name: "a.b",
                tid: 0,
                ts_ns: 1_234_567,
                dur_ns: 890,
                arg: Some(("n", 7)),
            },
            TraceEvent {
                name: "weird\"name\\",
                tid: 3,
                ts_ns: 0,
                dur_ns: 0,
                arg: None,
            },
        ];
        let json = to_chrome_json(&events);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].get("name").unwrap().as_str(), Some("a.b"));
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            evs[0].get("ts").unwrap().as_f64().unwrap(),
            1234.567,
            "ns → µs"
        );
        assert_eq!(
            evs[0].get("args").unwrap().get("n").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            evs[1].get("name").unwrap().as_str(),
            Some("weird\"name\\"),
            "escaping round-trips"
        );
    }

    #[test]
    fn multithreaded_spans_get_distinct_tids() {
        let _flag = crate::trace::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::trace::enable();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _sp = crate::span!("test.mt");
                });
            }
        });
        crate::trace::disable();
        let events = drain();
        let tids: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.name == "test.mt")
            .map(|e| e.tid)
            .collect();
        assert!(tids.len() >= 2, "each thread records into its own ring");
    }
}
