//! Per-layer self time from the Chrome-trace spans of the traced pass.
//!
//! The benchmark wraps each call into a layer's public API in a span named
//! `layer.<metric stem>`. A layer's self time is its span's duration minus
//! the part of that interval covered by its child `layer.*` spans on the
//! same thread; spans the library records internally are not layers and
//! are ignored here (they still land in the written trace).

use parclust_obs::TraceEvent;
use std::collections::BTreeMap;

/// Prefix of the spans this benchmark records around layer calls.
pub const LAYER_PREFIX: &str = "layer.";

/// Self time in nanoseconds of every span whose name starts with
/// `prefix`, summed per name (without the prefix). Children are the
/// prefixed spans that start and end inside a span on the same thread.
pub fn self_times(events: &[TraceEvent], prefix: &str) -> BTreeMap<String, u64> {
    let mut by_tid: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.name.starts_with(prefix)) {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for mut evs in by_tid.into_values() {
        // Parents before children: earlier start first, longer span first
        // among equal starts.
        evs.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        // Open spans: (event, end, time covered by direct children).
        let mut stack: Vec<(&TraceEvent, u64, u64)> = Vec::new();
        let mut close = |(e, _, covered): (&TraceEvent, u64, u64)| {
            let name = e.name[prefix.len()..].to_string();
            *out.entry(name).or_default() += e.dur_ns.saturating_sub(covered);
        };
        for e in evs {
            let end = e.ts_ns + e.dur_ns;
            while let Some(&(_, top_end, _)) = stack.last() {
                if e.ts_ns >= top_end || end > top_end {
                    close(stack.pop().unwrap());
                } else {
                    break;
                }
            }
            if let Some(parent) = stack.last_mut() {
                parent.2 += e.dur_ns;
            }
            stack.push((e, end, 0));
        }
        while let Some(open) = stack.pop() {
            close(open);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            tid,
            ts_ns,
            dur_ns,
            arg: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a [0, 100) holds b [10, 50) which holds c [20, 30), and d [60, 70).
        let events = [
            ev("layer.a", 0, 0, 100),
            ev("layer.b", 0, 10, 40),
            ev("layer.c", 0, 20, 10),
            ev("layer.d", 0, 60, 10),
        ];
        let st = self_times(&events, LAYER_PREFIX);
        assert_eq!(st["a"], 100 - 40 - 10);
        assert_eq!(st["b"], 40 - 10);
        assert_eq!(st["c"], 10);
        assert_eq!(st["d"], 10);
        // Self times of a fully nested tree sum to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn other_threads_and_unprefixed_spans_are_not_children() {
        let events = [
            ev("layer.a", 0, 0, 100),
            ev("layer.b", 1, 10, 40),     // another thread
            ev("kdtree.build", 0, 5, 50), // library span, not a layer
        ];
        let st = self_times(&events, LAYER_PREFIX);
        assert_eq!(st["a"], 100);
        assert_eq!(st["b"], 40);
        assert!(!st.contains_key("kdtree.build"));
    }

    #[test]
    fn repeated_and_sibling_spans_sum_per_name() {
        let events = [
            ev("layer.q", 0, 0, 5),
            ev("layer.q", 0, 10, 7),
            ev("layer.q", 0, 17, 3), // starts where the previous one ends
        ];
        assert_eq!(self_times(&events, LAYER_PREFIX)["q"], 15);
    }
}
