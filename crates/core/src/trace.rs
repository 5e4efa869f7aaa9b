//! The TDP call trace.
//!
//! Figures 3 and 6 of the paper are *sequence diagrams*: orderings of
//! TDP calls across the RM, RT and AP. To reproduce them as tests rather
//! than pictures, every [`crate::TdpHandle`] records its calls into the
//! world's shared trace; figure tests then assert the observed order
//! (exact where the paper requires it, partial where creation order is
//! explicitly free — "the creation of the application process and RT can
//! occur in either order", Figure 3 caption).
//!
//! The trace is a ring of the newest [`TRACE_CAPACITY`] events, so a
//! long-lived world (a gateway, a chaos soak, a benchmark) holds a
//! bounded log. Sequence numbers stay global: an event keeps the number
//! of calls recorded before it, evicted ones included.

use std::collections::VecDeque;
use std::sync::Arc;
use tdp_sync::Mutex;

/// Events the trace keeps; recording one more evicts the oldest.
pub const TRACE_CAPACITY: usize = 4096;

/// One recorded TDP call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (0-based): how many events were recorded
    /// before this one, evicted ones included.
    pub seq: usize,
    /// Which daemon made the call ("starter", "paradynd", …).
    pub actor: String,
    /// Rendered call, e.g. `tdp_create_process(/bin/app, paused)`.
    pub call: String,
}

/// A shared log of the newest [`TRACE_CAPACITY`] TDP calls.
#[derive(Clone, Default)]
pub struct Trace {
    inner: Arc<Mutex<Ring>>,
}

#[derive(Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    /// Events recorded since creation or the last clear.
    recorded: usize,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Append an event, evicting the oldest when the ring is full.
    pub fn record(&self, actor: &str, call: impl Into<String>) {
        let mut event = TraceEvent {
            seq: 0,
            actor: actor.to_string(),
            call: call.into(),
        };
        let evicted = {
            let mut ring = self.inner.lock();
            event.seq = ring.recorded;
            ring.recorded += 1;
            let evicted = if ring.events.len() == TRACE_CAPACITY {
                ring.events.pop_front()
            } else {
                None
            };
            ring.events.push_back(event);
            evicted
        };
        // Free the evicted strings after the lock is released.
        drop(evicted);
    }

    /// Snapshot of the events the ring holds, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Events made by one actor, in order.
    pub fn by_actor(&self, actor: &str) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .events
            .iter()
            .filter(|e| e.actor == actor)
            .cloned()
            .collect()
    }

    /// Sequence number of the first event whose rendered call contains
    /// `needle` (optionally restricted to an actor).
    pub fn seq_of(&self, actor: Option<&str>, needle: &str) -> Option<usize> {
        self.inner
            .lock()
            .events
            .iter()
            .find(|e| actor.is_none_or(|a| e.actor == a) && e.call.contains(needle))
            .map(|e| e.seq)
    }

    /// Assert that `earlier` happens before `later` (both matched by
    /// substring, optionally per-actor). Panics with the full trace on
    /// failure — the test-facing primitive for sequence-diagram checks.
    #[track_caller]
    pub fn assert_order(&self, earlier: (Option<&str>, &str), later: (Option<&str>, &str)) {
        let a = self.seq_of(earlier.0, earlier.1);
        let b = self.seq_of(later.0, later.1);
        match (a, b) {
            (Some(a), Some(b)) if a < b => {}
            _ => panic!(
                "expected {:?} before {:?}; a={a:?} b={b:?}\ntrace:\n{}",
                earlier,
                later,
                self.render()
            ),
        }
    }

    /// Human-readable rendering, one call per line.
    pub fn render(&self) -> String {
        self.inner
            .lock()
            .events
            .iter()
            .map(|e| format!("{:4}  {:<12} {}", e.seq, e.actor, e.call))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Drop all events and restart sequence numbers at 0.
    pub fn clear(&self) {
        let events = {
            let mut ring = self.inner.lock();
            ring.recorded = 0;
            std::mem::take(&mut ring.events)
        };
        drop(events);
    }

    /// Render the trace as an ASCII sequence diagram over the given
    /// actor lifelines (events of other actors are omitted) — how the
    /// examples regenerate the paper's Figures 3 and 6 from a live run.
    ///
    /// Actors matching a name exactly come first; an entry ending in
    /// `*` matches by prefix (e.g. `paradynd*`).
    pub fn render_sequence(&self, actors: &[&str]) -> String {
        let events = self.events();
        let matches = |actor: &str, pat: &str| {
            pat.strip_suffix('*')
                .map_or(actor == pat, |p| actor.starts_with(p))
        };
        let widest_call = events
            .iter()
            .filter(|e| actors.iter().any(|a| matches(&e.actor, a)))
            .map(|e| e.call.len())
            .max()
            .unwrap_or(0);
        let col_width = actors
            .iter()
            .map(|a| a.len())
            .max()
            .unwrap_or(8)
            .max(widest_call)
            .max(16)
            + 4;
        let mut out = String::new();
        // Header lifelines.
        for a in actors {
            out.push_str(&format!("{a:^col_width$}"));
        }
        out.push('\n');
        for _ in actors {
            out.push_str(&format!("{:^col_width$}", "|"));
        }
        out.push('\n');
        for ev in &events {
            let Some(col) = actors.iter().position(|a| matches(&ev.actor, a)) else {
                continue;
            };
            for (i, _) in actors.iter().enumerate() {
                if i == col {
                    out.push_str(&format!("{:^col_width$}", ev.call));
                } else {
                    out.push_str(&format!("{:^col_width$}", "|"));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_seq() {
        let t = Trace::new();
        t.record("rm", "tdp_init()");
        t.record("rt", "tdp_get(pid)");
        let ev = t.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[1].seq, 1);
        assert_eq!(ev[1].actor, "rt");
    }

    #[test]
    fn by_actor_filters() {
        let t = Trace::new();
        t.record("rm", "a");
        t.record("rt", "b");
        t.record("rm", "c");
        let rm = t.by_actor("rm");
        assert_eq!(
            rm.iter().map(|e| e.call.as_str()).collect::<Vec<_>>(),
            vec!["a", "c"]
        );
    }

    #[test]
    fn assert_order_passes_and_fails() {
        let t = Trace::new();
        t.record("rm", "tdp_init()");
        t.record("rt", "tdp_attach(5)");
        t.assert_order((Some("rm"), "tdp_init"), (Some("rt"), "tdp_attach"));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.assert_order((Some("rt"), "tdp_attach"), (Some("rm"), "tdp_init"))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn ring_keeps_newest_events_with_global_seq() {
        let n = 5;
        let t = Trace::new();
        for i in 0..TRACE_CAPACITY + n {
            t.record("rm", format!("call{i};"));
        }
        let ev = t.events();
        assert_eq!(ev.len(), TRACE_CAPACITY);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, n + i);
            assert_eq!(e.call, format!("call{};", n + i));
        }
        // Queries see only what the ring holds, under global numbers.
        assert_eq!(t.seq_of(None, "call4;"), None);
        assert_eq!(t.seq_of(Some("rm"), "call4100;"), Some(4100));
        t.assert_order((None, "call6;"), (None, "call7;"));
    }

    #[test]
    fn seq_of_missing_is_none() {
        let t = Trace::new();
        assert_eq!(t.seq_of(None, "nothing"), None);
    }

    #[test]
    fn clear_resets() {
        let t = Trace::new();
        t.record("x", "y");
        t.clear();
        assert!(t.events().is_empty());
    }

    #[test]
    fn sequence_diagram_renders_lifelines() {
        let t = Trace::new();
        t.record("starter", "tdp_init()");
        t.record("paradynd7", "tdp_get(pid)");
        t.record("ignored", "tdp_put(x)");
        t.record("starter", "tdp_put(pid)");
        let d = t.render_sequence(&["starter", "paradynd*"]);
        let lines: Vec<&str> = d.lines().collect();
        // Header + lifeline row + 3 matched events (ignored actor is
        // filtered out).
        assert_eq!(lines.len(), 5, "{d}");
        assert!(lines[0].contains("starter") && lines[0].contains("paradynd*"));
        assert!(lines[2].contains("tdp_init()"));
        assert!(lines[3].contains("tdp_get(pid)"));
        assert!(lines[4].contains("tdp_put(pid)"));
        assert!(!d.contains("tdp_put(x)"));
        // The event appears in its own column: the get line still has a
        // lifeline bar for the starter column.
        assert!(lines[3].trim_start().starts_with('|'));
    }
}
