//! Property tests on the pure attribute-space state machine: random
//! operation sequences must preserve the protocol invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use tdp_attrspace::Space;
use tdp_proto::{ContextId, Reply};

/// Watch tokens start here, so their notifications are told apart from
/// those of one-shot subscriptions (tokens `0..5`).
const WATCH_TOKENS: u64 = 100;

#[derive(Debug, Clone)]
enum Op {
    Join(u64, u64),
    Leave(u64, u64),
    Put(u64, u64, String, String),
    GetB(u64, u64, String),
    GetNb(u64, u64, String),
    Remove(u64, u64, String),
    Sub(u64, u64, String, u64),
    Watch(u64, u64, String, u64),
    Unsub(u64, u64, u64),
    Disconnect(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_over(4, 3, &["pid", "args", "status", "x"])
}

/// Operations over `clients` client ids, `ctxs` contexts and `keys`.
fn arb_op_over(clients: u64, ctxs: u64, keys: &[&'static str]) -> impl Strategy<Value = Op> {
    let client = 0..clients;
    let ctx = 0..ctxs;
    let key = proptest::sample::select(keys.to_vec());
    let val = proptest::sample::select(vec!["1", "2", "running", ""]);
    prop_oneof![
        (client.clone(), ctx.clone()).prop_map(|(c, x)| Op::Join(c, x)),
        (client.clone(), ctx.clone()).prop_map(|(c, x)| Op::Leave(c, x)),
        (client.clone(), ctx.clone(), key.clone(), val).prop_map(|(c, x, k, v)| Op::Put(
            c,
            x,
            k.to_string(),
            v.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone()).prop_map(|(c, x, k)| Op::GetB(
            c,
            x,
            k.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone()).prop_map(|(c, x, k)| Op::GetNb(
            c,
            x,
            k.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone()).prop_map(|(c, x, k)| Op::Remove(
            c,
            x,
            k.to_string()
        )),
        (client.clone(), ctx.clone(), key.clone(), 0u64..5).prop_map(|(c, x, k, t)| Op::Sub(
            c,
            x,
            k.to_string(),
            t
        )),
        (
            client.clone(),
            ctx.clone(),
            key,
            WATCH_TOKENS..WATCH_TOKENS + 3
        )
            .prop_map(|(c, x, k, t)| Op::Watch(c, x, k.to_string(), t)),
        (
            client.clone(),
            ctx.clone(),
            prop_oneof![0u64..5, WATCH_TOKENS..WATCH_TOKENS + 3]
        )
            .prop_map(|(c, x, t)| Op::Unsub(c, x, t)),
        client.prop_map(Op::Disconnect),
    ]
}

/// Reference model of context membership and live watches.
#[derive(Default)]
struct WatchModel {
    /// ctx → members, one entry per join.
    members: HashMap<u64, Vec<u64>>,
    /// Live watches as (client, ctx, key, token), one per registration.
    watches: Vec<(u64, u64, String, u64)>,
}

impl WatchModel {
    fn member(&self, c: u64, x: u64) -> bool {
        self.members.get(&x).is_some_and(|m| m.contains(&c))
    }

    /// Drop one of `c`'s references to `x` (all of them when `all`),
    /// and the watches that no longer have a member or a context.
    fn release(&mut self, c: u64, x: u64, all: bool) {
        let Some(m) = self.members.get_mut(&x) else {
            return;
        };
        while let Some(pos) = m.iter().position(|&cl| cl == c) {
            m.remove(pos);
            if !all {
                break;
            }
        }
        if !m.contains(&c) {
            self.watches.retain(|w| !(w.0 == c && w.1 == x));
        }
        if m.is_empty() {
            self.members.remove(&x);
            self.watches.retain(|w| w.1 != x);
        }
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Join(c, x) => self.members.entry(*x).or_default().push(*c),
            Op::Leave(c, x) => self.release(*c, *x, false),
            Op::Watch(c, x, k, t) if self.member(*c, *x) => {
                self.watches.push((*c, *x, k.clone(), *t));
            }
            Op::Unsub(c, x, t) if self.member(*c, *x) => {
                self.watches
                    .retain(|w| !(w.0 == *c && w.1 == *x && w.3 == *t));
            }
            Op::Disconnect(c) => {
                let ctxs: Vec<u64> = self.members.keys().copied().collect();
                for x in ctxs {
                    self.release(*c, x, true);
                }
            }
            _ => {}
        }
    }
}

proptest! {
    // Cheap cases; many of them, so rare orders (a watcher leaving a
    // context that lives on, then a put) come up.
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    /// Every put by a member notifies each live watch on its key
    /// exactly once, with the value put — no matter how many puts came
    /// before or what joins, leaves, unsubscribes and disconnects came
    /// between.
    #[test]
    fn put_notifies_each_live_watch_once(
        ops in proptest::collection::vec(arb_op_over(3, 2, &["status", "pid"]), 1..120)
    ) {
        let mut s = Space::new();
        let mut model = WatchModel::default();
        for op in &ops {
            let outs = match op {
                Op::Join(c, x) => s.join(*c, ContextId(*x)),
                Op::Leave(c, x) => s.leave(*c, ContextId(*x)),
                Op::Put(c, x, k, v) => s.put(*c, ContextId(*x), k, v),
                Op::GetB(c, x, k) => s.get(*c, ContextId(*x), k, true),
                Op::GetNb(c, x, k) => s.get(*c, ContextId(*x), k, false),
                Op::Remove(c, x, k) => s.remove(*c, ContextId(*x), k),
                Op::Sub(c, x, k, t) => s.subscribe(*c, ContextId(*x), k, *t, false),
                Op::Watch(c, x, k, t) => s.watch(*c, ContextId(*x), k, *t),
                Op::Unsub(c, x, t) => s.unsubscribe(*c, ContextId(*x), *t),
                Op::Disconnect(c) => s.disconnect(*c),
            };
            if let Op::Put(c, x, k, v) = op {
                let mut expected: Vec<(u64, u64)> = if model.member(*c, *x) {
                    model
                        .watches
                        .iter()
                        .filter(|w| w.1 == *x && w.2 == *k)
                        .map(|w| (w.0, w.3))
                        .collect()
                } else {
                    Vec::new()
                };
                let mut got = Vec::new();
                for (dst, r) in &outs {
                    if let Reply::Notify { token, key, value } = r {
                        if *token >= WATCH_TOKENS {
                            prop_assert_eq!((key, value), (k, v));
                            got.push((*dst, *token));
                        }
                    }
                }
                expected.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, expected, "after {:?}", op);
            }
            model.apply(op);
        }
    }
}

proptest! {
    /// Replies are only ever addressed to clients that initiated an
    /// operation or were parked/subscribed — never to strangers — and a
    /// caller's own operation always yields at most one direct reply to
    /// itself per call.
    #[test]
    fn replies_routed_sanely(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut s = Space::new();
        let mut ever_seen = std::collections::HashSet::new();
        for op in ops {
            let outs = match &op {
                Op::Join(c, x) => { ever_seen.insert(*c); s.join(*c, ContextId(*x)) }
                Op::Leave(c, x) => { ever_seen.insert(*c); s.leave(*c, ContextId(*x)) }
                Op::Put(c, x, k, v) => { ever_seen.insert(*c); s.put(*c, ContextId(*x), k, v) }
                Op::GetB(c, x, k) => { ever_seen.insert(*c); s.get(*c, ContextId(*x), k, true) }
                Op::GetNb(c, x, k) => { ever_seen.insert(*c); s.get(*c, ContextId(*x), k, false) }
                Op::Remove(c, x, k) => { ever_seen.insert(*c); s.remove(*c, ContextId(*x), k) }
                Op::Sub(c, x, k, t) => { ever_seen.insert(*c); s.subscribe(*c, ContextId(*x), k, *t, false) }
                Op::Watch(c, x, k, t) => { ever_seen.insert(*c); s.watch(*c, ContextId(*x), k, *t) }
                Op::Unsub(c, x, t) => { ever_seen.insert(*c); s.unsubscribe(*c, ContextId(*x), *t) }
                Op::Disconnect(c) => { ever_seen.insert(*c); s.disconnect(*c) }
            };
            for (dst, _) in &outs {
                prop_assert!(ever_seen.contains(dst), "reply to never-seen client {dst}");
            }
        }
    }

    /// After disconnecting every client, no contexts survive.
    #[test]
    fn full_disconnect_empties_space(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut s = Space::new();
        for op in ops {
            match op {
                Op::Join(c, x) => { s.join(c, ContextId(x)); }
                Op::Leave(c, x) => { s.leave(c, ContextId(x)); }
                Op::Put(c, x, k, v) => { s.put(c, ContextId(x), &k, &v); }
                Op::GetB(c, x, k) => { s.get(c, ContextId(x), &k, true); }
                Op::GetNb(c, x, k) => { s.get(c, ContextId(x), &k, false); }
                Op::Remove(c, x, k) => { s.remove(c, ContextId(x), &k); }
                Op::Sub(c, x, k, t) => { s.subscribe(c, ContextId(x), &k, t, false); }
                Op::Watch(c, x, k, t) => { s.watch(c, ContextId(x), &k, t); }
                Op::Unsub(c, x, t) => { s.unsubscribe(c, ContextId(x), t); }
                Op::Disconnect(c) => { s.disconnect(c); }
            }
        }
        for c in 0..4 {
            s.disconnect(c);
        }
        prop_assert_eq!(s.context_count(), 0);
    }

    /// A non-blocking get immediately after a put by a co-member always
    /// sees the value, regardless of interleaved history on other keys.
    #[test]
    fn put_visible_to_comember(
        ops in proptest::collection::vec(arb_op(), 0..40),
        key in proptest::sample::select(vec!["pid", "args"]),
    ) {
        let mut s = Space::new();
        for op in ops {
            match op {
                Op::Join(c, x) => { s.join(c, ContextId(x)); }
                Op::Put(c, x, k, v) => { s.put(c, ContextId(x), &k, &v); }
                Op::Remove(c, x, k) => { s.remove(c, ContextId(x), &k); }
                Op::Disconnect(c) => { s.disconnect(c); }
                _ => {}
            }
        }
        // Use fresh client ids outside the 0..4 range so prior ops can't
        // have disconnected them.
        let (rm, rt) = (100, 101);
        let ctx = ContextId(9);
        s.join(rm, ctx);
        s.join(rt, ctx);
        s.put(rm, ctx, key, "fresh");
        let out = s.get(rt, ctx, key, false);
        prop_assert_eq!(out, vec![(rt, Reply::Value { key: key.to_string(), value: "fresh".to_string() })]);
    }
}
