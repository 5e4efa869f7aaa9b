//! The pure attribute-space state machine.
//!
//! Every operation takes the calling client's id and returns the list of
//! replies to emit, as `(ClientId, Reply)` pairs — a blocked `get` emits
//! nothing now and a `Value` later, when some `put` satisfies it. The
//! networked server is a thin shell over this type; all protocol
//! invariants (context refcounting, waiter wake-up, one-shot
//! subscriptions, persistent watches, disconnect cleanup) live here
//! where they can be unit- and property-tested without threads.

use std::collections::HashMap;
use tdp_proto::attr::{validate_key, validate_value};
use tdp_proto::{ContextId, Reply, TdpError};

/// Server-local identity of a connected client.
pub type ClientId = u64;

/// A reply to route to a client.
pub type Out = (ClientId, Reply);

/// Notification registrations of one kind: key → (client, token).
type Registrations = HashMap<String, Vec<(ClientId, u64)>>;

/// Drop every registration `gone` matches, and keys left with none.
fn drop_registrations(regs: &mut Registrations, gone: impl Fn(ClientId, u64) -> bool) {
    for list in regs.values_mut() {
        list.retain(|&(client, token)| !gone(client, token));
    }
    regs.retain(|_, list| !list.is_empty());
}

/// One context's state.
#[derive(Default)]
struct Ctx {
    attrs: HashMap<String, String>,
    /// Clients currently joined (refcount with identity, so a client
    /// crash can release exactly its own references).
    members: Vec<ClientId>,
    /// Parked blocking gets: key → waiters.
    waiters: HashMap<String, Vec<ClientId>>,
    /// One-shot subscriptions, consumed by the put that fires them.
    subs: Registrations,
    /// Persistent watches, fired by every put and never consumed.
    watches: Registrations,
}

/// The attribute space: a set of reference-counted contexts.
#[derive(Default)]
pub struct Space {
    contexts: HashMap<ContextId, Ctx>,
}

impl Space {
    pub fn new() -> Space {
        Space::default()
    }

    /// Number of live contexts (diagnostics).
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Is the client a member of the context?
    fn member(&self, client: ClientId, ctx: ContextId) -> Result<&Ctx, TdpError> {
        match self.contexts.get(&ctx) {
            Some(c) if c.members.contains(&client) => Ok(c),
            _ => Err(TdpError::NoSuchContext(ctx)),
        }
    }

    fn member_mut(&mut self, client: ClientId, ctx: ContextId) -> Result<&mut Ctx, TdpError> {
        match self.contexts.get_mut(&ctx) {
            Some(c) if c.members.contains(&client) => Ok(c),
            _ => Err(TdpError::NoSuchContext(ctx)),
        }
    }

    /// `tdp_init`: join (creating on first join) a context.
    pub fn join(&mut self, client: ClientId, ctx: ContextId) -> Vec<Out> {
        self.contexts.entry(ctx).or_default().members.push(client);
        vec![(client, Reply::Ok)]
    }

    /// `tdp_exit`: leave a context; the last leaver destroys it. Parked
    /// getters of a destroyed context receive an error (their daemon
    /// would otherwise hang forever on a dead space). A client that
    /// drops its last reference to a surviving context loses its
    /// subscriptions and watches there; its parked getters stay parked.
    pub fn leave(&mut self, client: ClientId, ctx: ContextId) -> Vec<Out> {
        let Some(c) = self.contexts.get_mut(&ctx) else {
            return vec![(client, Reply::Err(TdpError::NoSuchContext(ctx)))];
        };
        let Some(pos) = c.members.iter().position(|&m| m == client) else {
            return vec![(client, Reply::Err(TdpError::NoSuchContext(ctx)))];
        };
        c.members.remove(pos);
        if !c.members.contains(&client) {
            drop_registrations(&mut c.subs, |cl, _| cl == client);
            drop_registrations(&mut c.watches, |cl, _| cl == client);
        }
        let mut out = vec![(client, Reply::Ok)];
        if c.members.is_empty() {
            let c = self.contexts.remove(&ctx).expect("present");
            for (_key, ws) in c.waiters {
                for w in ws {
                    out.push((w, Reply::Err(TdpError::NoSuchContext(ctx))));
                }
            }
        }
        out
    }

    /// `tdp_put`: validate and store, waking blocked getters, firing
    /// (and consuming) subscriptions and firing watches on the key.
    pub fn put(&mut self, client: ClientId, ctx: ContextId, key: &str, value: &str) -> Vec<Out> {
        if let Err(e) = validate_key(key) {
            return vec![(client, Reply::Err(e))];
        }
        if let Err(e) = validate_value(value) {
            return vec![(client, Reply::Err(e))];
        }
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        c.attrs.insert(key.to_string(), value.to_string());
        let mut out = vec![(client, Reply::Ok)];
        if let Some(waiters) = c.waiters.remove(key) {
            for w in waiters {
                out.push((
                    w,
                    Reply::Value {
                        key: key.to_string(),
                        value: value.to_string(),
                    },
                ));
            }
        }
        let notify = |token| Reply::Notify {
            token,
            key: key.to_string(),
            value: value.to_string(),
        };
        if let Some(subs) = c.subs.remove(key) {
            out.extend(subs.into_iter().map(|(s, token)| (s, notify(token))));
        }
        if let Some(watches) = c.watches.get(key) {
            out.extend(watches.iter().map(|&(w, token)| (w, notify(token))));
        }
        out
    }

    /// `tdp_get`: return the value; when `blocking` and absent, park the
    /// caller (no reply now — a future put answers).
    pub fn get(&mut self, client: ClientId, ctx: ContextId, key: &str, blocking: bool) -> Vec<Out> {
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        if let Some(v) = c.attrs.get(key) {
            return vec![(
                client,
                Reply::Value {
                    key: key.to_string(),
                    value: v.clone(),
                },
            )];
        }
        if blocking {
            c.waiters.entry(key.to_string()).or_default().push(client);
            Vec::new()
        } else {
            vec![(
                client,
                Reply::Err(TdpError::AttributeNotFound(key.to_string())),
            )]
        }
    }

    /// Remove an attribute (succeeds even when absent).
    pub fn remove(&mut self, client: ClientId, ctx: ContextId, key: &str) -> Vec<Out> {
        match self.member_mut(client, ctx) {
            Ok(c) => {
                c.attrs.remove(key);
                vec![(client, Reply::Ok)]
            }
            Err(e) => vec![(client, Reply::Err(e))],
        }
    }

    /// One-shot subscription. With `only_future` false (the
    /// `tdp_async_get` case): if the key already has a value, notify
    /// immediately; otherwise notify on the next put. With it true the
    /// current value is skipped and only a subsequent put fires. Either
    /// way the subscription is consumed by its notification. The
    /// immediate `Ok` acknowledges registration (the `tdp_async_get`
    /// call returning).
    pub fn subscribe(
        &mut self,
        client: ClientId,
        ctx: ContextId,
        key: &str,
        token: u64,
        only_future: bool,
    ) -> Vec<Out> {
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        let mut out = vec![(client, Reply::Ok)];
        match c.attrs.get(key) {
            Some(v) if !only_future => {
                out.push((
                    client,
                    Reply::Notify {
                        token,
                        key: key.to_string(),
                        value: v.clone(),
                    },
                ));
            }
            _ => {
                c.subs
                    .entry(key.to_string())
                    .or_default()
                    .push((client, token));
            }
        }
        out
    }

    /// Persistent watch: notify at once if the key already has a value,
    /// then on every put of the key, until the client unsubscribes the
    /// token, disconnects, leaves the context for the last time or the
    /// context is destroyed. `remove` does not fire it.
    pub fn watch(&mut self, client: ClientId, ctx: ContextId, key: &str, token: u64) -> Vec<Out> {
        let c = match self.member_mut(client, ctx) {
            Ok(c) => c,
            Err(e) => return vec![(client, Reply::Err(e))],
        };
        let mut out = vec![(client, Reply::Ok)];
        if let Some(v) = c.attrs.get(key) {
            out.push((
                client,
                Reply::Notify {
                    token,
                    key: key.to_string(),
                    value: v.clone(),
                },
            ));
        }
        c.watches
            .entry(key.to_string())
            .or_default()
            .push((client, token));
        out
    }

    /// Cancel one of the client's pending subscriptions or watches by
    /// token.
    pub fn unsubscribe(&mut self, client: ClientId, ctx: ContextId, token: u64) -> Vec<Out> {
        match self.member_mut(client, ctx) {
            Ok(c) => {
                let gone = |cl, t| cl == client && t == token;
                drop_registrations(&mut c.subs, gone);
                drop_registrations(&mut c.watches, gone);
                vec![(client, Reply::Ok)]
            }
            Err(e) => vec![(client, Reply::Err(e))],
        }
    }

    /// Keys with the given prefix, sorted.
    pub fn list_keys(&mut self, client: ClientId, ctx: ContextId, prefix: &str) -> Vec<Out> {
        match self.member(client, ctx) {
            Ok(c) => {
                let mut keys: Vec<String> = c
                    .attrs
                    .keys()
                    .filter(|k| k.starts_with(prefix))
                    .cloned()
                    .collect();
                keys.sort();
                vec![(client, Reply::Keys(keys))]
            }
            Err(e) => vec![(client, Reply::Err(e))],
        }
    }

    /// A client's connection dropped: implicitly leave every joined
    /// context (a crashed daemon must not pin a context alive — §3.2's
    /// destroy-on-last-exit would otherwise never trigger), and discard
    /// its parked gets, subscriptions and watches.
    pub fn disconnect(&mut self, client: ClientId) -> Vec<Out> {
        let mut out = Vec::new();
        let ctx_ids: Vec<ContextId> = self.contexts.keys().copied().collect();
        for id in ctx_ids {
            let c = self.contexts.get_mut(&id).expect("present");
            for ws in c.waiters.values_mut() {
                ws.retain(|&w| w != client);
            }
            c.waiters.retain(|_, v| !v.is_empty());
            drop_registrations(&mut c.subs, |cl, _| cl == client);
            drop_registrations(&mut c.watches, |cl, _| cl == client);
            // Release every reference this client held (it may have
            // joined the same context more than once).
            while let Some(pos) = c.members.iter().position(|&m| m == client) {
                c.members.remove(pos);
            }
            if c.members.is_empty() {
                let c = self.contexts.remove(&id).expect("present");
                for (_key, ws) in c.waiters {
                    for w in ws {
                        out.push((w, Reply::Err(TdpError::NoSuchContext(id))));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: ContextId = ContextId(1);
    const RM: ClientId = 10;
    const RT: ClientId = 20;

    fn joined() -> Space {
        let mut s = Space::new();
        s.join(RM, CTX);
        s.join(RT, CTX);
        s
    }

    #[test]
    fn put_then_get() {
        let mut s = joined();
        assert_eq!(s.put(RM, CTX, "pid", "42"), vec![(RM, Reply::Ok)]);
        assert_eq!(
            s.get(RT, CTX, "pid", false),
            vec![(
                RT,
                Reply::Value {
                    key: "pid".into(),
                    value: "42".into()
                }
            )]
        );
    }

    #[test]
    fn nonblocking_get_of_absent_attr_errors() {
        let mut s = joined();
        assert_eq!(
            s.get(RT, CTX, "pid", false),
            vec![(RT, Reply::Err(TdpError::AttributeNotFound("pid".into())))]
        );
    }

    #[test]
    fn blocking_get_parks_until_put() {
        // The Figure 6 Step 3 interaction: paradynd blocks on "pid"
        // until the starter puts it.
        let mut s = joined();
        assert!(
            s.get(RT, CTX, "pid", true).is_empty(),
            "must park, not reply"
        );
        let out = s.put(RM, CTX, "pid", "42");
        assert!(out.contains(&(RM, Reply::Ok)));
        assert!(out.contains(&(
            RT,
            Reply::Value {
                key: "pid".into(),
                value: "42".into()
            }
        )));
    }

    #[test]
    fn multiple_waiters_all_wake() {
        let mut s = joined();
        s.join(30, CTX);
        assert!(s.get(RT, CTX, "k", true).is_empty());
        assert!(s.get(30, CTX, "k", true).is_empty());
        let out = s.put(RM, CTX, "k", "v");
        let woken: Vec<ClientId> = out
            .iter()
            .filter(|(_, r)| matches!(r, Reply::Value { .. }))
            .map(|&(c, _)| c)
            .collect();
        assert_eq!(woken.len(), 2);
        assert!(woken.contains(&RT) && woken.contains(&30));
    }

    #[test]
    fn overwrite_updates_value() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v1");
        s.put(RM, CTX, "k", "v2");
        assert_eq!(
            s.get(RT, CTX, "k", false),
            vec![(
                RT,
                Reply::Value {
                    key: "k".into(),
                    value: "v2".into()
                }
            )]
        );
    }

    #[test]
    fn remove_then_get_errors() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v");
        assert_eq!(s.remove(RM, CTX, "k"), vec![(RM, Reply::Ok)]);
        assert!(matches!(s.get(RT, CTX, "k", false)[0].1, Reply::Err(_)));
        // Removing again is still Ok.
        assert_eq!(s.remove(RM, CTX, "k"), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn operations_require_membership() {
        let mut s = Space::new();
        s.join(RM, CTX);
        // RT never joined.
        assert!(matches!(
            s.put(RT, CTX, "k", "v")[0].1,
            Reply::Err(TdpError::NoSuchContext(_))
        ));
        assert!(matches!(s.get(RT, CTX, "k", false)[0].1, Reply::Err(_)));
        assert!(matches!(
            s.subscribe(RT, CTX, "k", 1, false)[0].1,
            Reply::Err(_)
        ));
    }

    #[test]
    fn contexts_are_isolated() {
        let mut s = Space::new();
        let (c1, c2) = (ContextId(1), ContextId(2));
        s.join(RM, c1);
        s.join(RM, c2);
        s.put(RM, c1, "k", "in-c1");
        assert!(matches!(s.get(RM, c2, "k", false)[0].1, Reply::Err(_)));
    }

    #[test]
    fn last_leave_destroys_context() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v");
        s.leave(RT, CTX);
        assert_eq!(s.context_count(), 1);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 0);
        // A rejoin sees a fresh, empty space.
        s.join(RM, CTX);
        assert!(matches!(s.get(RM, CTX, "k", false)[0].1, Reply::Err(_)));
    }

    #[test]
    fn destroying_context_fails_parked_getters() {
        let mut s = joined();
        assert!(s.get(RT, CTX, "never", true).is_empty());
        s.leave(RT, CTX); // RT leaves while still parked (bad client, but legal)
        let out = s.leave(RM, CTX);
        assert!(out.contains(&(RT, Reply::Err(TdpError::NoSuchContext(CTX)))));
    }

    #[test]
    fn leave_without_join_errors() {
        let mut s = Space::new();
        assert!(matches!(s.leave(RM, CTX)[0].1, Reply::Err(_)));
    }

    #[test]
    fn double_join_needs_double_leave() {
        // An RM managing several RTs may tdp_init the same context
        // twice; the space must survive one tdp_exit.
        let mut s = Space::new();
        s.join(RM, CTX);
        s.join(RM, CTX);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 1);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 0);
    }

    #[test]
    fn subscribe_fires_on_next_put_once() {
        let mut s = joined();
        let out = s.subscribe(RT, CTX, "status", 7, false);
        assert_eq!(out, vec![(RT, Reply::Ok)]);
        let out = s.put(RM, CTX, "status", "running");
        assert!(out.contains(&(
            RT,
            Reply::Notify {
                token: 7,
                key: "status".into(),
                value: "running".into()
            }
        )));
        // One-shot: second put does not notify.
        let out = s.put(RM, CTX, "status", "stopped");
        assert!(!out.iter().any(|(_, r)| matches!(r, Reply::Notify { .. })));
    }

    #[test]
    fn subscribe_to_existing_value_fires_immediately() {
        let mut s = joined();
        s.put(RM, CTX, "pid", "42");
        let out = s.subscribe(RT, CTX, "pid", 9, false);
        assert_eq!(out[0], (RT, Reply::Ok));
        assert_eq!(
            out[1],
            (
                RT,
                Reply::Notify {
                    token: 9,
                    key: "pid".into(),
                    value: "42".into()
                }
            )
        );
    }

    #[test]
    fn unsubscribe_cancels() {
        let mut s = joined();
        s.subscribe(RT, CTX, "k", 3, false);
        s.unsubscribe(RT, CTX, 3);
        let out = s.put(RM, CTX, "k", "v");
        assert!(!out.iter().any(|(_, r)| matches!(r, Reply::Notify { .. })));
    }

    fn notifies(out: &[Out]) -> Vec<(ClientId, u64, String)> {
        out.iter()
            .filter_map(|(c, r)| match r {
                Reply::Notify { token, value, .. } => Some((*c, *token, value.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn watch_fires_on_every_put() {
        let mut s = joined();
        assert_eq!(s.watch(RT, CTX, "status", 4), vec![(RT, Reply::Ok)]);
        for v in ["running", "stopped", "running"] {
            let out = s.put(RM, CTX, "status", v);
            assert_eq!(notifies(&out), vec![(RT, 4, v.to_string())]);
        }
        // Other keys do not fire it.
        assert!(notifies(&s.put(RM, CTX, "other", "x")).is_empty());
    }

    #[test]
    fn watch_on_existing_value_fires_at_once() {
        let mut s = joined();
        s.put(RM, CTX, "pid", "42");
        let out = s.watch(RT, CTX, "pid", 5);
        assert_eq!(out[0], (RT, Reply::Ok));
        assert_eq!(notifies(&out), vec![(RT, 5, "42".to_string())]);
        // ... and keeps firing afterwards.
        let out = s.put(RM, CTX, "pid", "43");
        assert_eq!(notifies(&out), vec![(RT, 5, "43".to_string())]);
    }

    #[test]
    fn remove_does_not_fire_watch() {
        let mut s = joined();
        s.put(RM, CTX, "k", "v");
        s.watch(RT, CTX, "k", 6);
        assert_eq!(s.remove(RM, CTX, "k"), vec![(RM, Reply::Ok)]);
        // Still registered: the next put fires it.
        assert_eq!(
            notifies(&s.put(RM, CTX, "k", "w")),
            vec![(RT, 6, "w".to_string())]
        );
    }

    #[test]
    fn unsubscribe_cancels_watch() {
        let mut s = joined();
        s.watch(RT, CTX, "k", 3);
        s.watch(RT, CTX, "k", 8);
        assert_eq!(s.unsubscribe(RT, CTX, 3), vec![(RT, Reply::Ok)]);
        assert_eq!(
            notifies(&s.put(RM, CTX, "k", "v")),
            vec![(RT, 8, "v".to_string())]
        );
    }

    #[test]
    fn disconnect_drops_watch() {
        let mut s = joined();
        s.watch(RT, CTX, "k", 3);
        s.disconnect(RT);
        assert_eq!(s.put(RM, CTX, "k", "v"), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn context_destruction_drops_watch() {
        let mut s = joined();
        s.watch(RT, CTX, "k", 3);
        s.leave(RT, CTX);
        s.leave(RM, CTX);
        assert_eq!(s.context_count(), 0);
        // A rejoined context starts without the old watch.
        s.join(RM, CTX);
        s.join(RT, CTX);
        assert_eq!(s.put(RM, CTX, "k", "v"), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn last_leave_of_a_member_drops_its_registrations() {
        let mut s = joined();
        s.join(RT, CTX);
        s.watch(RT, CTX, "k", 3);
        s.subscribe(RT, CTX, "k", 4, false);
        // RT joined twice: one leave keeps its registrations.
        s.leave(RT, CTX);
        let out = s.put(RM, CTX, "k", "v1");
        assert_eq!(
            notifies(&out),
            vec![(RT, 4, "v1".to_string()), (RT, 3, "v1".to_string())]
        );
        s.subscribe(RT, CTX, "k", 5, true);
        // The second leave drops the watch and the pending subscription.
        s.leave(RT, CTX);
        assert_eq!(s.context_count(), 1);
        assert_eq!(s.put(RM, CTX, "k", "v2"), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn list_keys_prefix_sorted() {
        let mut s = joined();
        s.put(RM, CTX, "mpi_rank_pid.1", "11");
        s.put(RM, CTX, "mpi_rank_pid.0", "10");
        s.put(RM, CTX, "other", "x");
        assert_eq!(
            s.list_keys(RT, CTX, "mpi_rank_pid."),
            vec![(
                RT,
                Reply::Keys(vec!["mpi_rank_pid.0".into(), "mpi_rank_pid.1".into()])
            )]
        );
    }

    #[test]
    fn put_validates_key_and_value() {
        let mut s = joined();
        assert!(matches!(
            s.put(RM, CTX, "", "v")[0].1,
            Reply::Err(TdpError::InvalidAttribute(_))
        ));
        assert!(matches!(
            s.put(RM, CTX, "k\0", "v")[0].1,
            Reply::Err(TdpError::InvalidAttribute(_))
        ));
        assert!(matches!(
            s.put(RM, CTX, "k", "v\0")[0].1,
            Reply::Err(TdpError::InvalidValue(_))
        ));
        // Empty value is legal.
        assert_eq!(s.put(RM, CTX, "k", ""), vec![(RM, Reply::Ok)]);
    }

    #[test]
    fn disconnect_releases_membership_and_waiters() {
        let mut s = joined();
        assert!(s.get(RT, CTX, "k", true).is_empty());
        s.disconnect(RT);
        // RT gone: its waiter must not receive the value later.
        let out = s.put(RM, CTX, "k", "v");
        assert_eq!(out, vec![(RM, Reply::Ok)]);
        // RM disconnect destroys the context.
        s.disconnect(RM);
        assert_eq!(s.context_count(), 0);
    }

    #[test]
    fn disconnect_of_nonmember_is_noop() {
        let mut s = joined();
        s.disconnect(999);
        assert_eq!(s.context_count(), 1);
    }
}
