//! `attr-events`: one driver thread owns a writer session (the RM) and a
//! watcher session (the tool) on an epoll world. The watcher holds
//! persistent watches on every status key; before some puts it also
//! registers fresh `async_get`s on the key. Each step is one `tdp_put`,
//! then `wait_and_service` until every expected callback has run: the
//! write-triggers-delivery direction of the same layers as `attr-rr`
//! (subscription fan-out, the client notify queue, re-subscribe round
//! trips and safe-point servicing, §3.3).

use crate::gen::Rng;
use crate::harness::{
    measure_trials, ns_since, process_metrics, run_phase, run_phase_reading_rss, setup_times,
    span_median_us, warm_up_for, Cfg, Fail, Limit, Report, Spans, Work, SETUPS_PER_TRIAL,
};
use crate::{measure, trace_len, write_spans};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tdp_attrspace::{AttrClient, Space};
use tdp_core::{Role, TdpHandle, World};
use tdp_proto::{ContextId, Reply, TdpResult};

/// Peak RSS is read once this many ops completed (about 3 s of the
/// measured phase on a 2-vCPU host), comparing memory at equal work.
const RSS_AFTER_OPS: u64 = 12_000;
const CTX: ContextId = ContextId(11);
/// The client rung's own context on the same LASS, so its puts never
/// reach the handles' watches.
const CLIENT_CTX: ContextId = ContextId(12);
const STATUS_KEYS: usize = 8;
/// Persistent watches per status key.
const WATCHES: usize = 3;
/// Longest a put may take to reach every callback before it counts as
/// failed.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(5);

fn status_key(k: usize) -> &'static str {
    [
        "status.0", "status.1", "status.2", "status.3", "status.4", "status.5", "status.6",
        "status.7",
    ][k]
}

/// One seeded step: which key is put, how many fresh `async_get`s wait
/// for it, and the value's length.
#[derive(Clone, Copy)]
struct Step {
    key: usize,
    fresh: usize,
    len: usize,
}

impl Step {
    fn expected(&self) -> usize {
        WATCHES + self.fresh
    }
}

/// The step stream and the value of the current step.
struct Steps {
    rng: Rng,
    seed: u64,
    stream: u64,
    n: u64,
    value: String,
}

impl Steps {
    fn new(seed: u64, stream: u64) -> Steps {
        Steps {
            rng: Rng::new(seed, stream),
            seed,
            stream,
            n: 0,
            value: String::new(),
        }
    }

    fn restart(&mut self, stream: u64) {
        *self = Steps {
            value: std::mem::take(&mut self.value),
            ..Steps::new(self.seed, stream)
        };
    }

    fn next_step(&mut self) -> Step {
        use std::fmt::Write;
        let step = Step {
            key: self.rng.below(STATUS_KEYS as u64) as usize,
            fresh: self.rng.below(3) as usize,
            len: self.rng.range(16, 256) as usize,
        };
        self.n += 1;
        self.value.clear();
        write!(self.value, "ev.{:010}.{:06}.", self.n, self.stream).expect("write to String");
        let fill = (b'a' + (self.n % 26) as u8) as char;
        let pad = step.len.saturating_sub(self.value.len());
        self.value.extend(std::iter::repeat_n(fill, pad));
        step
    }
}

/// What the callbacks saw for the current step.
#[derive(Default)]
struct Sink {
    key: &'static str,
    value: String,
    seen: usize,
    bad: usize,
}

type Shared = Arc<Mutex<Sink>>;

fn callback(sink: &Shared) -> impl FnMut(&str, &str) + Send + 'static {
    let sink = Arc::clone(sink);
    move |key, value| {
        let mut s = sink.lock().expect("sink lock");
        if key == s.key && value == s.value {
            s.seen += 1;
        } else {
            s.bad += 1;
        }
    }
}

struct Rig {
    world: World,
    host: tdp_proto::HostId,
    /// `[writer, watcher]`; one session plays both when `nproc` is 1.
    handles: Vec<TdpHandle>,
    steps: Steps,
    sink: Shared,
    spans: Option<Spans>,
    services: u64,
    callbacks: u64,
}

const MEASURED: u64 = 0;
const WARM_UP: u64 = 1;
/// Warm-up of each rung before its replay.
const RUNG_WARM_UP: Duration = Duration::from_millis(300);
/// Interleaved replay rounds per rung.
const ROUNDS: u64 = 4;

fn build(seed: u64, nproc: usize) -> TdpResult<Rig> {
    let world = World::new_epoll();
    let host = world.add_host();
    let mut handles = vec![TdpHandle::init(
        &world,
        host,
        CTX,
        "ev-rm",
        Role::ResourceManager,
    )?];
    if nproc >= 2 {
        handles.push(TdpHandle::init(&world, host, CTX, "ev-tool", Role::Tool)?);
    }
    let sink = Shared::default();
    let watcher = handles.last_mut().expect("a session");
    for k in 0..STATUS_KEYS {
        for _ in 0..WATCHES {
            watcher.watch(status_key(k), callback(&sink))?;
        }
    }
    Ok(Rig {
        world,
        host,
        handles,
        steps: Steps::new(seed, MEASURED),
        sink,
        spans: None,
        services: 0,
        callbacks: 0,
    })
}

impl Rig {
    /// One step through `TdpHandle`: put, then service events until
    /// every expected callback ran. Latency runs from the put to the
    /// last callback.
    fn step(&mut self) -> Result<u64, Fail> {
        let err = |e: tdp_proto::TdpError| Fail::Error(e.to_string());
        let step = self.steps.next_step();
        let key = status_key(step.key);
        let watcher = self.handles.len() - 1;
        if step.fresh > 0 {
            // Clear the key so each fresh async_get waits for this put.
            self.handles[0].remove(key).map_err(err)?;
            for _ in 0..step.fresh {
                let cb = callback(&self.sink);
                self.handles[watcher].async_get(key, cb).map_err(err)?;
            }
        }
        {
            let mut s = self.sink.lock().expect("sink lock");
            s.key = key;
            s.value.clone_from(&self.steps.value);
            (s.seen, s.bad) = (0, 0);
        }
        let t = Instant::now();
        self.handles[0].put(key, &self.steps.value).map_err(err)?;
        loop {
            let ts = Instant::now();
            let ran = self.handles[watcher]
                .wait_and_service(DELIVERY_TIMEOUT)
                .map_err(err)?;
            if let Some(spans) = &mut self.spans {
                spans.record("core.service", self.steps.n, ts, ns_since(ts));
                self.services += 1;
                self.callbacks += ran as u64;
            }
            let s = self.sink.lock().expect("sink lock");
            if s.seen + s.bad >= step.expected() {
                break;
            }
            if t.elapsed() > DELIVERY_TIMEOUT {
                return Err(Fail::Error(format!(
                    "put of {key}: {} of {} callbacks",
                    s.seen,
                    step.expected()
                )));
            }
        }
        let lat = ns_since(t);
        if let Some(spans) = &mut self.spans {
            spans.record("core.delivery", self.steps.n, t, lat);
        }
        let s = self.sink.lock().expect("sink lock");
        if s.bad > 0 || s.seen != step.expected() {
            return Err(Fail::Wrong(format!(
                "put of {key}: {} exact callbacks and {} wrong, expected {}",
                s.seen,
                s.bad,
                step.expected()
            )));
        }
        Ok(lat)
    }
}

/// Run the warm-up stream for `dur`, then rewind to the measured one.
fn warm(report: &mut Report, rigs: &mut [Rig; 1], dur: Duration) {
    rigs[0].steps.restart(WARM_UP);
    report.absorb(&run_phase(rigs, Limit::Time(dur), Rig::step));
    rigs[0].steps.restart(MEASURED);
}

pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    if !cfg.trace {
        measure_trials(
            cfg,
            &mut report,
            RSS_AFTER_OPS,
            |report, seed, share, rss_after| {
                let (rig, setups) = setup_times(SETUPS_PER_TRIAL, || {
                    build(seed, cfg.nproc).expect("attr-events set-up")
                });
                let mut rigs = [rig];
                warm(report, &mut rigs, warm_up_for(share));
                (
                    run_phase_reading_rss(&mut rigs, Limit::Time(share), rss_after, Rig::step),
                    setups,
                )
            },
        );
        return report;
    }
    let total = Duration::from_secs_f64(cfg.seconds);
    let mut rigs = [build(cfg.seed, cfg.nproc).expect("attr-events set-up")];
    warm(&mut report, &mut rigs, warm_up_for(total));
    let slice = total / 4;
    let plain = run_phase(&mut rigs, Limit::Time(slice), Rig::step);
    report.absorb(&plain);
    let steps = plain.op_counts()[0];
    let epoch = Instant::now();

    // Space rung: the same steps against the pure state machine.
    let mut space = SpaceRung::new(cfg.seed, epoch);
    for _ in 0..steps {
        if let Err(e) = space.step() {
            report.note_problem(format!("space rung: {e}"));
        }
    }
    report.metric(
        "space.op_ns",
        span_median_us(std::slice::from_ref(&space.spans), "space.put") * 1e3,
        "ns",
    );
    report.metric(
        "space.allocs_per_op",
        space.allocs as f64 / steps.max(1) as f64,
        "count",
    );
    report.metric(
        "space.outs_per_put",
        space.outs as f64 / steps.max(1) as f64,
        "count",
    );

    // Client rung: two raw attribute-space sessions doing what the
    // handles do, minus callbacks and the call trace. Handle rung: the
    // workload itself, traced. The two replay the steps in interleaved
    // rounds, so a slow spell of a shared host lands on both alike.
    let rig = &rigs[0];
    let lass = rig.world.lass_addr(rig.host).expect("LASS running");
    let mut client = [
        ClientRung::new(&rig.world, rig.host, lass, cfg.seed, cfg.nproc, epoch)
            .expect("client rung"),
    ];
    client[0].steps.restart(WARM_UP);
    report.absorb(&run_phase(
        &mut client,
        Limit::Time(RUNG_WARM_UP),
        ClientRung::step,
    ));
    client[0].steps.restart(MEASURED);
    client[0].spans.spans.clear();
    warm(&mut report, &mut rigs, RUNG_WARM_UP);
    rigs[0].spans = Some(Spans::new(0, epoch));
    let events0 = trace_len(&rigs[0].world);
    let (mut client_work, mut handle_work) = (Work::default(), Work::default());
    for round in 0..ROUNDS {
        let chunk = [steps * (round + 1) / ROUNDS - steps * round / ROUNDS];
        client_work.add(&mut report, &mut client, &chunk, ClientRung::step);
        handle_work.add(&mut report, &mut rigs, &chunk, Rig::step);
    }
    let events = trace_len(&rigs[0].world) - events0 - 1;
    let [client] = client;
    let reconnects: u64 = client.sessions.iter().map(AttrClient::reconnects).sum();
    drop(client.sessions);
    let rig = &mut rigs[0];
    let handle_spans = rig.spans.take().expect("traced");

    let client_us = span_median_us(std::slice::from_ref(&client.spans), "attrspace.delivery");
    let handle_us = span_median_us(std::slice::from_ref(&handle_spans), "core.delivery");
    report.metric("attrspace.client_op_us", client_us, "us");
    report.metric(
        "attrspace.allocs_per_op",
        client_work.allocs_per_op(),
        "count",
    );
    report.metric(
        "attrspace.server_threads",
        plain.census_peak[1] as f64,
        "count",
    );
    report.metric("attrspace.reconnects", reconnects as f64, "count");
    report.metric("core.handle_op_us", handle_us, "us");
    report.metric("core.handle_self_us", handle_us - client_us, "us");
    report.metric("core.allocs_per_op", handle_work.allocs_per_op(), "count");
    report.metric(
        "core.trace_events_per_op",
        events as f64 / handle_work.ops.max(1) as f64,
        "count",
    );
    report.metric(
        "core.service_us",
        span_median_us(std::slice::from_ref(&handle_spans), "core.service"),
        "us",
    );
    report.metric(
        "core.callbacks_per_service",
        rig.callbacks as f64 / rig.services.max(1) as f64,
        "count",
    );
    report.metric("wire.threads", plain.census_peak[0] as f64, "count");
    process_metrics(&mut report, &plain);
    report.overhead(&plain, handle_us);
    write_spans(
        cfg,
        "attr-events",
        [&space.spans, &client.spans, &handle_spans],
    );
    report
}

/// Persistent-watch tokens are `1..=STATUS_KEYS * WATCHES`; fresh
/// one-shot tokens count up from here.
const FRESH_TOKENS: u64 = 1 << 32;

/// The steps against an in-process `Space`: client 1 writes, client 2
/// watches.
struct SpaceRung {
    space: Space,
    steps: Steps,
    next_token: u64,
    outs: u64,
    allocs: u64,
    spans: Spans,
}

impl SpaceRung {
    fn new(seed: u64, epoch: Instant) -> SpaceRung {
        let mut space = Space::new();
        space.join(1, CTX);
        space.join(2, CTX);
        for k in 0..STATUS_KEYS {
            for w in 0..WATCHES {
                space.subscribe(2, CTX, status_key(k), (k * WATCHES + w + 1) as u64, false);
            }
        }
        SpaceRung {
            space,
            steps: Steps::new(seed, MEASURED),
            next_token: FRESH_TOKENS,
            outs: 0,
            allocs: 0,
            spans: Spans::new(0, epoch),
        }
    }

    fn step(&mut self) -> Result<(), String> {
        let step = self.steps.next_step();
        let key = status_key(step.key);
        if step.fresh > 0 {
            self.space.remove(1, CTX, key);
            for _ in 0..step.fresh {
                self.next_token += 1;
                self.space.subscribe(2, CTX, key, self.next_token, false);
            }
        }
        let a = measure::allocs();
        let t = Instant::now();
        let outs = self.space.put(1, CTX, key, &self.steps.value);
        self.spans.record("space.put", self.steps.n, t, ns_since(t));
        self.allocs += measure::allocs() - a;
        self.outs += outs.len() as u64;
        let mut delivered = 0;
        for (client, reply) in outs {
            if let (2, Reply::Notify { token, value, .. }) = (client, reply) {
                if value != self.steps.value {
                    return Err(format!("notify of {key} carried the wrong value"));
                }
                delivered += 1;
                if token < FRESH_TOKENS {
                    self.space.subscribe(2, CTX, key, token, true);
                }
            }
        }
        if delivered != step.expected() {
            return Err(format!(
                "put of {key} notified {delivered} of {}",
                step.expected()
            ));
        }
        Ok(())
    }
}

/// The steps over raw `AttrClient` sessions.
struct ClientRung {
    /// `[writer, watcher]`, or one session playing both.
    sessions: Vec<AttrClient>,
    steps: Steps,
    next_token: u64,
    spans: Spans,
}

impl ClientRung {
    fn new(
        world: &World,
        host: tdp_proto::HostId,
        lass: tdp_proto::Addr,
        seed: u64,
        nproc: usize,
        epoch: Instant,
    ) -> TdpResult<ClientRung> {
        let mut sessions = Vec::new();
        for _ in 0..nproc.min(2) {
            let mut c = world.attr_connect(host, lass)?;
            c.join(CLIENT_CTX)?;
            sessions.push(c);
        }
        let watcher = sessions.last_mut().expect("a session");
        for k in 0..STATUS_KEYS {
            for w in 0..WATCHES {
                watcher.subscribe(
                    CLIENT_CTX,
                    status_key(k),
                    (k * WATCHES + w + 1) as u64,
                    true,
                )?;
            }
        }
        Ok(ClientRung {
            sessions,
            steps: Steps::new(seed, MEASURED),
            next_token: FRESH_TOKENS,
            spans: Spans::new(0, epoch),
        })
    }

    fn step(&mut self) -> Result<u64, Fail> {
        let err = |e: tdp_proto::TdpError| Fail::Error(e.to_string());
        let step = self.steps.next_step();
        let key = status_key(step.key);
        let w = self.sessions.len() - 1;
        if step.fresh > 0 {
            self.sessions[0].remove(CLIENT_CTX, key).map_err(err)?;
            for _ in 0..step.fresh {
                self.next_token += 1;
                self.sessions[w]
                    .subscribe(CLIENT_CTX, key, self.next_token, false)
                    .map_err(err)?;
            }
        }
        let t = Instant::now();
        self.sessions[0]
            .put(CLIENT_CTX, key, &self.steps.value)
            .map_err(err)?;
        for _ in 0..step.expected() {
            let n = self.sessions[w]
                .wait_notify(DELIVERY_TIMEOUT)
                .map_err(err)?;
            if n.value != self.steps.value || n.key != key {
                return Err(Fail::Wrong(format!(
                    "notify of {key} carried the wrong value"
                )));
            }
            if n.token < FRESH_TOKENS {
                self.sessions[w]
                    .subscribe(CLIENT_CTX, key, n.token, true)
                    .map_err(err)?;
            }
        }
        let lat = ns_since(t);
        self.spans
            .record("attrspace.delivery", self.steps.n, t, lat);
        Ok(lat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_replay_and_values_are_unique() {
        let (mut a, mut b) = (Steps::new(3, MEASURED), Steps::new(3, MEASURED));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let (x, y) = (a.next_step(), b.next_step());
            assert_eq!((x.key, x.fresh, x.len), (y.key, y.fresh, y.len));
            // Values never shrink below their 21-byte unique prefix.
            assert_eq!(a.value.len(), x.len.max(21));
            assert!(seen.insert(a.value.clone()), "value repeated");
        }
    }

    #[test]
    fn space_rung_delivers_every_expected_notify() {
        let mut r = SpaceRung::new(5, Instant::now());
        for _ in 0..300 {
            r.step().expect("space step");
        }
        assert!(r.outs as f64 / 300.0 > (1 + WATCHES) as f64);
    }
}
