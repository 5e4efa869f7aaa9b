//! `attr-rr`: `nproc` sessions of one context on an epoll world, each a
//! closed loop of seeded `tdp_get` hits, `tdp_put`s and `try_get`
//! misses. The request/response path through `tdp-core`,
//! `tdp-attrspace` and `tdp-wire`.

use crate::gen;
use crate::harness::{
    measure_trials, process_metrics, run_phase, run_phase_reading_rss, setup_times, span_median_us,
    warm_up_for, Cfg, Limit, Report, Spans, Work, SETUPS_PER_TRIAL,
};
use crate::ladder::{
    self, ClientTarget, CodecTarget, Driver, EchoTarget, Mirror, SpaceTarget, Target,
};
use crate::{measure, trace_len, write_spans};
use std::time::{Duration, Instant};
use tdp_core::{Role, TdpHandle, World};
use tdp_proto::{ContextId, HostId, TdpResult};

/// Peak RSS is read once this many ops completed (about 3 s of the
/// measured phase on a 2-vCPU host), comparing memory at equal work.
const RSS_AFTER_OPS: u64 = 250_000;
const CTX: ContextId = ContextId(7);

struct Rig {
    world: World,
    host: HostId,
    drivers: Vec<Driver<TdpHandle>>,
}

/// An epoll world with one host and its LASS, `n` sessions joined to
/// one context, and version 0 of every key written.
fn build(seed: u64, n: usize) -> TdpResult<Rig> {
    let world = World::new_epoll();
    let host = world.add_host();
    let mut handles = (0..n)
        .map(|i| TdpHandle::init(&world, host, CTX, &format!("rr-{i}"), Role::ResourceManager))
        .collect::<TdpResult<Vec<_>>>()?;
    let mut buf = String::new();
    for k in 0..ladder::KEYS {
        gen::fill_value(&mut buf, seed, k, 0);
        handles[0].put(ladder::key(k), &buf)?;
    }
    let drivers = handles
        .into_iter()
        .enumerate()
        .map(|(i, h)| Driver::new(h, seed, i, n))
        .collect();
    Ok(Rig {
        world,
        host,
        drivers,
    })
}

pub fn run(cfg: &Cfg) -> Report {
    let n = cfg.nproc;
    let mut report = Report::default();
    if !cfg.trace {
        measure_trials(
            cfg,
            &mut report,
            RSS_AFTER_OPS,
            |report, seed, share, rss_after| {
                let (mut rig, setups) =
                    setup_times(SETUPS_PER_TRIAL, || build(seed, n).expect("attr-rr set-up"));
                warm_up(report, &mut rig.drivers, warm_up_for(share));
                let phase = run_phase_reading_rss(
                    &mut rig.drivers,
                    Limit::Time(share),
                    rss_after,
                    Driver::step,
                );
                (phase, setups)
            },
        );
        return report;
    }
    let total = Duration::from_secs_f64(cfg.seconds);
    let mut rig = build(cfg.seed, n).expect("attr-rr set-up");
    warm_up(&mut report, &mut rig.drivers, warm_up_for(total));
    // Traced run: an untraced slice fixes the per-thread op counts, then
    // every rung replays exactly those ops from the start of the stream.
    let slice = total / 5;
    let plain = run_phase(&mut rig.drivers, Limit::Time(slice), Driver::step);
    report.absorb(&plain);
    let counts = plain.op_counts();
    let epoch = Instant::now();
    let seed = cfg.seed;

    // Space and codec rungs are pure CPU: one thread replays every
    // stream, so the global allocation counter sees only them.
    let mut space_spans = Vec::new();
    let (mut outs, mut puts, a0) = (0, 0, measure::allocs());
    for (t, &count) in counts.iter().enumerate() {
        let mut d =
            Driver::new(SpaceTarget::preloaded(seed, CTX), seed, t, n).traced("space.op", epoch);
        for _ in 0..count {
            if let Err(e) = d.step() {
                report.note_problem(format!("space rung: {e:?}"));
            }
        }
        (outs, puts) = (outs + d.target.outs, puts + d.target.puts);
        space_spans.push(d.spans.take().expect("traced").0);
    }
    let space_allocs = measure::allocs() - a0;
    let ops: u64 = counts.iter().sum();
    report.metric(
        "space.op_ns",
        span_median_us(&space_spans, "space.op") * 1e3,
        "ns",
    );
    report.metric(
        "space.allocs_per_op",
        space_allocs as f64 / ops as f64,
        "count",
    );
    report.metric(
        "space.outs_per_put",
        outs as f64 / puts.max(1) as f64,
        "count",
    );

    let (mut codec_ns, mut codec_allocs, mut frames) = (0, 0, 0);
    for (t, &count) in counts.iter().enumerate() {
        let mut d = Driver::new(CodecTarget::new(CTX, Mirror::preloaded(seed)), seed, t, n);
        for _ in 0..count {
            if let Err(e) = d.step() {
                report.note_problem(format!("codec rung: {e:?}"));
            }
        }
        codec_ns += d.target.codec_ns;
        codec_allocs += d.target.codec_allocs;
        frames += d.target.frames;
    }
    report.metric(
        "proto.codec_ns_per_frame",
        codec_ns as f64 / frames as f64,
        "ns",
    );
    report.metric(
        "proto.allocs_per_frame",
        codec_allocs as f64 / frames as f64,
        "count",
    );

    // Wire rung: raw connections on the world's backend, echoed by
    // benchmark threads. Client rung: fresh sessions on the same LASS
    // and context. Handle rung: the workload's own handles.
    let transport = tdp_wire::EpollTransport::new().expect("start epoll reactors");
    let (conns, echoes) = ladder::echo_pairs(&transport, n).expect("echo connections");
    let mut wire: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(t, conn)| {
            Driver::new(
                EchoTarget::new(conn, CTX, Mirror::preloaded(seed)),
                seed,
                t,
                n,
            )
            .traced("wire.rtt", epoch)
        })
        .collect();
    let lass = rig.world.lass_addr(rig.host).expect("LASS running");
    let mut clients: Vec<_> = (0..n)
        .map(|t| {
            let mut client = rig
                .world
                .attr_connect(rig.host, lass)
                .expect("attr connect");
            client.join(CTX).expect("join");
            Driver::new(ClientTarget { client, ctx: CTX }, seed, t, n).traced("attrspace.op", epoch)
        })
        .collect();
    let mut handles: Vec<_> = std::mem::take(&mut rig.drivers)
        .into_iter()
        .enumerate()
        .map(|(t, d)| Driver::new(d.target, seed, t, n).traced("core.op", epoch))
        .collect();
    warm_up(&mut report, &mut wire, RUNG_WARM_UP);
    warm_up(&mut report, &mut clients, RUNG_WARM_UP);
    warm_up(&mut report, &mut handles, RUNG_WARM_UP);
    wire.iter_mut().for_each(|d| d.target.own_allocs = 0);
    // The three rungs replay the ops in interleaved rounds, so a slow
    // spell of a shared host lands on every rung alike.
    let events0 = trace_len(&rig.world);
    let (mut wire_work, mut client_work, mut handle_work) =
        (Work::default(), Work::default(), Work::default());
    for round in 0..ROUNDS {
        let chunk: Vec<u64> = counts
            .iter()
            .map(|c| c * (round + 1) / ROUNDS - c * round / ROUNDS)
            .collect();
        wire_work.add(&mut report, &mut wire, &chunk, Driver::step);
        client_work.add(&mut report, &mut clients, &chunk, Driver::step);
        handle_work.add(&mut report, &mut handles, &chunk, Driver::step);
    }
    let events = trace_len(&rig.world) - events0 - 1;
    let own: u64 = wire.iter().map(|d| d.target.own_allocs).sum();
    let reconnects: u64 = clients.iter().map(|d| d.target.client.reconnects()).sum();
    let (wire_spans, client_spans, handle_spans) = (
        take_spans(&mut wire),
        take_spans(&mut clients),
        take_spans(&mut handles),
    );
    drop((wire, clients));
    for e in echoes {
        e.join().expect("echo thread");
    }
    drop(transport);
    report.metric(
        "wire.echo_rtt_us",
        span_median_us(&wire_spans, "wire.rtt"),
        "us",
    );
    report.metric(
        "wire.allocs_per_rtt",
        wire_work.allocs.saturating_sub(own) as f64 / wire_work.ops as f64,
        "count",
    );

    let space_us = span_median_us(&space_spans, "space.op");
    let echo_us = span_median_us(&wire_spans, "wire.rtt");
    let client_us = span_median_us(&client_spans, "attrspace.op");
    let handle_us = span_median_us(&handle_spans, "core.op");
    report.metric("attrspace.client_op_us", client_us, "us");
    report.metric(
        "attrspace.server_self_us",
        client_us - echo_us - space_us,
        "us",
    );
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
        events as f64 / handle_work.ops as f64,
        "count",
    );
    report.metric("wire.threads", plain.census_peak[0] as f64, "count");
    process_metrics(&mut report, &plain);
    report.overhead(&plain, handle_us);
    write_spans(
        cfg,
        "attr-rr",
        [&space_spans, &wire_spans, &client_spans, &handle_spans]
            .into_iter()
            .flatten(),
    );
    report
}

/// Run the drivers on their warm-up streams for `dur`.
pub fn warm_up<T: Target + Send>(report: &mut Report, drivers: &mut [Driver<T>], dur: Duration) {
    drivers.iter_mut().for_each(Driver::begin_warm_up);
    report.absorb(&run_phase(drivers, Limit::Time(dur), Driver::step));
    drivers.iter_mut().for_each(Driver::end_warm_up);
}

/// Warm-up of each rung before its replay.
const RUNG_WARM_UP: Duration = Duration::from_millis(300);
/// Interleaved replay rounds per rung.
const ROUNDS: u64 = 4;

fn take_spans<T>(drivers: &mut [Driver<T>]) -> Vec<Spans> {
    drivers
        .iter_mut()
        .filter_map(|d| d.spans.take())
        .map(|(s, _)| s)
        .collect()
}
