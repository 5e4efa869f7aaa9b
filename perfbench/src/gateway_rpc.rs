//! `gateway-rpc`: `nproc` keep-alive HTTP clients, one driver thread
//! each, against `tdp-gateway` on its default configuration over a
//! netsim world. A seeded mix of `tool.invoke echo`, `attr.put` and
//! `attr.get` with varied parameter sizes: the only workload through
//! `http`, `json`, `rpc` and the `AttrBridge` session pool.

use crate::gen::Rng;
use crate::harness::{
    measure_trials, ns_since, process_metrics, run_phase, run_phase_reading_rss, setup_times,
    span_median_us, warm_up_for, Cfg, Fail, Limit, Report, Spans, SETUPS_PER_TRIAL,
};
use crate::write_spans;
use std::time::{Duration, Instant};
use tdp_core::World;
use tdp_gateway::{Gateway, GatewayConfig, HttpRpcClient, Json};
use tdp_proto::TdpResult;

/// Peak RSS is read once this many ops completed (about 3 s of the
/// measured phase on a 2-vCPU host), comparing memory at equal work.
const RSS_AFTER_OPS: u64 = 50_000;
const MEASURED: u64 = 0;
const WARM_UP: u64 = 1;
/// Keys each client writes and reads back.
const CLIENT_KEYS: usize = 16;
/// The attribute context the bridge joins for these calls.
const CTX: i64 = 9;

/// One HTTP client and what it last wrote.
struct Client {
    http: HttpRpcClient,
    id: usize,
    seed: u64,
    rng: Rng,
    n: u64,
    last: Vec<Option<String>>,
    /// Keys written since the stream (re)started: gets pick among these,
    /// so a replay of the stream makes exactly the same calls.
    written: Vec<usize>,
    spans: Option<Spans>,
}

fn filler(rng: &mut Rng, prefix: String, lo: u64, hi: u64) -> String {
    let len = rng.range(lo, hi) as usize;
    let c = (b'a' + rng.below(26) as u8) as char;
    let pad = len.saturating_sub(prefix.len());
    prefix + &c.to_string().repeat(pad)
}

impl Client {
    fn restart(&mut self, stream: u64) {
        self.rng = Rng::new(self.seed, 4000 + 100 * stream + self.id as u64);
        self.n = 0;
        self.written.clear();
    }

    fn key(&self, k: usize) -> String {
        format!("gw.c{}.k{k:02}", self.id)
    }

    /// One RPC: 40% echo invokes, 30% puts, 30% gets of a key this
    /// client already wrote (a put while it has written none).
    fn step(&mut self) -> Result<u64, Fail> {
        self.n += 1;
        let pick = self.rng.below(10);
        let k = self.rng.below(CLIENT_KEYS as u64) as usize;
        let err = |e: tdp_gateway::RpcError| Fail::Error(e.to_string());
        let (span, t, lat) = if pick < 4 {
            let blob = filler(&mut self.rng, format!("{}.{}.", self.id, self.n), 8, 2048);
            let params = Json::obj([("blob", Json::from(blob)), ("n", Json::from(self.n))]);
            let t = Instant::now();
            let res = self.http.invoke("echo", params.clone()).map_err(err)?;
            let lat = ns_since(t);
            if res.get("params") != Some(&params) || res.str_field("tool") != Some("echo") {
                return Err(Fail::Wrong(format!(
                    "echo {} returned other params",
                    self.n
                )));
            }
            ("gateway.invoke", t, lat)
        } else if pick < 7 || self.written.is_empty() {
            let value = filler(&mut self.rng, format!("{}.{}.", self.id, self.n), 16, 1024);
            let params = Json::obj([
                ("ctx", Json::Int(CTX)),
                ("key", Json::from(self.key(k))),
                ("value", Json::from(value.as_str())),
            ]);
            let t = Instant::now();
            let res = self.http.call("attr.put", params).map_err(err)?;
            let lat = ns_since(t);
            if res.get("ok") != Some(&Json::Bool(true)) {
                return Err(Fail::Wrong(format!(
                    "attr.put {} returned {res:?}",
                    self.key(k)
                )));
            }
            self.last[k] = Some(value);
            if !self.written.contains(&k) {
                self.written.push(k);
            }
            ("gateway.attr_put", t, lat)
        } else {
            let k = self.written[k % self.written.len()];
            let params = Json::obj([("ctx", Json::Int(CTX)), ("key", Json::from(self.key(k)))]);
            let t = Instant::now();
            let res = self.http.call("attr.get", params).map_err(err)?;
            let lat = ns_since(t);
            if res.str_field("value") != self.last[k].as_deref() {
                return Err(Fail::Wrong(format!(
                    "attr.get {} did not read back the last put",
                    self.key(k)
                )));
            }
            ("gateway.attr_get", t, lat)
        };
        if let Some(spans) = &mut self.spans {
            spans.record(span, self.n, t, lat);
        }
        Ok(lat)
    }
}

struct Rig {
    world: World,
    gateway: Gateway,
    clients: Vec<Client>,
}

fn build(seed: u64, n: usize) -> TdpResult<Rig> {
    let world = World::new();
    let host = world.add_host();
    let gateway = Gateway::start(&world, host, GatewayConfig::default())?;
    let clients = (0..n)
        .map(|id| {
            let http = HttpRpcClient::connect(gateway.addr())
                .map_err(|e| tdp_proto::TdpError::Substrate(format!("http connect: {e}")))?;
            Ok(Client {
                http,
                id,
                seed,
                rng: Rng::new(seed, 4000 + id as u64),
                n: 0,
                last: vec![None; CLIENT_KEYS],
                written: Vec::new(),
                spans: None,
            })
        })
        .collect::<TdpResult<Vec<_>>>()?;
    Ok(Rig {
        world,
        gateway,
        clients,
    })
}

/// Run the warm-up streams for `dur`, then rewind to the measured ones.
fn warm(report: &mut Report, clients: &mut [Client], dur: Duration) {
    clients.iter_mut().for_each(|c| c.restart(WARM_UP));
    report.absorb(&run_phase(clients, Limit::Time(dur), Client::step));
    clients.iter_mut().for_each(|c| c.restart(MEASURED));
}

pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    if !cfg.trace {
        measure_trials(
            cfg,
            &mut report,
            RSS_AFTER_OPS,
            |report, seed, share, rss_after| {
                let (mut rig, setups) = setup_times(SETUPS_PER_TRIAL, || {
                    build(seed, cfg.nproc).expect("gateway-rpc set-up")
                });
                warm(report, &mut rig.clients, warm_up_for(share));
                (
                    run_phase_reading_rss(
                        &mut rig.clients,
                        Limit::Time(share),
                        rss_after,
                        Client::step,
                    ),
                    setups,
                )
            },
        );
        return report;
    }
    let total = Duration::from_secs_f64(cfg.seconds);
    let mut rig = build(cfg.seed, cfg.nproc).expect("gateway-rpc set-up");
    warm(&mut report, &mut rig.clients, warm_up_for(total));
    let plain = run_phase(&mut rig.clients, Limit::Time(total * 2 / 5), Client::step);
    report.absorb(&plain);
    let counts = plain.op_counts();
    let epoch = Instant::now();
    for (i, c) in rig.clients.iter_mut().enumerate() {
        c.restart(MEASURED);
        c.spans = Some(Spans::new(i, epoch));
    }
    let traced = run_phase(&mut rig.clients, Limit::Ops(counts), Client::step);
    report.absorb(&traced);
    let spans: Vec<Spans> = rig
        .clients
        .iter_mut()
        .filter_map(|c| c.spans.take())
        .collect();
    report.metric(
        "gateway.invoke_us",
        span_median_us(&spans, "gateway.invoke"),
        "us",
    );
    report.metric(
        "gateway.attr_put_us",
        span_median_us(&spans, "gateway.attr_put"),
        "us",
    );
    report.metric(
        "gateway.bridge_sessions",
        rig.world.attr_session_count() as f64,
        "count",
    );
    report.metric(
        "attrspace.server_threads",
        plain.census_peak[1] as f64,
        "count",
    );
    report.metric("wire.threads", plain.census_peak[0] as f64, "count");
    report.notes.push(format!(
        "gateway: {} HTTP connections open, bridge pool of {}",
        rig.gateway.open_connections(),
        rig.gateway.core().bridge().pool_size()
    ));
    process_metrics(&mut report, &plain);
    report.overhead(&plain, traced.windowed_quantile_ns(0.5) / 1e3);
    write_spans(cfg, "gateway-rpc", &spans);
    report
}
