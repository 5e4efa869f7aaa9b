//! `tdp-perfbench`: the TDP benchmark. One command runs one named
//! workload as a closed loop for a fixed time, checks every output, and
//! prints its metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload attr-rr --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced layer ladder instead and reports the per-layer metrics.
//! RATIONALE.md explains the workloads and the metrics.

mod attr_events;
mod attr_rr;
mod gateway_rpc;
mod gen;
mod harness;
mod ladder;
mod measure;
mod parador;

use harness::{Cfg, Report, Spans};
use std::fmt::Write as _;
use tdp_core::World;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// A workload's entry point.
type Run = fn(&Cfg) -> Report;

/// Workloads by name, with the transport each one's world runs on.
const WORKLOADS: [(&str, &str, Run); 4] = [
    ("attr-rr", "epoll", attr_rr::run),
    ("attr-events", "epoll", attr_events::run),
    ("parador", "netsim", parador::run),
    ("gateway-rpc", "netsim+http-loopback", gateway_rpc::run),
];

/// Every per-layer metric and its unit. A traced run prints all of
/// them, each measured (see [`fill_in`]).
const PER_LAYER: [(&str, &str); 33] = [
    ("proto.codec_ns_per_frame", "ns"),
    ("proto.allocs_per_frame", "count"),
    ("space.op_ns", "ns"),
    ("space.allocs_per_op", "count"),
    ("space.outs_per_put", "count"),
    ("wire.echo_rtt_us", "us"),
    ("wire.allocs_per_rtt", "count"),
    ("wire.threads", "count"),
    ("attrspace.client_op_us", "us"),
    ("attrspace.server_self_us", "us"),
    ("attrspace.allocs_per_op", "count"),
    ("attrspace.server_threads", "count"),
    ("attrspace.reconnects", "count"),
    ("core.handle_op_us", "us"),
    ("core.handle_self_us", "us"),
    ("core.allocs_per_op", "count"),
    ("core.trace_events_per_op", "count"),
    ("core.service_us", "us"),
    ("core.callbacks_per_service", "count"),
    ("simos.create_paused_us", "us"),
    ("simos.attach_us", "us"),
    ("simos.arm_probe_us", "us"),
    ("simos.continue_to_exit_us", "us"),
    ("condor.queue_wait_us", "us"),
    ("condor.run_us", "us"),
    ("condor.tool_overhead_us", "us"),
    ("gateway.invoke_us", "us"),
    ("gateway.attr_put_us", "us"),
    ("gateway.bridge_sessions", "count"),
    ("process.ctx_switches_per_op", "count"),
    ("process.threads_peak", "count"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <attr-rr|attr-events|parador|gateway-rpc> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args() -> (&'static str, &'static str, Run, Cfg) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };
    let name = value("--workload").unwrap_or_else(|| usage("missing --workload"));
    let &(name, backend, run) = WORKLOADS
        .iter()
        .find(|(w, _, _)| *w == name)
        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}")));
    let seed = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("bad --seed"));
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0 && *s <= 120.0)
        .unwrap_or_else(|| usage("bad --seconds"));
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("bad --trace"),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (
        name,
        backend,
        run,
        Cfg {
            seed,
            seconds,
            trace,
            nproc,
            spans_out: true,
        },
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host fingerprint and build profile, printed with every result.
fn fingerprint(cfg: &Cfg, backend: &str) -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("unknown");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {}, \"kernel\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"backend\": {}}}",
        cfg.nproc,
        json_str(kernel.trim()),
        json_str(cpu.trim()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(profile),
        json_str(backend),
    )
}

/// Number of events in the world's call trace (a marker is appended and
/// its sequence number read back, which copies nothing).
pub fn trace_len(world: &World) -> usize {
    use std::sync::atomic::{AtomicU64, Ordering};
    static MARK: AtomicU64 = AtomicU64::new(0);
    let mark = format!("perfbench-mark-{}", MARK.fetch_add(1, Ordering::Relaxed));
    world.trace().record("perfbench", mark.as_str());
    world
        .trace()
        .seq_of(Some("perfbench"), &mark)
        .expect("marker just recorded")
}

/// Write a traced run's spans to `out/<workload>.spans.csv` in the
/// benchmark's directory.
pub fn write_spans<'a>(cfg: &Cfg, workload: &str, bufs: impl IntoIterator<Item = &'a Spans>) {
    if !cfg.spans_out {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.csv"));
    match harness::write_spans_to(&path, bufs) {
        Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Length of the short traced runs that [`fill_in`] makes.
const FILL_IN_SECONDS: f64 = 1.0;

/// Measure the per-layer metrics this workload does not exercise with
/// short traced runs of the workloads that do, in `WORKLOADS` order, so
/// that every metric a traced run prints is measured. Their ops count
/// toward attempted and failed.
fn fill_in(name: &str, cfg: &Cfg, report: &mut Report) {
    let probe = Cfg {
        seconds: FILL_IN_SECONDS,
        spans_out: false,
        ..*cfg
    };
    for &(other, _, run_other) in WORKLOADS.iter().filter(|w| w.0 != name) {
        let has = |r: &Report, m: &str| r.metrics.iter().any(|(n, _, _)| n == m);
        let missing = |r: &Report| {
            PER_LAYER
                .iter()
                .any(|(m, _)| *m != "failed_ratio" && !has(r, m))
        };
        if !missing(report) {
            break;
        }
        let short = run_other(&probe);
        let mut filled = Vec::new();
        for (m, v, u) in short.metrics {
            if !has(report, &m) && PER_LAYER.iter().any(|(p, _)| *p == m) {
                filled.push(m.clone());
                report.metrics.push((m, v, u));
            }
        }
        report.attempted += short.attempted;
        report.failed += short.failed;
        report.wrong += short.wrong;
        if let Some(p) = short.first_problem {
            report.first_problem.get_or_insert(format!("{other}: {p}"));
        }
        if !filled.is_empty() {
            report.notes.push(format!(
                "measured by a {FILL_IN_SECONDS} s traced run of {other}: {}",
                filled.join(", ")
            ));
        }
    }
}

fn main() {
    let (name, backend, run, cfg) = parse_args();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={} driver_threads<=nproc={}",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.nproc
    );
    println!("fingerprint {}", fingerprint(&cfg, backend));
    let mut report = run(&cfg);
    if cfg.trace {
        fill_in(name, &cfg, &mut report);
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    let wanted: Vec<(&str, &str)> = if cfg.trace {
        report.metric("failed_ratio", failed_ratio, "ratio");
        PER_LAYER.to_vec()
    } else {
        vec![
            ("setup_s", "s"),
            ("ops_per_s", "1/s"),
            ("latency_p50_us", "us"),
            ("latency_p99_us", "us"),
            ("cpu_us_per_op", "us"),
            ("peak_rss_mb", "MiB"),
        ]
    };
    for note in &report.notes {
        println!("{note}");
    }
    let mut metrics = Vec::new();
    for (metric, unit) in wanted {
        let value = match report.metrics.iter().find(|(m, _, _)| m == metric) {
            Some(&(_, v, u)) => {
                assert_eq!(u, unit, "unit of {metric}");
                if v.is_finite() {
                    v
                } else {
                    report
                        .first_problem
                        .get_or_insert(format!("{metric} is not finite"));
                    report.wrong += 1;
                    0.0
                }
            }
            None => {
                report
                    .first_problem
                    .get_or_insert(format!("{metric} was not measured"));
                report.wrong += 1;
                0.0
            }
        };
        println!("metric {metric} = {value} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(metric),
            json_str(unit)
        ));
    }
    if report.attempted == 0 {
        report
            .first_problem
            .get_or_insert("no op was attempted".into());
        report.wrong += 1;
    }
    let correct = report.wrong == 0;
    println!(
        "attempted {} failed {} failed_ratio {failed_ratio} correct {correct}",
        report.attempted, report.failed
    );
    if let Some(p) = &report.first_problem {
        println!("first problem: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
