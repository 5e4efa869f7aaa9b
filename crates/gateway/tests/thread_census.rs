//! The HTTP server runs on exactly `workers` threads and no others.
//!
//! Its own test binary so no other server's threads are alive while
//! the census is taken.

use std::time::{Duration, Instant};

use tdp_core::World;
use tdp_gateway::{Gateway, GatewayConfig};

/// Names of this process's live threads, as the kernel reports them
/// (truncated to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

fn http_threads() -> Vec<String> {
    thread_names()
        .into_iter()
        .filter(|n| n.starts_with("gw-http-"))
        .collect()
}

/// Recount until `done` holds or five seconds pass: a spawned thread
/// names itself only once it runs, and a joined one can linger in
/// `/proc` for a moment after `join` returns.
fn census_until(done: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = http_threads();
        if done(&names) || Instant::now() > deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn http_server_runs_on_exactly_the_worker_threads() {
    let world = World::new();
    let host = world.add_host();
    let cfg = GatewayConfig::default();
    let mut gw = Gateway::start(&world, host, cfg.clone()).unwrap();

    let names = census_until(|n| n.len() >= cfg.workers);
    assert_eq!(names.len(), cfg.workers, "{names:?}");
    assert!(
        names.iter().all(|n| n.starts_with("gw-http-worker")),
        "{names:?}"
    );
    assert!(!names.iter().any(|n| n == "gw-http-reactor"), "{names:?}");

    gw.shutdown();
    let names = census_until(|n| n.is_empty());
    assert!(names.is_empty(), "{names:?}");
}
