//! Tests of the TDP library handle: init/exit, attribute operations,
//! asynchronous events, process management, single-point control, tool
//! channels and staging.

use std::time::Duration;
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_netsim::FirewallPolicy;
use tdp_proto::{names, Addr, ContextId, ProcRequest, ProcStatus, TdpError};
use tdp_simos::{fn_program, ExecImage};
use tdp_sync::atomic::{AtomicUsize, Ordering};
use tdp_sync::{Arc, Mutex};

const CTX: ContextId = ContextId(1);
const T: Duration = Duration::from_secs(5);

fn world_with_app() -> (World, tdp_proto::HostId) {
    let w = World::new();
    let h = w.add_host();
    w.os().fs().install_exec(
        h,
        "/bin/app",
        ExecImage::new(
            ["main", "work"],
            Arc::new(|_| {
                fn_program(|ctx| {
                    ctx.call("main", |ctx| {
                        for _ in 0..5 {
                            ctx.call("work", |ctx| ctx.compute(10));
                        }
                    });
                    0
                })
            }),
        ),
    );
    (w, h)
}

#[test]
fn rm_init_starts_lass_tool_init_requires_it() {
    let w = World::new();
    let h = w.add_host();
    assert!(matches!(
        TdpHandle::init(&w, h, CTX, "tool", Role::Tool),
        Err(TdpError::Substrate(_))
    ));
    let _rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let _rt = TdpHandle::init(&w, h, CTX, "tool", Role::Tool).unwrap();
    assert!(w.lass_addr(h).is_some());
}

#[test]
fn put_get_between_daemons() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    rm.put(names::PID, "1234").unwrap();
    assert_eq!(rt.get(names::PID).unwrap(), "1234");
    assert!(matches!(
        rt.try_get("absent"),
        Err(TdpError::AttributeNotFound(_))
    ));
}

#[test]
fn blocking_get_crosses_daemons() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let th = std::thread::spawn(move || rt.get(names::PID).unwrap());
    std::thread::sleep(Duration::from_millis(40));
    rm.put(names::PID, "77").unwrap();
    assert_eq!(th.join().unwrap(), "77");
}

#[test]
fn handle_closed_after_exit() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    rm.exit().unwrap();
    assert!(matches!(rm.put("k", "v"), Err(TdpError::HandleClosed)));
    assert!(rm.exit().is_ok(), "exit is idempotent");
}

#[test]
fn async_get_callback_runs_at_service_point() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let got: Arc<Mutex<Vec<(String, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let g2 = got.clone();
    rt.async_get(names::PID, move |k, v| g2.lock().push((k.into(), v.into())))
        .unwrap();
    // Nothing yet: callback must not run before the put.
    assert_eq!(rt.service_events().unwrap(), 0);
    rm.put(names::PID, "55").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert!(rt.has_events());
    assert_eq!(rt.service_events().unwrap(), 1);
    assert_eq!(
        got.lock().as_slice(),
        &[("pid".to_string(), "55".to_string())]
    );
    // One-shot: a second put does not re-fire.
    rm.put(names::PID, "56").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(rt.service_events().unwrap(), 0);
}

#[test]
fn async_get_on_existing_value_fires_immediately() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    rm.put("ready", "yes").unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    rt.async_get("ready", move |_, _| {
        c2.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(rt.service_events().unwrap(), 1);
    assert_eq!(count.load(Ordering::SeqCst), 1);
}

#[test]
fn async_put_completion_deferred_to_service() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let f2 = fired.clone();
    rm.async_put("k", "v", move |_, _| {
        f2.fetch_add(1, Ordering::SeqCst);
    })
    .unwrap();
    // The put itself has happened, but the callback must wait for the
    // safe point.
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    assert_eq!(rm.try_get("k").unwrap(), "v");
    assert_eq!(rm.service_events().unwrap(), 1);
    assert_eq!(fired.load(Ordering::SeqCst), 1);
}

#[test]
fn watch_is_persistent_across_puts() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    rt.watch(names::AP_STATUS, move |_, v| s2.lock().push(v.to_string()))
        .unwrap();
    for st in ["running", "stopped", "exited:0"] {
        rm.put(names::AP_STATUS, st).unwrap();
        // Serviced after each put here; back-to-back puts with no
        // servicing in between are covered by
        // `watch_delivers_back_to_back_puts_in_order`.
        rt.wait_and_service(T).unwrap();
    }
    assert_eq!(seen.lock().as_slice(), &["running", "stopped", "exited:0"]);
}

/// 100 puts with no servicing in between must reach a watch as 100
/// callbacks in put order: the watch is a server-side registration, so
/// no put can fall between a notification and a re-subscribe.
fn back_to_back_puts_scenario(w: &World) {
    const PUTS: usize = 100;
    let h = w.add_host();
    let mut rm = TdpHandle::init(w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(w, h, CTX, "rt", Role::Tool).unwrap();
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    rt.watch(names::AP_STATUS, move |_, v| s2.lock().push(v.to_string()))
        .unwrap();
    let puts: Vec<String> = (0..PUTS).map(|i| format!("s{i}")).collect();
    for v in &puts {
        rm.put(names::AP_STATUS, v).unwrap();
    }
    let deadline = std::time::Instant::now() + T;
    while seen.lock().len() < PUTS && std::time::Instant::now() < deadline {
        rt.wait_and_service(T).unwrap();
    }
    assert_eq!(*seen.lock(), puts);
}

#[test]
fn watch_delivers_back_to_back_puts_in_order() {
    back_to_back_puts_scenario(&World::new());
}

#[test]
fn watch_delivers_back_to_back_puts_in_order_epoll() {
    back_to_back_puts_scenario(&World::new_epoll());
}

#[test]
fn trace_stays_bounded_over_many_puts() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    for i in 0..10_000 {
        rm.put("k", &i.to_string()).unwrap();
    }
    let events = w.trace().events();
    assert!(events.len() <= tdp_core::TRACE_CAPACITY, "{}", events.len());
    // Numbering stays global: init plus 10,000 puts came before now.
    assert_eq!(events.last().unwrap().seq, 10_000);
}

#[test]
fn cancel_prevents_callback() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    let tok = rt
        .async_get("k", move |_, _| {
            c2.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
    rt.cancel(tok).unwrap();
    rm.put("k", "v").unwrap();
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(rt.service_events().unwrap(), 0);
    assert_eq!(count.load(Ordering::SeqCst), 0);
}

#[test]
fn create_paused_attach_continue_lifecycle() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    assert_eq!(rm.process_status(pid).unwrap(), ProcStatus::Created);
    rt.attach(pid).unwrap();
    assert_eq!(rt.symbols(pid).unwrap(), vec!["main", "work"]);
    rt.arm_probe(pid, "work").unwrap();
    rt.continue_process(pid).unwrap();
    assert_eq!(rt.wait_terminal(pid, T).unwrap(), ProcStatus::Exited(0));
    let probes = rt.read_probes(pid).unwrap();
    assert_eq!(probes.counts["work"], 5);
    assert_eq!(probes.time["work"], 50);
}

#[test]
fn instrumentation_requires_attach() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    assert!(matches!(rm.symbols(pid), Err(TdpError::NotTracer(_))));
    assert!(matches!(
        rm.arm_probe(pid, "work"),
        Err(TdpError::NotTracer(_))
    ));
}

#[test]
fn detach_releases_tracer_slot() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rt.attach(pid).unwrap();
    rt.detach(pid).unwrap();
    rm.attach(pid).unwrap(); // now free for another tracer
    rm.kill_process(pid, 9).unwrap();
}

#[test]
fn single_point_control_rt_requests_rm_services() {
    // §2.3: the RT never touches the process directly; it files a
    // request and the RM performs it and publishes the status.
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rm.publish_status(ProcStatus::Created).unwrap();

    rt.request_proc_op(ProcRequest::Continue).unwrap();
    assert_eq!(
        rm.service_proc_requests(pid).unwrap(),
        Some(ProcRequest::Continue)
    );
    rm.wait_terminal(pid, T).unwrap();
    // No pending request now.
    assert_eq!(rm.service_proc_requests(pid).unwrap(), None);
    // RT reads the status the RM published after servicing.
    let st = rt.published_status().unwrap().unwrap();
    assert!(matches!(st, ProcStatus::Running | ProcStatus::Exited(_)));
}

#[test]
fn kill_request_via_attribute_space() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rt.request_proc_op(ProcRequest::Kill(9)).unwrap();
    assert_eq!(
        rm.service_proc_requests(pid).unwrap(),
        Some(ProcRequest::Kill(9))
    );
    assert_eq!(rm.wait_terminal(pid, T).unwrap(), ProcStatus::Killed(9));
}

#[test]
fn tool_channel_direct_when_unrestricted() {
    let (w, h) = world_with_app();
    let fe_host = w.add_host();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let listener = w.net().listen(fe_host, 2090).unwrap();
    rm.advertise_frontend(Addr::new(fe_host, 2090)).unwrap();
    let c = rt.open_tool_channel().unwrap();
    c.send(b"hello fe").unwrap();
    let mut s = listener.accept().unwrap();
    assert_eq!(&s.recv().unwrap()[..], b"hello fe");
}

#[test]
fn tool_channel_falls_back_to_proxy_behind_firewall() {
    // Figure 1: execution host in a strict private zone; only the RM's
    // gateway may cross. open_tool_channel must transparently use it.
    let w = World::new();
    let fe_host = w.add_host();
    let zone = w.add_private_zone(FirewallPolicy::STRICT);
    let exec = w.add_host_in(zone);
    let gw = w.add_host_in(zone);
    let listener = w.net().listen(fe_host, 2090).unwrap();
    let fe_addr = Addr::new(fe_host, 2090);
    w.net().authorize_route(gw, fe_addr);
    let proxy = tdp_netsim::proxy::spawn(w.net(), gw, 9618).unwrap();

    let mut rm = TdpHandle::init(&w, exec, CTX, "rm", Role::ResourceManager).unwrap();
    rm.advertise_frontend(fe_addr).unwrap();
    rm.advertise_proxy(proxy.addr()).unwrap();
    let mut rt = TdpHandle::init(&w, exec, CTX, "rt", Role::Tool).unwrap();
    let c = rt.open_tool_channel().unwrap();
    c.send(b"via proxy").unwrap();
    let mut s = listener.accept().unwrap();
    assert_eq!(&s.recv().unwrap()[..], b"via proxy");
}

#[test]
fn cass_shared_across_hosts() {
    let w = World::new();
    let fe = w.add_host();
    let e1 = w.add_host();
    let e2 = w.add_host();
    let cass = w.ensure_cass(fe).unwrap();
    let mut a = TdpHandle::init(&w, e1, CTX, "d1", Role::ResourceManager).unwrap();
    let mut b = TdpHandle::init(&w, e2, CTX, "d2", Role::ResourceManager).unwrap();
    a.connect_cass(cass).unwrap();
    b.connect_cass(cass).unwrap();
    a.put_central("global", "42").unwrap();
    assert_eq!(b.get_central("global").unwrap(), "42");
    // Local spaces remain isolated.
    a.put("local", "x").unwrap();
    assert!(matches!(
        b.try_get("local"),
        Err(TdpError::AttributeNotFound(_))
    ));
}

#[test]
fn stage_tool_config_and_trace_files() {
    let (w, h) = world_with_app();
    let submit = w.add_host();
    w.os()
        .fs()
        .write_file(submit, "paradyn.conf", b"metric cpu\n");
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    // Config out to the execution node…
    rm.stage_file(submit, "paradyn.conf", h, "/work/paradyn.conf")
        .unwrap();
    assert_eq!(
        w.os().fs().read_file(h, "/work/paradyn.conf").unwrap(),
        b"metric cpu\n"
    );
    // …trace data back after the run.
    w.os().fs().write_file(h, "/work/trace.out", b"samples");
    rm.stage_file(h, "/work/trace.out", submit, "results/trace.out")
        .unwrap();
    assert_eq!(
        w.os().fs().read_file(submit, "results/trace.out").unwrap(),
        b"samples"
    );
}

#[test]
fn trace_records_call_sequence() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let pid = rm
        .create_process(TdpCreate::new("/bin/app").paused())
        .unwrap();
    rm.put(names::PID, &pid.to_string()).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    let got = rt.get(names::PID).unwrap();
    rt.attach(tdp_proto::Pid::parse(&got).unwrap()).unwrap();
    rt.continue_process(pid).unwrap();
    rt.wait_terminal(pid, T).unwrap();

    let trace = w.trace();
    trace.assert_order((Some("rm"), "tdp_init"), (Some("rm"), "tdp_create_process"));
    trace.assert_order(
        (Some("rm"), "tdp_create_process"),
        (Some("rt"), "tdp_attach"),
    );
    trace.assert_order((Some("rm"), "tdp_put(pid)"), (Some("rt"), "tdp_attach"));
    trace.assert_order(
        (Some("rt"), "tdp_attach"),
        (Some("rt"), "tdp_continue_process"),
    );
}

#[test]
fn separate_contexts_per_tool() {
    // An RM managing two RTs uses two contexts; their attributes are
    // isolated (§3.2).
    let (w, h) = world_with_app();
    let mut rm1 = TdpHandle::init(&w, h, ContextId(1), "rm", Role::ResourceManager).unwrap();
    let mut rm2 = TdpHandle::init(&w, h, ContextId(2), "rm", Role::ResourceManager).unwrap();
    rm1.put(names::PID, "1").unwrap();
    rm2.put(names::PID, "2").unwrap();
    let mut rt1 = TdpHandle::init(&w, h, ContextId(1), "rt1", Role::Tool).unwrap();
    let mut rt2 = TdpHandle::init(&w, h, ContextId(2), "rt2", Role::Tool).unwrap();
    assert_eq!(rt1.get(names::PID).unwrap(), "1");
    assert_eq!(rt2.get(names::PID).unwrap(), "2");
}

#[test]
fn heartbeat_counter_advances_and_is_peer_visible() {
    let (w, h) = world_with_app();
    let mut rm = TdpHandle::init(&w, h, CTX, "rm", Role::ResourceManager).unwrap();
    let mut rt = TdpHandle::init(&w, h, CTX, "rt", Role::Tool).unwrap();
    assert_eq!(rm.last_heartbeat().unwrap(), None);
    assert_eq!(rt.heartbeat().unwrap(), 1);
    assert_eq!(rt.heartbeat().unwrap(), 2);
    assert_eq!(rm.last_heartbeat().unwrap(), Some(2));
    // Either side can beat: it is a shared counter in the context.
    assert_eq!(rm.heartbeat().unwrap(), 3);
}
