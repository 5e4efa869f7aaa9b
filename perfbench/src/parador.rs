//! `parador`: the paper's end-to-end scenario (§4). One submitter
//! thread runs a closed loop of Condor jobs on a netsim world with two
//! exec hosts. Three jobs in four are submitted paused at exec with the
//! `tracey` coverage daemon attached through TDP (create-paused, attach,
//! continue); the rest run plain. Most of the work is process
//! management in `tdp-simos`, the `tdp-condor` daemons and
//! `tdp-netsim`; attribute traffic is a few ops per job.

use crate::gen::Rng;
use crate::harness::{
    measure_trials, ns_since, process_metrics, run_phase, run_phase_reading_rss, setup_times,
    span_median_us, warm_up_for, Cfg, Fail, Limit, Report, Spans, SETUPS_PER_TRIAL,
};
use crate::{measure, trace_len, write_spans};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdp_condor::{CondorPool, JobState};
use tdp_core::{Role, TdpCreate, TdpHandle, World};
use tdp_proto::{ContextId, ProcStatus, TdpResult};
use tdp_simos::{fn_program, ExecImage};

/// Peak RSS is read once this many ops completed (about 3 s of the
/// measured phase on a 2-vCPU host), comparing memory at equal work.
const RSS_AFTER_OPS: u64 = 2_500;
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
const MEASURED: u64 = 0;
const WARM_UP: u64 = 1;

/// The application: `main` calls `work` as many times as its argument.
fn app_image() -> ExecImage {
    ExecImage::new(
        ["main", "work"],
        Arc::new(|argv: &[String]| {
            let n: u32 = argv.last().and_then(|a| a.parse().ok()).unwrap_or(0);
            fn_program(move |ctx| {
                ctx.call("main", |ctx| {
                    for _ in 0..n {
                        ctx.call("work", |ctx| ctx.compute(10));
                    }
                });
                0
            })
        }),
    )
}

#[derive(Clone, Copy)]
struct Job {
    tool: bool,
    size: u32,
}

/// Seeded job stream: 3 of 4 jobs run under `tracey`, sizes 1–64.
struct Jobs(Rng);

impl Jobs {
    fn new(seed: u64, stream: u64) -> Jobs {
        Jobs(Rng::new(seed, 3000 + stream))
    }

    fn next_job(&mut self) -> Job {
        Job {
            tool: self.0.below(4) != 0,
            size: self.0.range(1, 64) as u32,
        }
    }
}

fn submit_text(job: Job) -> String {
    let tool = if job.tool {
        "+SuspendJobAtExec = True\n+ToolDaemonCmd = \"tracey\"\n"
    } else {
        ""
    };
    format!(
        "executable = /bin/app\narguments = {}\n{tool}queue\n",
        job.size
    )
}

struct Rig {
    world: World,
    pool: CondorPool,
    jobs: Jobs,
    seed: u64,
    n: u64,
    /// Traced runs: spans plus `(tool, size, ns)` of every job.
    spans: Option<Spans>,
    kinds: Vec<(bool, u32, u64)>,
    missed_running: u64,
}

fn build(seed: u64) -> TdpResult<Rig> {
    let world = World::new();
    let pool = CondorPool::build(&world, 2)?;
    pool.install_everywhere("/bin/app", app_image());
    for h in pool.exec_hosts() {
        world
            .os()
            .fs()
            .install_exec(*h, "tracey", tdp_tools::tracey_image(world.clone()));
    }
    Ok(Rig {
        world,
        pool,
        jobs: Jobs::new(seed, MEASURED),
        seed,
        n: 0,
        spans: None,
        kinds: Vec::new(),
        missed_running: 0,
    })
}

impl Rig {
    fn restart(&mut self, stream: u64) {
        self.jobs = Jobs::new(self.seed, stream);
        self.n = 0;
    }

    /// Submit the next job and wait for it; latency is submit to
    /// `Completed`. Traced runs poll the queue state to split it.
    fn step(&mut self) -> Result<u64, Fail> {
        let job = self.jobs.next_job();
        self.n += 1;
        let text = submit_text(job);
        let t = Instant::now();
        let id = self
            .pool
            .submit_str(&text)
            .map_err(|e| Fail::Error(e.to_string()))?;
        let running = if self.spans.is_some() {
            self.poll_running(id)
        } else {
            None
        };
        let state = self
            .pool
            .wait_job(id, JOB_TIMEOUT)
            .map_err(|e| Fail::Error(e.to_string()))?;
        let lat = ns_since(t);
        if let Some(spans) = &mut self.spans {
            spans.record("condor.job", self.n, t, lat);
            match running {
                Some(r) => {
                    spans.record("condor.queue_wait", self.n, t, (r - t).as_nanos() as u64);
                    spans.record("condor.run", self.n, r, ns_since(r));
                }
                None => self.missed_running += 1,
            }
            self.kinds.push((job.tool, job.size, lat));
        }
        self.check(id, job, state)?;
        Ok(lat)
    }

    /// When the job was first seen `Running`, if it was.
    fn poll_running(&self, id: tdp_proto::JobId) -> Option<Instant> {
        loop {
            match self.pool.schedd().job_state(id) {
                Some(JobState::Running) => return Some(Instant::now()),
                Some(JobState::Idle) | None => std::thread::sleep(Duration::from_micros(20)),
                Some(_) => return None,
            }
        }
    }

    /// Exit 0 on every rank, and exactly one coverage report per tool
    /// job whose `work` count is the job's size.
    fn check(&self, id: tdp_proto::JobId, job: Job, state: JobState) -> Result<(), Fail> {
        match state {
            JobState::Completed(ranks) if ranks.values().all(|s| *s == ProcStatus::Exited(0)) => {}
            other => return Err(Fail::Wrong(format!("{id:?} ended {other:?}"))),
        }
        let fs = self.world.os().fs();
        let reports: Vec<_> = self
            .pool
            .exec_hosts()
            .iter()
            .flat_map(|&h| {
                fs.list(h, "tracey")
                    .into_iter()
                    .filter(|p| p.ends_with(".coverage"))
                    .map(move |p| (h, p))
            })
            .collect();
        let want = usize::from(job.tool);
        if reports.len() != want {
            return Err(Fail::Wrong(format!(
                "{id:?}: {} coverage reports, expected {want}",
                reports.len()
            )));
        }
        for (h, path) in reports {
            let text = fs
                .read_file(h, &path)
                .map_err(|e| Fail::Error(e.to_string()))?;
            fs.remove(h, &path);
            let text = String::from_utf8_lossy(&text);
            let work = text
                .lines()
                .find_map(|l| l.strip_prefix("work "))
                .and_then(|n| n.parse::<u32>().ok());
            if work != Some(job.size) || !text.contains("# exit exited:0") {
                return Err(Fail::Wrong(format!(
                    "{id:?}: {path} reports work {work:?}, expected {}",
                    job.size
                )));
            }
        }
        Ok(())
    }
}

/// Run the warm-up job stream for `dur`, then rewind to the measured one.
fn warm(report: &mut Report, rigs: &mut [Rig; 1], dur: Duration) {
    rigs[0].restart(WARM_UP);
    report.absorb(&run_phase(rigs, Limit::Time(dur), Rig::step));
    rigs[0].restart(MEASURED);
}

pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    if !cfg.trace {
        measure_trials(
            cfg,
            &mut report,
            RSS_AFTER_OPS,
            |report, seed, share, rss_after| {
                let (rig, setups) =
                    setup_times(SETUPS_PER_TRIAL, || build(seed).expect("parador set-up"));
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
    let mut rigs = [build(cfg.seed).expect("parador set-up")];
    warm(&mut report, &mut rigs, warm_up_for(total));
    let plain = run_phase(&mut rigs, Limit::Time(total * 2 / 5), Rig::step);
    report.absorb(&plain);
    let jobs = plain.op_counts()[0];
    let epoch = Instant::now();

    // Condor rung: the same jobs, with the queue state polled.
    rigs[0].restart(MEASURED);
    rigs[0].spans = Some(Spans::new(0, epoch));
    let events0 = trace_len(&rigs[0].world);
    let traced = run_phase(&mut rigs, Limit::Ops(vec![jobs]), Rig::step);
    report.absorb(&traced);
    let events = trace_len(&rigs[0].world) - events0 - 1;
    let rig = &mut rigs[0];
    let condor_spans = rig.spans.take().expect("traced");
    let bufs = std::slice::from_ref(&condor_spans);
    report.metric(
        "condor.queue_wait_us",
        span_median_us(bufs, "condor.queue_wait"),
        "us",
    );
    report.metric("condor.run_us", span_median_us(bufs, "condor.run"), "us");
    report.metric(
        "condor.tool_overhead_us",
        tool_overhead_us(&rig.kinds),
        "us",
    );
    report.notes.push(format!(
        "condor: {} of {jobs} jobs finished before Running was seen",
        rig.missed_running
    ));
    report.metric(
        "core.trace_events_per_op",
        events as f64 / traced.ops().max(1) as f64,
        "count",
    );
    report.metric(
        "attrspace.server_threads",
        plain.census_peak[1] as f64,
        "count",
    );
    report.metric("wire.threads", plain.census_peak[0] as f64, "count");

    // Simos rung: the same job sizes through TdpHandle process calls.
    let simos_spans = simos_rung(
        &mut report,
        &rig.world,
        rig.pool.exec_hosts()[0],
        cfg.seed,
        jobs,
        epoch,
    );
    let bufs = std::slice::from_ref(&simos_spans);
    for (metric, span) in [
        ("simos.create_paused_us", "simos.create_paused"),
        ("simos.attach_us", "simos.attach"),
        ("simos.arm_probe_us", "simos.arm_probe"),
        ("simos.continue_to_exit_us", "simos.continue_to_exit"),
    ] {
        report.metric(metric, span_median_us(bufs, span), "us");
    }
    process_metrics(&mut report, &plain);
    report.overhead(&plain, traced.windowed_quantile_ns(0.5) / 1e3);
    write_spans(cfg, "parador", [&condor_spans, &simos_spans]);
    report
}

/// Median over job sizes of (median tool job − median plain job).
fn tool_overhead_us(kinds: &[(bool, u32, u64)]) -> f64 {
    let mut by_size: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for &(tool, size, ns) in kinds {
        let e = by_size.entry(size).or_default();
        if tool { &mut e.0 } else { &mut e.1 }.push(ns as f64 / 1e3);
    }
    let diffs = by_size
        .into_values()
        .filter(|(t, p)| !t.is_empty() && !p.is_empty())
        .map(|(t, p)| measure::median(t) - measure::median(p))
        .collect();
    measure::median(diffs)
}

/// Replay the first `jobs` jobs of the stream as create-paused, attach,
/// arm every probe, continue to exit, on one exec host.
fn simos_rung(
    report: &mut Report,
    world: &World,
    host: tdp_proto::HostId,
    seed: u64,
    jobs: u64,
    epoch: Instant,
) -> Spans {
    let mut spans = Spans::new(0, epoch);
    let mut rm = TdpHandle::init(
        world,
        host,
        ContextId(77),
        "bench-rm",
        Role::ResourceManager,
    )
    .expect("simos rung handle");
    let mut stream = Jobs::new(seed, MEASURED);
    for op in 0..jobs {
        let job = stream.next_job();
        let mut timed = |name, f: &mut dyn FnMut() -> TdpResult<()>| {
            let t = Instant::now();
            let r = f();
            spans.record(name, op, t, ns_since(t));
            r
        };
        let mut pid = None;
        let res = (|| -> TdpResult<u64> {
            timed("simos.create_paused", &mut || {
                let spec = TdpCreate::new("/bin/app")
                    .args([job.size.to_string()])
                    .paused();
                rm.create_process(spec).map(|p| pid = Some(p))
            })?;
            let pid = pid.expect("created");
            timed("simos.attach", &mut || rm.attach(pid))?;
            for sym in rm.symbols(pid)? {
                timed("simos.arm_probe", &mut || rm.arm_probe(pid, &sym))?;
            }
            timed("simos.continue_to_exit", &mut || {
                rm.continue_process(pid)?;
                rm.wait_terminal(pid, JOB_TIMEOUT).map(|_| ())
            })?;
            let work = rm
                .read_probes(pid)?
                .counts
                .get("work")
                .copied()
                .unwrap_or(0);
            rm.detach(pid)?;
            Ok(work)
        })();
        match res {
            Ok(work) if work == u64::from(job.size) => {}
            Ok(work) => report.note_problem(format!(
                "simos rung: job {op} counted {work} work calls of {}",
                job.size
            )),
            Err(e) => report.note_problem(format!("simos rung: job {op}: {e}")),
        }
        report.attempted += 1;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_three_tool_jobs_in_four() {
        let mut jobs = Jobs::new(1, MEASURED);
        let all: Vec<Job> = (0..4000).map(|_| jobs.next_job()).collect();
        let tool = all.iter().filter(|j| j.tool).count() as f64 / 4000.0;
        assert!((tool - 0.75).abs() < 0.03, "{tool}");
        assert!(all.iter().all(|j| (1..=64).contains(&j.size)));
        assert!(submit_text(all[0]).contains(&format!("arguments = {}", all[0].size)));
    }

    #[test]
    fn tool_overhead_pairs_jobs_of_the_same_size() {
        let kinds = [
            (true, 1, 5_000),
            (false, 1, 2_000),
            (true, 2, 9_000),
            (false, 2, 4_000),
            (true, 3, 1),
        ];
        assert_eq!(tool_overhead_us(&kinds), 4.0);
    }
}
