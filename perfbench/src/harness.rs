//! The closed-loop driver shared by every workload, the result record,
//! and the in-memory span log of traced runs.

use crate::measure;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Driver threads and sessions may not exceed this (`nproc`).
    pub nproc: usize,
    /// Write the traced run's spans out at exit.
    pub spans_out: bool,
}

/// Why an op did not count as done.
#[derive(Debug)]
pub enum Fail {
    /// The program returned an error or refused the op.
    Error(String),
    /// The program answered, but the answer is wrong.
    Wrong(String),
}

/// What one workload run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_problem: Option<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed beside the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A rung without a closed loop of its own got a wrong answer.
    pub fn note_problem(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        self.first_problem.get_or_insert(problem);
    }

    /// Tracing overhead: the traced replay's median latency (from its
    /// spans) against the untraced phase's on the same seed and ops.
    pub fn overhead(&mut self, plain: &Phase, traced_p50_us: f64) {
        let plain_us = plain.windowed_quantile_ns(0.5) / 1e3;
        let pct = (traced_p50_us - plain_us) / plain_us * 100.0;
        self.metric("trace.overhead_pct", pct, "%");
        self.notes.push(format!(
            "tracing overhead: latency p50 untraced {plain_us:.2} us, traced {traced_p50_us:.2} us ({pct:+.1}%)"
        ));
    }

    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted();
        self.failed += phase.failed();
        self.wrong += phase.tallies.iter().map(|t| t.wrong).sum::<u64>();
        if self.first_problem.is_none() {
            self.first_problem = phase.tallies.iter().find_map(|t| t.problem.clone());
        }
    }
}

/// One driver thread's tallies for one phase.
#[derive(Default)]
pub struct Tally {
    pub lat_ns: Vec<u64>,
    /// Completion time of each sample, ns since the phase started.
    pub at_ns: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    pub wrong: u64,
    pub problem: Option<String>,
}

/// How long a phase runs: for a time, or for exactly these op counts
/// per driver thread (a ladder rung replaying a measured phase).
#[derive(Clone)]
pub enum Limit {
    Time(Duration),
    Ops(Vec<u64>),
}

/// Outside-in measurements of one closed-loop phase.
pub struct Phase {
    pub tallies: Vec<Tally>,
    pub ctx_switches: u64,
    pub allocs: u64,
    pub threads_peak: usize,
    /// Peak live threads per census prefix, in `CENSUS` order.
    pub census_peak: [usize; 2],
    /// About once a second: ns since the phase began, process CPU us and
    /// host steal us. Consecutive marks bound the windows the end-to-end
    /// medians use.
    pub marks: Vec<Mark>,
    /// Peak RSS (MiB) read once the phase had completed the requested
    /// number of ops, or at its end.
    pub rss_mb: f64,
}

/// Thread-name prefixes counted while a phase runs.
pub const CENSUS: [&str; 2] = ["wire-", "attrspace-client-"];

/// A measurement window of a phase: its span and what happened in it.
struct Window {
    secs: f64,
    cpu_us: u64,
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
    lat_ns: Vec<u64>,
}

/// A point in a phase: ns since it began, process CPU us, host steal us.
#[derive(Clone, Copy)]
pub struct Mark {
    at_ns: u64,
    cpu_us: u64,
    steal_us: u64,
}

impl Mark {
    fn now(at_ns: u64, cpu_us: u64) -> Mark {
        Mark {
            at_ns,
            cpu_us,
            steal_us: measure::host_steal_us().0,
        }
    }
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.tallies.iter().map(|t| t.ok).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed + t.wrong).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.ops() + self.failed()
    }

    pub fn op_counts(&self) -> Vec<u64> {
        self.tallies
            .iter()
            .map(|t| t.ok + t.failed + t.wrong)
            .collect()
    }

    /// The phase cut at its marks. A last window shorter than half a
    /// second is dropped: too few samples to stand beside the others.
    fn windows(&self) -> Vec<Window> {
        let mut windows: Vec<Window> = self
            .marks
            .windows(2)
            .map(|m| {
                let secs = (m[1].at_ns - m[0].at_ns) as f64 / 1e9;
                let capacity_us = secs * 1e6 * measure::host_steal_us().1 as f64;
                Window {
                    secs,
                    cpu_us: m[1].cpu_us - m[0].cpu_us,
                    steal: (m[1].steal_us - m[0].steal_us) as f64 / capacity_us,
                    lat_ns: Vec::new(),
                }
            })
            .collect();
        let starts: Vec<u64> = self.marks.iter().map(|m| m.at_ns).collect();
        let last = windows.len() - 1;
        for t in &self.tallies {
            for (&lat, &at) in t.lat_ns.iter().zip(&t.at_ns) {
                let w = starts.partition_point(|&s| s <= at).saturating_sub(1);
                windows[w.min(last)].lat_ns.push(lat);
            }
        }
        if windows.len() > 1 && windows.last().is_some_and(|w| w.secs < 0.5) {
            windows.pop();
        }
        windows.retain(|w| !w.lat_ns.is_empty());
        windows
    }

    /// Median over the phase's windows of each window's `q`-quantile:
    /// steadier across runs than one quantile over the whole phase,
    /// which one stall of a shared host can move.
    pub fn windowed_quantile_ns(&self, q: f64) -> f64 {
        let per_window = self
            .windows()
            .into_iter()
            .map(|mut w| {
                w.lat_ns.sort_unstable();
                measure::quantile(&w.lat_ns, q) as f64
            })
            .collect();
        measure::median(per_window)
    }

    pub fn per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops().max(1) as f64
    }
}

/// Drive `states.len()` closed loops, one thread each: every thread
/// runs `step` on its own state, and sends its next op only when the
/// previous one has completed. `step` returns the op's latency in ns.
pub fn run_phase<S: Send>(
    states: &mut [S],
    limit: Limit,
    step: impl Fn(&mut S) -> Result<u64, Fail> + Sync,
) -> Phase {
    run_phase_reading_rss(states, limit, u64::MAX, step)
}

/// [`run_phase`] that reads the peak RSS once `rss_after_ops` ops have
/// completed, so memory is compared at equal work whatever the speed.
pub fn run_phase_reading_rss<S: Send>(
    states: &mut [S],
    limit: Limit,
    rss_after_ops: u64,
    step: impl Fn(&mut S) -> Result<u64, Fail> + Sync,
) -> Phase {
    let n = states.len();
    let start = Barrier::new(n + 1);
    let end = Barrier::new(n + 1);
    let release = Barrier::new(n + 1);
    let finished = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let t0 = OnceLock::<Instant>::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(i, state)| {
                let (start, end, release, finished, completed, t0, step) =
                    (&start, &end, &release, &finished, &completed, &t0, &step);
                let limit = limit.clone();
                std::thread::Builder::new()
                    .name(format!("bench-driver-{i}"))
                    .spawn_scoped(s, move || {
                        let mut tally = Tally::default();
                        start.wait();
                        let t0 = *t0.wait();
                        let (deadline, max_ops) = match limit {
                            Limit::Time(d) => (Some(t0 + d), u64::MAX),
                            Limit::Ops(counts) => (None, counts[i]),
                        };
                        let mut done = 0;
                        while done < max_ops {
                            match step(state) {
                                Ok(lat) => {
                                    tally.ok += 1;
                                    tally.lat_ns.push(lat);
                                    tally.at_ns.push(t0.elapsed().as_nanos() as u64);
                                }
                                Err(Fail::Error(e)) => {
                                    tally.failed += 1;
                                    tally.problem.get_or_insert(e);
                                }
                                Err(Fail::Wrong(e)) => {
                                    tally.wrong += 1;
                                    tally.problem.get_or_insert(e);
                                }
                            }
                            done += 1;
                            completed.fetch_add(1, Ordering::Relaxed);
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                break;
                            }
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        end.wait();
                        release.wait();
                        tally
                    })
                    .expect("spawn driver thread")
            })
            .collect();
        let (cpu0, sw0, alloc0) = (
            measure::process_cpu_us(),
            measure::ctx_switches(),
            measure::allocs(),
        );
        let mut threads_peak = 0;
        let mut census_peak = [0; 2];
        let mut sample = || {
            let names = measure::thread_names();
            threads_peak = threads_peak.max(names.len());
            for (peak, prefix) in census_peak.iter_mut().zip(CENSUS) {
                *peak = (*peak).max(measure::census(&names, prefix));
            }
        };
        sample();
        start.wait();
        let begun = *t0.get_or_init(Instant::now);
        let mut marks = vec![Mark::now(0, cpu0)];
        let mut rss_mb = None;
        while finished.load(Ordering::SeqCst) < n {
            std::thread::sleep(Duration::from_millis(100));
            sample();
            let at = begun.elapsed().as_nanos() as u64;
            if at >= marks.last().expect("first mark").at_ns + 1_000_000_000 {
                marks.push(Mark::now(at, measure::process_cpu_us()));
            }
            if rss_mb.is_none() && completed.load(Ordering::Relaxed) >= rss_after_ops {
                rss_mb = Some(measure::peak_rss_mb());
            }
        }
        end.wait();
        let wall = begun.elapsed();
        // Read while the driver threads are still alive: a thread's
        // context switches vanish from /proc with the thread.
        let (cpu1, sw1, alloc1) = (
            measure::process_cpu_us(),
            measure::ctx_switches(),
            measure::allocs(),
        );
        release.wait();
        marks.push(Mark::now(wall.as_nanos() as u64, cpu1));
        Phase {
            tallies: handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect(),
            ctx_switches: sw1.saturating_sub(sw0),
            allocs: alloc1 - alloc0,
            threads_peak,
            census_peak,
            marks,
            rss_mb: rss_mb.unwrap_or_else(measure::peak_rss_mb),
        }
    })
}

/// Ops and allocations of one ladder rung, summed over its rounds.
#[derive(Default)]
pub struct Work {
    pub ops: u64,
    pub allocs: u64,
}

impl Work {
    /// Replay `counts` more ops per thread on a rung.
    pub fn add<S: Send>(
        &mut self,
        report: &mut Report,
        states: &mut [S],
        counts: &[u64],
        step: impl Fn(&mut S) -> Result<u64, Fail> + Sync,
    ) {
        let phase = run_phase(states, Limit::Ops(counts.to_vec()), step);
        report.absorb(&phase);
        self.ops += phase.ops();
        self.allocs += phase.allocs;
    }

    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }
}

/// Whole-process metrics of a measured phase.
pub fn process_metrics(report: &mut Report, phase: &Phase) {
    report.metric(
        "process.ctx_switches_per_op",
        phase.per_op(phase.ctx_switches),
        "count",
    );
    report.metric("process.threads_peak", phase.threads_peak as f64, "count");
}

/// Run `setup` `times` times and keep the last result; returns it with
/// every set-up time in seconds. Earlier results are dropped between
/// runs, outside the timed region.
pub fn setup_times<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Fresh set-ups an untraced run measures, each for an equal share of
/// the run. Windows of all trials are pooled: a run then mixes several
/// independent thread placements instead of riding on one.
pub const TRIALS: u32 = 4;
/// Set-ups timed per trial (the last one is measured).
pub const SETUPS_PER_TRIAL: usize = 5;

/// The untraced measurement. `trial(report, seed, share, rss_after_ops)`
/// sets the workload up, warms it and measures it for `share`,
/// returning the phase and its set-up times. Trial 0 uses the run's
/// seed; the others derive theirs from it.
pub fn measure_trials(
    cfg: &Cfg,
    report: &mut Report,
    rss_after_ops: u64,
    mut trial: impl FnMut(&mut Report, u64, Duration, u64) -> (Phase, Vec<f64>),
) {
    let share = Duration::from_secs_f64(cfg.seconds) / TRIALS;
    let (mut phases, mut setups) = (Vec::new(), Vec::new());
    for i in 0..TRIALS {
        let seed = cfg.seed.wrapping_add(u64::from(i) << 32);
        let rss = if i == 0 { rss_after_ops } else { u64::MAX };
        let (phase, secs) = trial(report, seed, share, rss);
        report.absorb(&phase);
        phases.push(phase);
        setups.extend(secs);
    }
    end_to_end(report, &phases, measure::median(setups));
}

/// Windows with more host steal than this share of the machine's CPU
/// time are left out of the end-to-end medians.
pub const STEAL_LIMIT: f64 = 0.02;

/// Warm-up before a measured phase of length `share`.
pub fn warm_up_for(share: Duration) -> Duration {
    (share / 10).min(Duration::from_secs(1))
}

/// Elapsed ns since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Fill the end-to-end metrics from the measured phases: medians over
/// the pooled windows of all trials.
fn end_to_end(report: &mut Report, phases: &[Phase], setup_s: f64) {
    let mut windows: Vec<Window> = phases.iter().flat_map(Phase::windows).collect();
    let samples: usize = windows.iter().map(|w| w.lat_ns.len()).sum();
    // A window in which the hypervisor took the CPUs away measures the
    // host, not the program: leave out windows over the steal limit,
    // but never more than half of them (the most stolen go first).
    let all = windows.len();
    let ops: Vec<usize> = windows.iter().map(|w| w.lat_ns.len()).collect();
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let keep = windows
        .iter()
        .filter(|w| w.steal <= STEAL_LIMIT)
        .count()
        .max(all.div_ceil(2));
    let max_steal = windows.last().map_or(0.0, |w| w.steal);
    windows.truncate(keep);
    let per_window = |f: &dyn Fn(&Window) -> f64| measure::median(windows.iter().map(f).collect());
    let ops_per_s = per_window(&|w| w.lat_ns.len() as f64 / w.secs);
    let cpu = per_window(&|w| w.cpu_us as f64 / w.lat_ns.len() as f64);
    windows.iter_mut().for_each(|w| w.lat_ns.sort_unstable());
    let quantile = |q: f64| {
        measure::median(
            windows
                .iter()
                .map(|w| measure::quantile(&w.lat_ns, q) as f64)
                .collect(),
        )
    };
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("latency_p50_us", quantile(0.50) / 1e3, "us");
    report.metric("latency_p99_us", quantile(0.99) / 1e3, "us");
    report.metric("cpu_us_per_op", cpu, "us");
    report.metric("peak_rss_mb", phases[0].rss_mb, "MiB");
    report.notes.push(format!(
        "{samples} latency samples; {keep} of {all} windows used, host steal up to {:.1}%; ops per window {ops:?}",
        max_steal * 100.0
    ));
    if samples < 1000 {
        report.first_problem.get_or_insert(format!(
            "only {samples} latency samples; a run needs at least 1000"
        ));
        report.wrong += 1;
    }
}

/// One traced interval around a call into a layer. Spans of the same
/// seeded op share `op` across rungs.
pub struct Span {
    pub name: &'static str,
    pub thread: u16,
    pub op: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-thread span buffer; spans stay in memory until the run ends.
pub struct Spans {
    pub thread: u16,
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(thread: usize, epoch: Instant) -> Spans {
        Spans {
            thread: thread as u16,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span named `name` for op `op` that began at `start` and
    /// lasted `dur_ns`.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, dur_ns: u64) {
        self.spans.push(Span {
            name,
            thread: self.thread,
            op,
            start_ns: (start - self.epoch).as_nanos() as u64,
            dur_ns,
        });
    }

    pub fn durations(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.dur_ns)
    }
}

/// Median duration of the spans named `name` across buffers, in us.
pub fn span_median_us(bufs: &[Spans], name: &str) -> f64 {
    let mut v: Vec<u64> = bufs.iter().flat_map(|b| b.durations(name)).collect();
    v.sort_unstable();
    measure::quantile(&v, 0.5) as f64 / 1e3
}

/// Write every span as CSV to `path` (overwritten each traced run).
pub fn write_spans_to<'a>(
    path: &std::path::Path,
    bufs: impl IntoIterator<Item = &'a Spans>,
) -> std::io::Result<usize> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,thread,op,start_ns,dur_ns")?;
    let mut n = 0;
    for b in bufs {
        for s in &b.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.thread, s.op, s.start_ns, s.dur_ns
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_counts_ops_and_replays_exact_counts() {
        let mut states = vec![0u64; 2];
        let timed = run_phase(&mut states, Limit::Time(Duration::from_millis(30)), |s| {
            *s += 1;
            if *s % 10 == 0 {
                Err(Fail::Error("every tenth".into()))
            } else {
                Ok(1_000)
            }
        });
        assert_eq!(timed.attempted(), states.iter().sum::<u64>());
        assert_eq!(timed.failed(), states.iter().map(|s| s / 10).sum::<u64>());
        let counts = timed.op_counts();
        let mut replay = vec![0u64; 2];
        let again = run_phase(&mut replay, Limit::Ops(counts.clone()), |s| {
            *s += 1;
            Ok(1_000)
        });
        assert_eq!(again.op_counts(), counts);
        assert_eq!(again.windowed_quantile_ns(0.5), 1_000.0);
        assert!(timed.threads_peak >= 3);
    }

    #[test]
    fn setup_times_keeps_last() {
        let mut k = 0;
        let (last, secs) = setup_times(3, || {
            k += 1;
            k
        });
        assert_eq!(last, 3);
        assert_eq!(secs.len(), 3);
    }
}
