//! Outside-in measurement helpers: everything here observes the process
//! from the benchmark's side (a counting global allocator and `/proc`),
//! so no crate of the program needs instrumenting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocator that counts allocations (including reallocations)
/// across all threads, then defers to the system allocator.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Process CPU time (user + system, all threads) in microseconds, from
/// `/proc/self/stat`. The kernel reports it in USER_HZ ticks, which
/// Linux fixes at 100 per second for `/proc`.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    cpu_us_from_stat(&stat)
}

fn cpu_us_from_stat(stat: &str) -> u64 {
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

/// Context switches (voluntary + involuntary) summed over every live
/// thread of the process. `/proc/self/status` alone covers only the
/// main thread, which is idle while driver threads run.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("status")).ok())
        .map(|s| ctx_switches_from_status(&s))
        .sum()
}

fn ctx_switches_from_status(status: &str) -> u64 {
    status
        .lines()
        .filter(|l| l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// CPU time the hypervisor took from this machine's CPUs (the `steal`
/// column of `/proc/stat`), in microseconds summed over CPUs, and the
/// number of CPUs it sums over.
pub fn host_steal_us() -> (u64, usize) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    steal_from_stat(&stat)
}

fn steal_from_stat(stat: &str) -> (u64, usize) {
    let steal = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok())
        .unwrap_or(0);
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .count();
    (steal * 10_000, cpus.max(1))
}

/// Names (`comm`) of every live thread of the process.
pub fn thread_names() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|c| c.trim_end().to_string())
        .collect()
}

/// Live threads whose name starts with `prefix`. `/proc` truncates
/// names to 15 bytes, so the prefix is truncated the same way.
pub fn census(names: &[String], prefix: &str) -> usize {
    let prefix = &prefix[..prefix.len().min(15)];
    names.iter().filter(|n| n.starts_with(prefix)).count()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    kib_field(&status, "VmHWM:") as f64 / 1024.0
}

fn kib_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a list of reals (mean of the middle pair for even length).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_allocator_sees_heap_allocations() {
        let before = allocs();
        let v: Vec<Box<u64>> = (0..100).map(Box::new).collect();
        std::hint::black_box(&v);
        // Other test threads may allocate too, so only a lower bound.
        assert!(allocs() - before >= 100);
    }

    #[test]
    fn cpu_time_parses_utime_and_stime() {
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(cpu_us_from_stat(stat), 300 * 10_000);
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu_us() > 0);
    }

    #[test]
    fn steal_is_the_eighth_cpu_column() {
        let stat = "cpu  10 0 20 30 1 0 2 7 0 0\ncpu0 5 0 10 15 1 0 1 4 0 0\ncpu1 5 0 10 15 0 0 1 3 0 0\nintr 1\n";
        assert_eq!(steal_from_stat(stat), (70_000, 2));
        assert!(host_steal_us().1 >= 1);
    }

    #[test]
    fn context_switches_sum_every_thread() {
        let status = "Name:\tx\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(ctx_switches_from_status(status), 10);
        // A thread that sleeps switches out; its count is only visible
        // through its own task entry, which the process-wide sum covers.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (own_tx, own) = std::sync::mpsc::channel::<u64>();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            own_tx.send(ctx_switches_from_status(&status)).unwrap();
            rx.recv().ok()
        });
        let own = own.recv().unwrap();
        assert!(own > 0);
        assert!(ctx_switches() >= own);
        tx.send(()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn census_matches_truncated_prefixes() {
        let name = "census-probe-thread";
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                // The name is set before this closure runs.
                ready_tx.send(()).unwrap();
                rx.recv().ok()
            })
            .unwrap();
        ready.recv().unwrap();
        assert_eq!(census(&thread_names(), name), 1);
        let names = vec!["attrspace-clien".to_string(), "wire-epoll-0-1".to_string()];
        assert_eq!(census(&names, "attrspace-client-"), 1);
        assert_eq!(census(&names, "wire-"), 1);
        tx.send(()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(kib_field("VmHWM:\t  2048 kB\n", "VmHWM:"), 2048);
    }

    #[test]
    fn quantiles_and_medians() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
