//! What the host tells us from outside the program under test: a
//! monotonic clock, CPU clocks, per-thread CPU time and context switches
//! from `/proc/self/task/*`, peak RSS, core count and the git revision;
//! and the one thing the benchmark asks of the host, a single CPU.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process. Stamps carried in
/// `Packet::arrival` and read back in the sink share this epoch.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct ThreadStat {
    pub name: String,
    /// CPU time, ns: `schedstat` (ns resolution) where the kernel has it,
    /// else utime+stime ticks from `stat`.
    pub cpu_ns: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

/// Every live thread of this process. Threads that have exited are gone
/// from procfs, so differences are only taken across phases in which no
/// thread starts or stops.
pub fn threads() -> Vec<ThreadStat> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).unwrap_or_default();
        let name = read("comm").trim().to_string();
        let cpu_ns = read("schedstat")
            .split_whitespace()
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| stat_ticks_ns(&read("stat")));
        let status = read("status");
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        out.push(ThreadStat {
            name,
            cpu_ns,
            voluntary_switches: field("voluntary_ctxt_switches:"),
            involuntary_switches: field("nonvoluntary_ctxt_switches:"),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// utime + stime of a `stat` line, in ns at the usual 100 ticks/s.
fn stat_ticks_ns(stat: &str) -> u64 {
    // Fields after the parenthesised comm (which may contain spaces):
    // state is field 3, utime 14, stime 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|t| t.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) * 10_000_000
}

/// Sums `cpu_ns` / switches over threads whose name starts with `prefix`.
pub fn sum_by_prefix(ts: &[ThreadStat], prefix: &str) -> (u64, u64, u64) {
    ts.iter()
        .filter(|t| t.name.starts_with(prefix))
        .fold((0, 0, 0), |a, t| {
            (
                a.0 + t.cpu_ns,
                a.1 + t.voluntary_switches,
                a.2 + t.involuntary_switches,
            )
        })
}

/// What the threads named `prefix*` used between two snapshots:
/// `(CPU ns, context switches of both kinds)`.
pub fn delta_by_prefix(before: &[ThreadStat], after: &[ThreadStat], prefix: &str) -> (f64, f64) {
    let (a, b) = (sum_by_prefix(before, prefix), sum_by_prefix(after, prefix));
    (
        b.0.saturating_sub(a.0) as f64,
        ((b.1 + b.2).saturating_sub(a.1 + a.2)) as f64,
    )
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

// std links libc on Linux; these three are all the benchmark needs of it.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the length of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// User + system CPU time of every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Confines the calling thread, and so every thread spawned after it, to
/// the highest-numbered CPU it may run on; returns that CPU, or `None`
/// if the host refuses (the run goes on unpinned and says so).
///
/// Left to the kernel, two threads of a workload land on one core or on
/// two as the host's other load decides, and `runtime_sync` then serves
/// 12 M or 40 M flits/s in identical runs. On one CPU every workload pays
/// for its threads' work in sequence and the figure repeats.
pub fn pin_to_one_cpu() -> Option<u64> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and writable; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - u64::from(bits.leading_zeros());
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is `bytes` long and only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word as u64 * 64 + bit)
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process could use when it first asked, which `run` does
/// before it pins itself to one.
pub fn nproc() -> u64 {
    static NPROC: OnceLock<u64> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
}

/// The checked-out commit, read from `.git` without spawning anything;
/// "unknown" in an exported tree.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm_parses() {
        let line = "12 (a b) c) S 1 2 3 4 5 6 7 8 9 10 30 12 0 0";
        assert_eq!(stat_ticks_ns(line), 42 * 10_000_000);
        assert_eq!(stat_ticks_ns("garbage"), 0);
    }

    #[test]
    fn this_process_has_a_thread_and_memory() {
        let ts = threads();
        assert!(!ts.is_empty());
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let a = now_ns();
        assert!(now_ns() >= a);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }
}
