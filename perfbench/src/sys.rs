//! Host clocks and counters: thread/process CPU time, peak RSS, and
//! per-thread CPU from `/proc/self/task/*/{comm,schedstat}` (Linux).

use std::path::Path;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the clock ids are
    // the Linux CPU-time clocks, which always exist.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU-time clocks are always available on Linux");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of the process.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// The first field of a `schedstat` line: nanoseconds spent on a CPU.
fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds per live thread of `task_dir` (normally
/// `/proc/self/task`), as `(comm, ns)` pairs sorted by name. `None` when
/// the directory cannot be read, so a host without `/proc` reports the
/// dependent metrics as absent rather than zero.
pub fn thread_cpu_by_name(task_dir: &Path) -> Option<Vec<(String, u64)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(task_dir).ok()? {
        let dir = entry.ok()?.path();
        // A thread may exit between listing and reading: skip it.
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        out.push((comm.trim_end().to_string(), parse_schedstat(&stat)?));
    }
    out.sort();
    Some(out)
}

/// CPU nanoseconds of the thread whose name starts with `prefix` (names are
/// cut to 15 bytes by the kernel, so callers pass at most that much).
pub fn cpu_of(threads: &[(String, u64)], prefix: &str) -> Option<u64> {
    threads.iter().find(|(name, _)| name.starts_with(prefix)).map(|&(_, ns)| ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_canned_schedstat() {
        assert_eq!(parse_schedstat("123456789 2000 31\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn finds_threads_by_truncated_name() {
        let threads =
            vec![("btrace-stream-d".to_string(), 10), ("btrace-stream-s".to_string(), 20)];
        assert_eq!(cpu_of(&threads, "btrace-stream-s"), Some(20));
        assert_eq!(cpu_of(&threads, "btrace-stream-e"), None);
    }

    #[test]
    fn missing_proc_is_absent_not_zero() {
        assert_eq!(thread_cpu_by_name(Path::new("/nonexistent/proc/self/task")), None);
    }

    #[test]
    fn clocks_advance() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() >= thread_cpu_ns());
        assert!(peak_rss_mib() > 0.0);
    }
}
