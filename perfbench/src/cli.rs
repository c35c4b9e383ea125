//! Runs one harness invocation and measures it from outside: host wall
//! time, and the child's peak resident set from `wait4`'s resource usage.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs starting
/// with `ru_maxrss` (kilobytes).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

/// `cpu_set_t`: a mask of 1,024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// What one invocation did.
pub struct Outcome {
    /// Host seconds from spawn to reaping.
    pub wall_s: f64,
    /// The child's peak resident set, in KiB.
    pub peak_rss_kb: u64,
    /// Exited normally with status 0.
    pub success: bool,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Everything it wrote to stderr.
    pub stderr: String,
}

/// Runs `program args...` in `cwd`, with stdin closed, and reaps it.
pub fn run(program: &Path, args: &[String], cwd: &Path) -> std::io::Result<Outcome> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout is piped");
    let mut err = child.stderr.take().expect("stderr is piped");
    // Drain both pipes at once so neither can fill and block the child.
    let (stdout, stderr) = std::thread::scope(|s| {
        let errs = s.spawn(move || {
            let mut text = String::new();
            err.read_to_string(&mut text).map(|_| text)
        });
        let mut bytes = Vec::new();
        let read = out.read_to_end(&mut bytes).map(|_| bytes);
        (read, errs.join().expect("stderr reader does not panic"))
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `child` is this process's own child and has not been reaped
    // (std only reaps in `wait`/`try_wait`, never called here); `status`
    // and `usage` are live, writable and laid out as the C ABI declares.
    let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if pid < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Outcome {
        wall_s,
        peak_rss_kb: usage.maxrss.max(0) as u64,
        // A zero status word means a normal exit with code 0.
        success: status == 0,
        stdout: stdout?,
        stderr: stderr?,
    })
}

/// This process's peak resident set (`VmHWM`), in KiB.
pub fn self_peak_rss_kb() -> u64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is live, writable and laid out as the C ABI declares.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss.max(0) as u64
    } else {
        0
    }
}

/// The CPUs the calling thread may run on (none if that cannot be read).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is live, writable and as large as the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every process and thread it starts
/// from now on, to `cpus`. Best effort: a refused mask leaves the thread
/// where it was.
pub fn pin(cpus: &[usize]) {
    let mut set = CpuSet([0; 16]);
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is live and as large as the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// The `(hits, misses)` of the harness's stderr cache summary line
/// (`cache: H hits, M misses, ...`), if it printed one.
pub fn cache_traffic(stderr: &str) -> Option<(u64, u64)> {
    let line = stderr.lines().find_map(|l| l.strip_prefix("cache: "))?;
    let mut words = line.split([' ', ',']).filter(|w| !w.is_empty());
    let hits = words.next()?.parse().ok()?;
    let misses = words.nth(1)?.parse().ok()?;
    Some((hits, misses))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_moves_the_thread_and_restores() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        pin(&all[..1]);
        assert_eq!(allowed_cpus(), all[..1]);
        pin(&all);
        assert_eq!(allowed_cpus(), all);
    }

    #[test]
    fn parses_the_cache_summary() {
        let err = "cache: 1 hits, 0 misses, 0 stores, 0 evictions (c)\n";
        assert_eq!(cache_traffic(err), Some((1, 0)));
        assert_eq!(cache_traffic("wrote profile.json\n"), None);
    }
}
