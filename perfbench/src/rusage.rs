//! CPU time and peak resident memory, from `getrusage(2)` and
//! `/proc/self/status`.
//!
//! The standard library exposes neither, and the workspace builds offline
//! without the `libc` crate, so the one foreign call is declared here.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

/// Whose resources to read.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    /// This process, all threads.
    Process,
    /// Every child process that has ended and been waited for.
    Children,
}

/// A `getrusage` reading.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in KiB (for [`Who::Children`], the largest
    /// single waited-for child).
    pub maxrss_kib: u64,
}

/// Reads the resource usage of `who`.
pub fn usage(who: Who) -> Usage {
    let code = match who {
        Who::Process => 0,   // RUSAGE_SELF
        Who::Children => -1, // RUSAGE_CHILDREN
    };
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (checked by the cfg above), and getrusage writes only into it.
    let rc = unsafe { getrusage(code, &mut raw) };
    assert_eq!(rc, 0, "getrusage failed for {who:?}");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
        maxrss_kib: raw.maxrss.max(0) as u64,
    }
}

/// CPU seconds spent by this process and its waited-for children together.
pub fn total_cpu_s() -> f64 {
    usage(Who::Process).cpu_s + usage(Who::Children).cpu_s
}

/// Peak resident set size of this process image in KiB (`VmHWM`). Unlike
/// `getrusage(RUSAGE_SELF)`, whose peak survives `exec`, it starts afresh
/// when the image does, so a launcher that execs this binary (`cargo run`
/// does) cannot leave its own peak in the reading.
pub fn own_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_positive() {
        let before = usage(Who::Process);
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage(Who::Process);
        assert!(after.cpu_s > before.cpu_s);
        assert!(after.maxrss_kib > 0);
        let own = own_peak_rss_kib().unwrap();
        assert!(own > 0 && own <= after.maxrss_kib);
    }
}
