//! The ledger's two clock reads. Every duration the ledger reports is a
//! difference of two values of one of them:
//!
//! - [`cpu_ns`], the calling thread's CPU time, for every end-to-end
//!   number: set-up, requests and the rates of repetitions. All timed work
//!   runs on the main thread, so its CPU clock advances exactly while the
//!   work runs. It stands still while the thread waits for a core: while
//!   the guest runs another process, and while the host runs another
//!   guest (the kernel subtracts such steal time from task run time).
//!   Outside load on a shared host therefore moves it far less than the
//!   wall clock. A read is a system call of about 250 ns.
//! - [`now_ns`], the monotonic wall clock, for run lengths, spans and the
//!   per-layer stage timers of the traced run, whose stages last from tens
//!   of nanoseconds up; a read costs about 40 ns.

use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic wall-clock nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Wall-clock seconds elapsed since `start_ns` (a `now_ns` value).
pub fn secs_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 * 1e-9
}

/// CPU nanoseconds the calling thread has run.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is one every Linux kernel since 2.6 supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return now_ns();
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// CPU nanoseconds the calling thread has run: the wall clock where the
/// thread CPU clock is not wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    now_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn the_cpu_clock_advances_with_work_and_not_with_sleep() {
        let c0 = cpu_ns();
        let w0 = now_ns();
        let mut x = 1u64;
        while now_ns() - w0 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let busy = cpu_ns() - c0;
        assert!(busy > 5_000_000, "20 ms of work read {busy} ns of CPU time");
        let c1 = cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = cpu_ns() - c1;
        assert!(
            slept < 10_000_000,
            "30 ms of sleep read {slept} ns of CPU time"
        );
    }
}
