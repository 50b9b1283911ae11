//! Busy-time measurement for site stage tasks.
//!
//! The in-process engine simulates a distributed warehouse with one
//! thread per site, so on a machine with fewer cores than sites the
//! threads timeshare: wall-clock timing of a stage task then charges a
//! site for time it spent *descheduled* while other sites ran. That both
//! inflates every per-site busy figure and adds run-to-run noise exactly
//! when work overlaps, which is when the busy `skew` column matters.
//!
//! [`BusyTimer`] therefore measures *thread CPU time* where the
//! platform provides it (Linux, via a dependency-free `clock_gettime`
//! syscall on `CLOCK_THREAD_CPUTIME_ID` — this workspace deliberately
//! has no libc binding) and falls back to monotonic wall time
//! elsewhere. On a real deployment, where each site is its own machine,
//! the two clocks coincide; under simulation, CPU time is the faithful
//! stand-in for "what this site would have computed alone".
//!
//! A stage task's compute is not all on the thread that times it: the
//! GMDJ kernel runs morsels on the calling thread and on scoped worker
//! threads beside it. Each extra worker reads its own thread CPU clock
//! and, after the join, the kernel charges the sum to the calling thread
//! ([`charge_foreign_ns`]); a running [`BusyTimer`] on that thread counts
//! it with the thread's own time.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// CPU nanoseconds other threads spent on this thread's behalf.
    static FOREIGN_NS: Cell<u64> = const { Cell::new(0) };
}

/// Charge `ns` of thread CPU time, spent by helper threads the calling
/// thread waited for, to the calling thread's [`BusyTimer`]s.
pub fn charge_foreign_ns(ns: u64) {
    FOREIGN_NS.with(|f| f.set(f.get() + ns));
}

/// Nanoseconds of CPU time consumed by the calling thread, if the
/// platform exposes a thread CPU clock.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn thread_cpu_ns() -> Option<u64> {
    // Raw clock_gettime(CLOCK_THREAD_CPUTIME_ID): syscall 228 on
    // x86_64, clock id 3. vDSO would be faster but needs a loader;
    // one true syscall per stage task is far below measurement noise.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let ret: i64;
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 228i64 => ret,
            in("rdi") 3i64,
            in("rsi") &mut ts as *mut Timespec,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    (ret == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

/// Fallback: no thread CPU clock on this platform.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Times one stage task's *compute*: thread CPU time when available —
/// the calling thread's plus what was charged to it through
/// [`charge_foreign_ns`] — monotonic wall time otherwise (which already
/// spans the helpers the thread waited for). Start and stop on the same
/// thread.
pub struct BusyTimer {
    cpu_ns: Option<u64>,
    foreign_ns: u64,
    wall: Instant,
}

impl BusyTimer {
    /// Start timing on the calling thread.
    pub fn start() -> BusyTimer {
        BusyTimer {
            cpu_ns: thread_cpu_ns(),
            foreign_ns: FOREIGN_NS.with(Cell::get),
            wall: Instant::now(),
        }
    }

    /// Seconds of compute since [`BusyTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => {
                let foreign = FOREIGN_NS.with(Cell::get) - self.foreign_ns;
                (b.saturating_sub(a) + foreign) as f64 / 1e9
            }
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = BusyTimer::start();
        // Spin long enough to register on any clock granularity.
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let s = t.elapsed_s();
        assert!(s > 0.0, "busy timer did not advance: {s}");
        assert!(s < 60.0, "busy timer jumped implausibly: {s}");
    }

    #[test]
    fn foreign_cpu_is_charged_to_the_waiting_threads_timer() {
        if thread_cpu_ns().is_none() {
            return;
        }
        // Charged before the timer started: not this timer's.
        charge_foreign_ns(7_000_000_000);
        let t = BusyTimer::start();
        let own = t.elapsed_s();
        // A helper burns CPU while this thread only waits; its clock
        // reading is what the kernel's scoped workers hand back.
        let helper_ns = std::thread::scope(|s| {
            s.spawn(|| {
                let mut x = 0u64;
                for i in 0..5_000_000u64 {
                    x = x.wrapping_add(i * i);
                }
                std::hint::black_box(x);
                thread_cpu_ns().expect("clock exists")
            })
            .join()
            .expect("helper does not panic")
        });
        assert!(helper_ns > 0);
        let before = t.elapsed_s();
        charge_foreign_ns(helper_ns);
        let after = t.elapsed_s();
        assert!(
            after - before >= helper_ns as f64 / 1e9,
            "charge of {helper_ns} ns moved the timer {before} -> {after}"
        );
        assert!(own < 1.0, "an earlier charge leaked into the timer: {own}");
        // Another thread's timer never sees this thread's charges.
        let other = std::thread::spawn(|| BusyTimer::start().elapsed_s())
            .join()
            .expect("no panic");
        assert!(other < 1.0, "charge crossed threads: {other}");
    }

    #[test]
    fn cpu_time_ignores_sleep() {
        // Only meaningful where the thread CPU clock exists.
        if thread_cpu_ns().is_none() {
            return;
        }
        let t = BusyTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let s = t.elapsed_s();
        assert!(s < 0.040, "sleep was charged as compute: {s}");
    }
}
