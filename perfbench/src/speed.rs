//! Host-speed calibration.
//!
//! A shared host can run this process's CPUs at speeds about 1.5x apart,
//! switching within a second or staying slow for a whole run (measured on
//! a 2-core Xeon VM; the slowdown shows in CPU time as well as wall time,
//! so it is not descheduling).  It also steals time from the guest and
//! stalls its shared disk, for minutes at a time.
//!
//! The workloads therefore measure intervals in the CPU time of the whole
//! process ([`process_cpu_s`]), which leaves steal and waits out, and
//! scale them to the host's full speed: a fixed kernel in the benchmark's
//! own code, independent of the code under test, is timed in thread CPU
//! time next to each measured interval, and an interval of `t` seconds
//! reports as `t * KERNEL_FULL_SPEED_S / kernel`.  A workload with more
//! than one busy thread pins them all to one CPU (see
//! [`pin_to_current_cpu`]), so that the kernel reads that CPU's speed.

/// The kernel's thread CPU time at the host's full speed (the 10th
/// percentile of its readings on a 2-core Xeon VM).
pub const KERNEL_FULL_SPEED_S: f64 = 0.000_91;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and both CPU-time
    // clocks used here are clocks every Linux kernel provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn thread_cpu_s() -> f64 {
    cpu_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Runs the calibration kernel and returns its thread CPU time in seconds.
pub fn kernel() -> f64 {
    let t0 = thread_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut table = [0_u64; 256];
    let mut acc = 0.0_f64;
    for i in 0..100_000_u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 * (1.0 / (1_u64 << 53) as f64);
        acc += (1.0 - u).ln();
        let slot = (x & 255) as usize;
        table[slot] = table[slot].wrapping_add(i ^ (x >> 17));
    }
    std::hint::black_box((acc, table));
    thread_cpu_s() - t0
}

/// The factor that scales an interval measured between kernel readings
/// `before` and `after` to the host's full speed.
pub fn to_full_speed(before: f64, after: f64) -> f64 {
    KERNEL_FULL_SPEED_S / (0.5 * (before + after))
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// CPU it runs on, so that work on other threads runs at the speed the
/// calibration kernel reads on this one.  Returns the CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0_u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is outside a 1024-CPU mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid, readable CPU set of `size_of_val(&mask)`
    // bytes that outlives the call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}
