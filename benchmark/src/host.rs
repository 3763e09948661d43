//! What the benchmark reads from the host: a monotonic clock shared by all
//! threads, process CPU time, context switches, and a speed canary.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process. One epoch for every
/// thread, so driver-loop marks and traced-endpoint marks are comparable.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleeps the calling thread until `instant_ns` on the [`now_ns`] clock
/// (returns at once if it has passed).
pub fn sleep_until(instant_ns: u64) {
    let now = now_ns();
    if instant_ns > now {
        std::thread::sleep(Duration::from_nanos(instant_ns - now));
    }
}

/// glibc's `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library std already links; there is no libc crate here.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and so every thread spawned after the call, to
/// the highest-numbered CPU it may run on. Returns that CPU; `None` (and no
/// change) off Linux or if the kernel refuses.
///
/// Both binaries call this first thing. With the process's dozen threads
/// spread over the box's two vCPUs, most hops of an operation wake a thread
/// on the other, halted vCPU: an inter-processor interrupt through the
/// hypervisor, whose cost depends on what the shared host is doing and was
/// 60 % of an operation's time (README, *one vCPU*). On one vCPU a hop is a
/// guest context switch, the CPU never idles under the closed loop, and the
/// numbers are the program's own cost — steadier, and 2.5× more sensitive
/// to it.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `allowed` is a live, writable 128-byte buffer and `size`
        // is its length; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        let (word, bits) = allowed.iter().enumerate().rfind(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live 128-byte buffer read for `size` bytes.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ is 100 on
/// every Linux ABI; there is no libc here to ask `sysconf`).
const CLK_TCK: f64 = 100.0;

/// Process CPU time (user + system, all threads, including ones that have
/// exited) from `/proc/self/stat`. `None` off Linux.
pub fn process_cpu() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) / CLK_TCK))
}

/// Voluntary context switches summed over the process's live threads
/// (`/proc/self/task/*/status`). `None` off Linux.
pub fn voluntary_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread can exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    Some(total)
}

/// Host-speed canary: a fixed single-threaded hash loop, in milliseconds.
/// Printed around every repeat so a reader can tell host drift from a
/// program change.
pub fn canary_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 31;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_and_procfs_parses() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        if cfg!(target_os = "linux") {
            assert!(process_cpu().is_some());
            assert!(voluntary_switches().is_some());
        }
    }

    #[test]
    fn pinning_is_inherited_by_threads_spawned_after_it() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let cpus = || std::thread::available_parallelism().map_or(0, |n| n.get());
        // On a thread of its own: the harness's other tests stay unpinned.
        let (own, child) = std::thread::spawn(move || {
            pin_to_one_cpu().expect("the kernel lets a thread narrow its own affinity");
            (cpus(), std::thread::spawn(cpus).join().unwrap())
        })
        .join()
        .unwrap();
        assert_eq!((own, child), (1, 1));
    }
}
