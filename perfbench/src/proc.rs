//! Process introspection through `/proc`: per-thread CPU time and peak
//! resident memory. Linux only; every reader fails loudly elsewhere.

use std::fs;

/// This thread's kernel task id (from the `/proc/thread-self` link,
/// which reads `<pid>/task/<tid>`).
pub fn current_tid() -> u32 {
    let link = fs::read_link("/proc/thread-self").expect("/proc/thread-self is readable");
    link.file_name()
        .and_then(|tid| tid.to_str())
        .and_then(|tid| tid.parse().ok())
        .expect("/proc/thread-self ends in a task id")
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .expect("/proc/self/status has a Cpus_allowed_list line");
    list.trim()
        .split(',')
        .flat_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            let parse = |s: &str| s.parse::<usize>().expect("CPU numbers are integers");
            parse(lo)..=parse(hi)
        })
        .collect()
}

/// Pin the calling thread to CPU `cpu` (`sched_setaffinity`, through a
/// raw syscall: the workspace carries no libc crate).
///
/// # Panics
///
/// Panics if the kernel refuses the mask (no such CPU in this cgroup).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn pin_current_thread(cpu: usize) {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mask: u64 = 1 << cpu;
    let ret: isize;
    // SAFETY: sched_setaffinity(0, 8, &mask) reads 8 bytes from `mask`,
    // which lives on this stack frame for the whole call, and changes
    // nothing but the calling thread's affinity. The syscall clobbers
    // only rax (result), rcx and r11, all declared.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") &mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "sched_setaffinity to CPU {cpu} failed");
}

/// CPU time consumed so far by task `tid` of this process, in ns: the
/// first field of its `schedstat` (time spent on a CPU, ns resolution,
/// unlike the 10 ms ticks of `stat`). `None` once the thread has exited.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Task ids of this process's live threads whose name starts with
/// `prefix` (names are truncated to 15 bytes by the kernel).
pub fn threads_named(prefix: &str) -> Vec<u32> {
    let mut tids: Vec<u32> = fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// Summed CPU time of `tids`, in ns (exited threads count 0).
pub fn cpu_ns(tids: &[u32]) -> u64 {
    tids.iter().filter_map(|&tid| thread_cpu_ns(tid)).sum()
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Return the allocator's free memory to the kernel, then reset this
/// process's peak-RSS mark (`VmHWM`) to its current RSS. Repeated
/// set-ups leave freed heap behind, and how much of it stays resident
/// varied by 9 MiB between otherwise identical runs.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases memory the allocator holds free;
    // it takes no pointers and is safe to call from any thread.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn cpu_is_attributed_to_the_thread_that_burned_it() {
        const BURN: Duration = Duration::from_millis(120);
        let (tid_tx, tid_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        let burner = std::thread::Builder::new()
            .name("pb-test-burner".into())
            .spawn(move || {
                tid_tx.send(current_tid()).unwrap();
                go_rx.recv().unwrap();
                // Burn a known amount of this thread's own CPU time.
                let start = lac_serve::reactor::thread_cpu_ns();
                let mut x = 1u64;
                while lac_serve::reactor::thread_cpu_ns() - start < BURN.as_nanos() as u64 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                done_tx.send(()).unwrap();
                exit_rx.recv().unwrap();
            })
            .unwrap();
        let tid = tid_rx.recv().unwrap();
        assert_ne!(tid, current_tid());
        assert_eq!(threads_named("pb-test-burner"), vec![tid]);

        let before = thread_cpu_ns(tid).unwrap();
        let mine_before = thread_cpu_ns(current_tid()).unwrap();
        let wall = Instant::now();
        go_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        let burned = thread_cpu_ns(tid).unwrap() - before;
        let mine = thread_cpu_ns(current_tid()).unwrap() - mine_before;
        exit_tx.send(()).unwrap();
        burner.join().unwrap();

        let want = BURN.as_nanos() as f64;
        assert!(
            (burned as f64 - want).abs() < 0.1 * want,
            "burner read {burned} ns, burned {want} ns"
        );
        // The waiting thread is not charged for the burner's work.
        assert!((mine as f64) < 0.25 * want, "waiter charged {mine} ns");
        assert!(wall.elapsed() >= BURN);
    }

    #[test]
    fn pinned_thread_runs_on_its_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        for cpu in cpus {
            std::thread::spawn(move || {
                pin_current_thread(cpu);
                // Field 39 of the task's stat line is the CPU it last ran on.
                let stat = fs::read_to_string("/proc/thread-self/stat").unwrap();
                let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
                let last_cpu: usize = after_comm.split(' ').nth(36).unwrap().parse().unwrap();
                assert_eq!(last_cpu, cpu);
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn peak_rss_is_plausible_and_resets() {
        let mib = peak_rss_mib();
        assert!(mib > 0.5 && mib < 4096.0, "{mib}");
        // Touch and free 64 MiB: the peak rises, and a reset drops it to
        // the current RSS.
        let mut block = vec![0u8; 64 << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
        drop(block);
        let peak = peak_rss_mib();
        assert!(peak >= mib + 60.0, "{mib} -> {peak}");
        reset_peak_rss();
        assert!(peak_rss_mib() < peak - 60.0);
    }
}
