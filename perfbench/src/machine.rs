//! The machine a run happens on: CPUs, pinning, resident memory and the
//! build provenance recorded with every result.

use std::sync::OnceLock;

use wino_sched::{pin_current_thread, Executor};

/// CPUs this process may run on (`Cpus_allowed_list`), falling back to
/// `0..available_parallelism` where `/proc` is unavailable. Read once,
/// before any pinning narrows it.
pub fn allowed_cpus() -> Vec<usize> {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let n = nproc();
        read_allowed_cpus().unwrap_or_else(|| (0..n).collect())
    })
    .clone()
}

fn read_allowed_cpus() -> Option<Vec<usize>> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .and_then(|v| wino_sched::parse_cpulist(v).ok())
        })
        .filter(|v| !v.is_empty())
}

/// `available_parallelism` as the process started (it follows the
/// calling thread's affinity, so it is read once, before any pinning).
pub fn nproc() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pin each executor slot's thread to its own CPU (`cpus[slot]`).
/// Returns how many slots were pinned; pinning is best effort.
pub fn pin_slots(exec: &dyn Executor, cpus: &[usize]) -> usize {
    let pinned = std::sync::atomic::AtomicUsize::new(0);
    let n = exec.threads();
    let r = exec.run_grid(&[n], &|slot, _| {
        if pin_current_thread(&[cpus[slot % cpus.len()]]).is_ok() {
            // ORDERING: Relaxed — a tally read after the join.
            pinned.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    });
    if r.is_err() {
        return 0;
    }
    pinned.into_inner()
}

/// Pin the calling thread to one CPU (best effort).
pub fn pin_self(cpu: usize) -> bool {
    pin_current_thread(&[cpu]).is_ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from: `git rev-parse HEAD` in the
/// source tree, or "unknown" outside a git checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Make the allocator keep freed memory for reuse: no blocks served by
/// `mmap` (which `free` unmaps) and no trimming of the heap's top. A
/// set-up repeated in the same process then reuses the pages the first
/// one faulted in. glibc only; elsewhere this does nothing.
pub fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: mallopt only sets allocator parameters, which glibc
        // allows at any time.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}
