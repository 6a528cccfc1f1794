//! Provenance recorded with every result: core count, CPU model, L3 size,
//! commit, and the process's peak resident set.

use std::fs;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The size of the last-level (L3) cache as sysfs reports it.
pub fn l3_size() -> String {
    fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a git work tree.
pub fn commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), or `0..nproc`
/// when the kernel does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let listed = fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let list = text
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
                .trim()
                .to_owned();
            let mut cpus = Vec::new();
            for part in list.split(',') {
                let (lo, hi) = part.split_once('-').unwrap_or((part, part));
                cpus.extend(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?);
            }
            Some(cpus)
        });
    match listed {
        Some(cpus) if !cpus.is_empty() => cpus,
        _ => (0..nproc()).collect(),
    }
}

/// Restricts the calling thread to `cpus`. Returns whether the kernel
/// accepted the mask; a refused mask leaves the thread where it was.
#[allow(unsafe_code)]
pub fn pin_thread(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is an initialized 128-byte buffer that outlives the
    // call, and 128 is the size passed; the kernel only reads it. Pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
