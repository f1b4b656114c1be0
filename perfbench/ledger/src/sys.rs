//! Host and process facts read without a libc binding: process CPU time
//! and peak resident set from `/proc/self`, the CPU count, and the
//! checkout's git revision read offline from `.git/HEAD`.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` CPU fields
/// (`USER_HZ`, fixed at 100 on every Linux architecture this runs on).
const USER_HZ: u64 = 100;

/// User + system CPU time of the whole process (every thread, including
/// threads that already exited), in microseconds.
pub fn process_cpu_us() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, so 12 and 13 after `) `.
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 1_000_000 / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Online CPUs as the kernel lists them (`/sys/devices/system/cpu/online`,
/// e.g. `0-1` → 2), independent of any affinity mask.
pub fn nproc() -> usize {
    let Ok(online) = fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 0;
    };
    online
        .trim()
        .split(',')
        .map(|range| match range.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.parse().unwrap_or(0);
                let hi: usize = hi.parse().unwrap_or(lo);
                hi + 1 - lo
            }
            None => 1,
        })
        .sum()
}

/// Worker threads the standard library would use
/// (`std::thread::available_parallelism`).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The commit the working directory is checked out at, read from
/// `.git/HEAD` (following one `ref:` through loose or packed refs), or
/// `"none"` when the directory is not a git checkout.
pub fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}
