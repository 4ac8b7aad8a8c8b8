//! Process CPU time and peak memory from `/proc/self`.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// utime + stime of this process so far, in seconds (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting with field 3 (state).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after `)`.
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
