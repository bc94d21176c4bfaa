//! Process-level figures read from `/proc/self`: peak resident memory and
//! CPU time.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, fixed at
/// 100 on Linux).
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MB, or `NaN` when unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process so far, in µs, or `NaN`
/// when unreadable.
pub fn cpu_time_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields restart after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')', field 3 (state) is index 0, so utime (14) and stime (15)
    // are indices 11 and 12.
    match (
        fields.get(11).and_then(|f| f.parse::<f64>().ok()),
        fields.get(12).and_then(|f| f.parse::<f64>().ok()),
    ) {
        (Some(u), Some(s)) => (u + s) / USER_HZ * 1e6,
        _ => f64::NAN,
    }
}

/// Total size in bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
