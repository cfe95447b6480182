//! Host context recorded beside each run, for diagnosing a noisy run
//! only: no metric is ever scaled by these numbers.

use std::hint::black_box;
use std::time::Instant;

/// 1-minute load average from `/proc/loadavg` (`NaN` when unreadable).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Milliseconds a fixed integer loop takes on this host right now.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MiB (`NaN` when
/// unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
