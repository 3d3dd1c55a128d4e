//! Process-level figures read from `/proc/self`: peak resident memory
//! and CPU time (all threads, live and exited).

use std::fs;

/// Peak resident set size (`VmHWM`) of this process, in MiB; NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
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
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User + system CPU seconds consumed by this process so far; NaN when
/// `/proc` is unavailable. Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, utime/stime being the
    // 12th and 13th of them.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        // USER_HZ is 100 on every Linux ABI.
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_figures_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds() >= 0.0, "{x}");
    }
}
