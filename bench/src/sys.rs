//! Process measurements from `/proc` (Linux). Where a file is missing
//! or unreadable the readers return `None`, and the caller reports the
//! metric as absent rather than inventing a value.

use std::fs;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resets the peak-RSS watermark to the current RSS, so each workload
/// reports its own peak. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds of the whole process, all threads.
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // /proc reports clock ticks of USER_HZ, which Linux fixes at 100.
    Some((utime + stime) / 100.0)
}

/// Worker threads for every study: `min(2, cores)`.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
        let before = process_cpu_s().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s().unwrap() >= before);
        assert!((1..=2).contains(&jobs()));
    }
}
