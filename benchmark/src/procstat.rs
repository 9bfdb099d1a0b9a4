//! Process accounting read from `/proc` — CPU time and resident memory.
//!
//! CPU comes from `/proc/self/stat` (`utime + stime`), which covers every
//! thread of the process including ones that already exited, so a sharded
//! run's worker threads and a UDP host's per-node threads are all counted.
//! The kernel reports clock ticks; `USER_HZ` is 100 on every Linux ABI, so
//! one tick is 10 ms. Phases last seconds, which keeps that resolution
//! below 0.1 % of any figure reported.

const MS_PER_TICK: f64 = 10.0;

/// `utime + stime` in clock ticks from the text of a `/proc/<pid>/stat`
/// file. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn cpu_ms_of(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 * MS_PER_TICK)
}

/// CPU milliseconds (user + system) consumed so far by all threads of
/// this process.
pub fn process_cpu_ms() -> f64 {
    cpu_ms_of("/proc/self/stat")
}

/// CPU milliseconds consumed so far by the calling thread alone.
pub fn thread_cpu_ms() -> f64 {
    cpu_ms_of("/proc/thread-self/stat")
}

/// A `kB` line of `/proc/self/status` (`VmHWM`, `VmRSS`) in KiB.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kib(&s, field))
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM") as f64 / 1024.0
}

/// Current resident set of this process (`VmRSS`) in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS") * 1024
}

/// Cores this process may run on, as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_plus_stime() {
        let stat = "14921 (cat) R 14876 14921 14876 0 -1 4194304 84 0 0 0 \
                    37 5 0 0 20 0 1 0 255818 2703360 327";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
    }

    #[test]
    fn command_name_may_hold_spaces_and_parens() {
        let stat = "7 (a b) c) (d) S 1 7 7 0 -1 0 0 0 0 0 100 23 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(123));
    }

    #[test]
    fn truncated_stat_is_none() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t   512 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(512));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_readers_advance() {
        let before = process_cpu_ms();
        let mut x = 1u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(
            process_cpu_ms() >= before + 20.0,
            "60 ms of spinning must show"
        );
        assert!(thread_cpu_ms() > 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_bytes() > 0);
        assert!(nproc() >= 1);
    }
}
