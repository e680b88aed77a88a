//! What the harness reads about the host and about its own process, all
//! from `/proc` (Linux only; no new dependency, no foreign calls).

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on Linux whatever the kernel's internal tick).
const USER_HZ: f64 = 100.0;

/// CPU time and page faults of this process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcUsage {
    /// Seconds in user mode, all threads.
    pub user_s: f64,
    /// Seconds in kernel mode, all threads.
    pub sys_s: f64,
    /// Minor page faults, all threads.
    pub minor_faults: u64,
}

impl ProcUsage {
    /// Usage accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// Parses the line starting with `key` (a size in kB) out of
/// `/proc/<pid>/status` text and returns it in MB (10^6 bytes).
fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    let mut fields = line.split_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb as f64 * 1024.0 / 1e6)
}

/// Parses the `VmHWM:` line (peak resident set) out of
/// `/proc/<pid>/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    parse_status_mb(status, "VmHWM:")
}

/// Parses user/system ticks and minor faults out of `/proc/<pid>/stat`
/// text. The command name (field 2) may contain spaces and parentheses,
/// so fields are counted from the *last* `)`.
pub fn parse_proc_stat(stat: &str) -> Option<ProcUsage> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); minflt is field 10, utime 14, stime 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcUsage {
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
        minor_faults: field(10)?,
    })
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

/// Resident set of this process right now, in MB.
pub fn current_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_mb(&s, "VmRSS:"))
        .expect("/proc/self/status has a VmRSS line on Linux")
}

/// CPU time and faults of this process so far.
pub fn proc_usage() -> ProcUsage {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_proc_stat(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// The first `model name` of `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tperf\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100 kB\n";
        let mb = parse_vm_hwm_mb(status).unwrap();
        assert!((mb - 126.418944).abs() < 1e-9, "{mb}");
        assert_eq!(parse_vm_hwm_mb("Name:\tperf\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn proc_stat_survives_a_hostile_command_name() {
        let stat =
            "4242 (perf) run) S 1 4242 4242 0 -1 4194304 777 0 3 0 150 25 0 0 20 0 3 0 100 1 2";
        let usage = parse_proc_stat(stat).unwrap();
        assert_eq!(usage, ProcUsage { user_s: 1.5, sys_s: 0.25, minor_faults: 777 });
        assert_eq!(parse_proc_stat("no parenthesis"), None);
        assert_eq!(parse_proc_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.1);
        let before = proc_usage();
        let after = proc_usage();
        let delta = after.since(&before);
        assert!(delta.user_s >= 0.0 && delta.sys_s >= 0.0);
    }
}
