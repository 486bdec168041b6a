//! Process and machine readings from `/proc` (Linux only, std only).

use std::time::Duration;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const TICK: Duration = Duration::from_millis(10);

/// User plus system CPU ticks of the whole process (all threads, live and
/// exited) from the text of `/proc/self/stat`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) is parenthesised and may hold spaces,
    // so count fields from the last ')': utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`, in kB) from `/proc/self/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The one-minute load average from `/proc/loadavg`.
pub fn load1(loadavg: &str) -> Option<f64> {
    loadavg.split_whitespace().next()?.parse().ok()
}

/// The number of processors listed in `/proc/cpuinfo` (what `nproc
/// --all` counts, before any affinity or cgroup limit).
pub fn processors(cpuinfo: &str) -> usize {
    cpuinfo
        .lines()
        .filter(|line| line.split(':').next().map(str::trim) == Some("processor"))
        .count()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// CPU time this process has used so far.
pub fn process_cpu() -> Duration {
    TICK * cpu_ticks(&read("/proc/self/stat")).unwrap_or(0) as u32
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_kb(&read("/proc/self/status")).unwrap_or(0) as f64 / 1024.0
}

/// The current one-minute load average (`0.0` when unreadable).
pub fn loadavg() -> f64 {
    load1(&read("/proc/loadavg")).unwrap_or(0.0)
}

/// Processors in `/proc/cpuinfo` (`0` when unreadable).
pub fn nproc() -> usize {
    processors(&read("/proc/cpuinfo"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_skips_a_command_name_with_spaces() {
        let stat = "4242 (wsn perf) S 1 4242 4242 0 -1 4194560 1210 0 0 0 \
                    157 23 0 0 20 0 5 0 123456 98765432 2048 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(180));
        assert_eq!(cpu_ticks("garbage"), None);
        assert_eq!(cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_the_high_water_mark() {
        let status =
            "Name:\twsn_perf\nVmPeak:\t  120000 kB\nVmHWM:\t   34816 kB\nVmRSS:\t   30000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(34816));
        assert_eq!(vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn loadavg_and_cpuinfo_parsers() {
        assert_eq!(load1("0.25 0.39 0.35 3/86 16550\n"), Some(0.25));
        assert_eq!(load1(""), None);
        let cpuinfo = "processor\t: 0\nmodel name\t: x\n\nprocessor\t: 1\nmodel name\t: x\n";
        assert_eq!(processors(cpuinfo), 2);
        assert_eq!(processors(""), 0);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() > Duration::ZERO);
    }
}
