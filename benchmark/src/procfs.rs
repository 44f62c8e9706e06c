//! CPU time and peak resident size of a process, from `/proc`.
//!
//! Read for the process under test: the harness itself for the
//! in-process workloads, the `dbgpd` child for the TCP workload.

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// has exported `USER_HZ` = 100 on every architecture for decades; std
/// offers no `sysconf`, so the constant is stated rather than queried.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (`VmHWM`, `VmRSS`) from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds the process has consumed so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = parse_stat_ticks(&text).ok_or_else(|| format!("{path}: unparsable"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = parse_status_kb(&text, "VmHWM").ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (db gp) d) S 1 4242 4242 0 -1 4194304 150 0 0 0 \
                    731 269 0 0 20 0 1 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1000));
        assert_eq!(parse_stat_ticks("no paren here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_in_kb() {
        let status = "Name:\tdbgpd\nVmPeak:\t  999 kB\nVmHWM:\t  582316 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(582_316));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key that is a prefix of another field must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
    }
}
