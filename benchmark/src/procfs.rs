//! Readings from `/proc`: hypervisor steal (the noise indicator slices
//! are chosen by), this process's CPU time, and its peak resident set.
//! Parsing is split from reading so it is tested on fixed text.

/// All-CPU tick totals from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Ticks the hypervisor ran something else; `None` on kernels whose
    /// `cpu` line has no eighth column.
    pub steal: Option<u64>,
}

/// Parse the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_ticks(stat: &str) -> Option<CpuTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> =
        line.split_ascii_whitespace().skip(1).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    // guest time is already inside user/nice, so stop at steal
    Some(CpuTicks { total: fields.iter().take(8).sum(), steal: fields.get(7).copied() })
}

/// Steal ticks as a share of all ticks between two readings; `None`
/// when either reading lacks the steal column.
pub fn steal_share(before: Option<CpuTicks>, after: Option<CpuTicks>) -> Option<f64> {
    let (b, a) = (before?, after?);
    let steal = a.steal?.checked_sub(b.steal?)?;
    let total = a.total.checked_sub(b.total)?;
    Some(if total == 0 { 0.0 } else { steal as f64 / total as f64 })
}

/// Seconds of CPU the hypervisor took between two readings, summed over
/// all CPUs; `None` when either reading lacks the steal column.
pub fn stolen_seconds(before: Option<CpuTicks>, after: Option<CpuTicks>) -> Option<f64> {
    let ticks = after?.steal?.checked_sub(before?.steal?)?;
    Some(ticks as f64 * TICK_MS / 1e3)
}

/// `utime + stime` in clock ticks from `/proc/self/stat`. The second
/// field is the command name in parentheses and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_self_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // after the command name: state is field 3, utime 14, stime 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in KiB from `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 on Linux.
pub const TICK_MS: f64 = 10.0;

/// CPU time this thread has run, in nanoseconds. The guest kernel keeps
/// stolen time out of it, so a stretch of work timed with this clock
/// reads the same whether or not the hypervisor interrupted it.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

pub fn cpu_ticks() -> Option<CpuTicks> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

pub fn self_cpu_ticks() -> Option<u64> {
    parse_self_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
        .map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_gives_total_and_steal() {
        let stat = "cpu  100 5 50 800 20 0 5 20 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n";
        assert_eq!(parse_cpu_ticks(stat), Some(CpuTicks { total: 1000, steal: Some(20) }));
    }

    #[test]
    fn old_kernels_have_no_steal_column() {
        let t = parse_cpu_ticks("cpu  10 0 10 80 0 0 0\n").unwrap();
        assert_eq!(t, CpuTicks { total: 100, steal: None });
        assert_eq!(steal_share(Some(t), Some(t)), None);
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3 4\n"), None);
        assert_eq!(parse_cpu_ticks("cpu  1 x 3 4\n"), None);
    }

    #[test]
    fn steal_share_is_a_delta_over_a_delta() {
        let b = Some(CpuTicks { total: 1000, steal: Some(20) });
        let a = Some(CpuTicks { total: 1400, steal: Some(30) });
        assert_eq!(steal_share(b, a), Some(0.025));
        assert_eq!(steal_share(b, b), Some(0.0));
        assert_eq!(steal_share(None, a), None);
        // counters never run backwards; a reading that does is no reading
        assert_eq!(steal_share(a, b), None);
        assert_eq!(stolen_seconds(b, a), Some(0.1));
        assert_eq!(stolen_seconds(a, b), None);
        assert_eq!(stolen_seconds(None, a), None);
    }

    #[test]
    fn self_stat_survives_spaces_and_parens_in_comm() {
        let tail = "S 1 2 3 4 5 6 7 8 9 10 31 11 0 0 20 0 3 0 100 200 300";
        assert_eq!(parse_self_cpu_ticks(&format!("42 (benchmark) {tail}")), Some(42));
        assert_eq!(parse_self_cpu_ticks(&format!("42 (my (odd) bin 7) {tail}")), Some(42));
        assert_eq!(parse_self_cpu_ticks("42 (short) S 1 2"), None);
        assert_eq!(parse_self_cpu_ticks("no parens here"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn thread_cpu_clock_runs_with_the_thread() {
        let before = thread_cpu_ns().expect("Linux has a thread CPU clock");
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let after = thread_cpu_ns().unwrap();
        assert!(after > before, "{x}");
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  9000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
