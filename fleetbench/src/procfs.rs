//! Readers for the Linux `/proc` files the benchmark samples: machine CPU
//! time (for steal), per-thread scheduler statistics and process memory.
//! Parsers take the file text so they can be tested on canned input.

use std::path::{Path, PathBuf};

/// Aggregate CPU time of the machine from the first line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTimes {
    /// Time stolen by the hypervisor.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal (guest
    /// time is already counted in user and nice).
    pub total: u64,
}

impl CpuTimes {
    /// Share of the machine's time stolen between `self` and a later sample.
    pub fn steal_share_until(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            0.0
        } else {
            later.steal.saturating_sub(self.steal) as f64 / total as f64
        }
    }
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        steal: fields[7],
        total: fields[..8].iter().sum(),
    })
}

/// One thread's `/proc/<pid>/task/<tid>/schedstat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable, waiting on a run queue.
    pub wait_ns: u64,
    /// Times the thread was scheduled onto a CPU.
    pub timeslices: u64,
}

impl SchedStat {
    /// Field-wise difference to a later sample.
    pub fn until(&self, later: &SchedStat) -> SchedStat {
        SchedStat {
            run_ns: later.run_ns.saturating_sub(self.run_ns),
            wait_ns: later.wait_ns.saturating_sub(self.wait_ns),
            timeslices: later.timeslices.saturating_sub(self.timeslices),
        }
    }
}

/// Parses a `schedstat` line: `run_ns wait_ns timeslices`.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(SchedStat {
        run_ns: it.next()??,
        wait_ns: it.next()??,
        timeslices: it.next()??,
    })
}

/// Reads a `kB` field such as `VmHWM` or `VmRSS` from `/proc/self/status`
/// text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Samples the machine's CPU times; zeros when `/proc/stat` is unreadable.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_cpu_times(&s))
        .unwrap_or_default()
}

/// A `kB` field of this process's status, in kB (0 when unreadable).
pub fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, key))
        .unwrap_or(0)
}

/// The `schedstat` path of this process's thread named `name`, if the thread
/// exists and the file parses.
pub fn thread_named(name: &str) -> Option<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .find(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim_end() == name)
        })
        .map(|task| task.join("schedstat"))
        .filter(|path| std::fs::read_to_string(path).is_ok_and(|s| parse_schedstat(&s).is_some()))
}

/// Reads a thread's scheduler statistics; zeros once the thread has ended.
pub fn schedstat(path: &Path) -> SchedStat {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  4705 356 584 3699 23 0 12 7 0 0\n\
                        cpu0 1393280 32966 572056 13343292 6130 0 17875 0 23933 0\n\
                        intr 114930548 113199788 3 0 5 263 0 4 [... lots more numbers ...]\n\
                        ctxt 1990473\n";

    #[test]
    fn cpu_line_yields_steal_and_total() {
        let t = parse_cpu_times(STAT).unwrap();
        assert_eq!(t.steal, 7);
        assert_eq!(t.total, 4705 + 356 + 584 + 3699 + 23 + 12 + 7);
        let later = CpuTimes {
            steal: 17,
            total: t.total + 1000,
        };
        assert!((t.steal_share_until(&later) - 0.01).abs() < 1e-12);
        assert_eq!(t.steal_share_until(&t), 0.0);
        assert!(parse_cpu_times("cpu0 1 2 3\n").is_none());
        assert!(parse_cpu_times("cpu  1 2 3 4\n").is_none());
    }

    #[test]
    fn schedstat_has_three_fields() {
        let s = parse_schedstat("288340745 3401226 1342\n").unwrap();
        assert_eq!(
            s,
            SchedStat {
                run_ns: 288_340_745,
                wait_ns: 3_401_226,
                timeslices: 1342
            }
        );
        let later = parse_schedstat("388340745 3401326 1442").unwrap();
        assert_eq!(s.until(&later).run_ns, 100_000_000);
        assert_eq!(s.until(&later).wait_ns, 100);
        assert_eq!(s.until(&later).timeslices, 100);
        assert!(parse_schedstat("12 34").is_none());
        assert!(parse_schedstat("a b c").is_none());
    }

    #[test]
    fn status_fields_are_read_in_kb() {
        let status =
            "Name:\tfleetbench\nVmPeak:\t  300000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t   80000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(81_234));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(80_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
        // A key must match whole, not as a prefix of a longer one.
        assert_eq!(parse_status_kb(status, "Vm"), None);
    }
}
