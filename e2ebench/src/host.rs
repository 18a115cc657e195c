//! Host readings from `/proc`: memory, threads, and the two signals that
//! say how much of a run the host took away (steal and run-queue wait).
//!
//! The signals are recorded beside every run and never used to drop,
//! filter or repeat a sample.

use std::time::Instant;

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
pub fn status_kib(field: &str) -> Option<u64> {
    status_field(field)
}

/// Threads in this process.
pub fn threads() -> Option<u64> {
    status_field("Threads")
}

fn status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident memory so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU ticks from the first line of `/proc/stat`: all states,
/// and the share the hypervisor gave to other guests (steal).
#[derive(Debug, Clone, Copy, Default)]
struct CpuTicks {
    total: u64,
    steal: u64,
}

fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

/// `cpu  user nice system idle iowait irq softirq steal [guest guest_nice]`;
/// guest time is already inside user, so only the first eight count.
fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if values.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        total: values.iter().sum(),
        steal: values[7],
    })
}

/// Nanoseconds this thread has waited on a run queue
/// (`/proc/thread-self/schedstat`, second field).
fn runq_wait_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().nth(1)?.parse().ok()
}

/// Steal and run-queue wait over one measured window.
pub struct HostWindow {
    started: Instant,
    ticks: Option<CpuTicks>,
    runq_ns: Option<u64>,
}

/// What the host took from a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostShare {
    /// Steal ticks over all CPUs' ticks (base: every tick of the window).
    pub steal_ratio: f64,
    /// This thread's run-queue wait over the window's wall time.
    pub runq_wait_ratio: f64,
}

impl HostWindow {
    pub fn start() -> Self {
        HostWindow {
            started: Instant::now(),
            ticks: cpu_ticks(),
            runq_ns: runq_wait_ns(),
        }
    }

    pub fn finish(&self) -> HostShare {
        let wall_ns = self.started.elapsed().as_nanos() as f64;
        let steal_ratio = match (self.ticks, cpu_ticks()) {
            (Some(a), Some(b)) => crate::stats::ratio(
                b.steal.saturating_sub(a.steal) as f64,
                b.total.saturating_sub(a.total) as f64,
            ),
            _ => 0.0,
        };
        let runq_wait_ratio = match (self.runq_ns, runq_wait_ns()) {
            (Some(a), Some(b)) => crate::stats::ratio(b.saturating_sub(a) as f64, wall_ns),
            _ => 0.0,
        };
        HostShare {
            steal_ratio,
            runq_wait_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_sums_the_first_eight_states() {
        let t = parse_cpu_line("cpu  10 1 5 100 2 0 1 7 3 0").expect("parses");
        assert_eq!((t.total, t.steal), (126, 7));
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
        assert!(parse_cpu_line("cpu  1 2 3").is_none());
    }

    #[test]
    fn own_status_is_readable() {
        assert!(status_kib("VmHWM").is_some_and(|k| k > 0));
        assert!(threads().is_some_and(|n| n >= 1));
    }
}
