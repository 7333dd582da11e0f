//! Process-level readings from `/proc` (Linux).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

fn status_kib(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of process `pid` since start or the last
/// [`reset_peak`], in MiB.
fn peak_rss_mib(pid: u32) -> f64 {
    status_kib(pid, "VmHWM").expect("VmHWM in /proc/<pid>/status") as f64 / 1024.0
}

/// Current resident set of process `pid`, in KiB.
pub fn rss_kib(pid: u32) -> f64 {
    status_kib(pid, "VmRSS").expect("VmRSS in /proc/<pid>/status") as f64
}

/// Restarts the peak-RSS reading of `pid` from its current RSS. Returns
/// whether the kernel accepted the reset.
fn reset_peak(pid: u32) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// Reads the peak RSS of a process once per interval, restarting the
/// reading each time, so the measuring phase yields a series of peaks
/// whose median one unlucky interval cannot move.
pub struct PeakSampler {
    stop: mpsc::Sender<()>,
    thread: JoinHandle<(Vec<f64>, bool)>,
}

impl PeakSampler {
    /// Starts sampling process `pid` every `every`.
    pub fn start(pid: u32, every: Duration) -> Self {
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let reset = reset_peak(pid);
            let mut peaks = Vec::new();
            loop {
                let last = !matches!(stopped.recv_timeout(every), Err(RecvTimeoutError::Timeout));
                peaks.push(peak_rss_mib(pid));
                if last {
                    return (peaks, reset);
                }
                reset_peak(pid);
            }
        });
        PeakSampler { stop, thread }
    }

    /// Stops sampling; returns the interval peaks in MiB and whether the
    /// kernel let each interval start afresh (if not, each reading is
    /// the peak since the process started).
    pub fn finish(self) -> (Vec<f64>, bool) {
        let _ = self.stop.send(());
        self.thread.join().expect("peak sampler thread")
    }
}

/// User plus system CPU time process `pid` has used.
pub fn cpu_time(pid: u32) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("/proc/<pid>/stat");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_secs_f64(ticks as f64 / TICKS_PER_S)
}

/// Names of set `PWREL_*` variables: each changes which kernel or
/// scale the program runs, so a run with any of them is refused.
pub fn pwrel_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PWREL_"))
        .collect()
}
