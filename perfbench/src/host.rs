//! Host state recorded with every run, and thread placement.

use std::io;

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    idle: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters; `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<Self> {
        let text = std::fs::read_to_string("/proc/stat").ok()?;
        let line = text.lines().next()?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so it is left out.
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        Some(Self {
            total: (0..8).map(field).sum(),
            idle: field(3) + field(4),
            steal: field(7),
        })
    }

    /// Busy and steal fractions of all CPU time between `self` and
    /// `later`.
    pub fn fractions(&self, later: &CpuTimes) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        let idle = later.idle.saturating_sub(self.idle) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64;
        ((total - idle - steal).max(0.0) / total, steal / total)
    }
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let mut ends = part.split('-').map(|v| v.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(low)), Some(Ok(high))) => cpus.extend(low..=high),
            (Some(Ok(cpu)), None) => cpus.push(cpu),
            _ => {}
        }
    }
    cpus
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The revision of the checkout, or `unknown` outside a git work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to `cpu`. Threads it spawns afterwards
/// inherit the pin.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "cpu index beyond 1023"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is exactly its length; pid 0 names the calling thread, and
    // the kernel only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
