//! Process and host readings: CPU time and peak memory from `/proc/self`,
//! and the provenance block printed with every result.

use std::fs;
use std::path::Path;

use dnasim::serve::json::Obj;

/// Kernel clock ticks per second for the `/proc/self/stat` CPU fields.
/// Linux fixes `USER_HZ` at 100 on every mainstream architecture, and the
/// standard library offers no `sysconf` to ask.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads) in seconds, or 0 where
/// `/proc/self/stat` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis start at field 3, so utime (14) and stime (15)
    // are the 12th and 13th of them.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Worker threads the workloads run with (`nproc`, never more).
    pub workers: usize,
    /// The active SIMD tier of the clustering kernels.
    pub simd_tier: &'static str,
    /// The git revision of the checkout, when it is a git checkout.
    pub git_rev: String,
}

impl Host {
    /// Reads the host description from the running process.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Host {
            nproc,
            workers: nproc,
            simd_tier: dnasim::metrics::simd_tier_name(),
            git_rev: git_revision(Path::new(".git")),
        }
    }

    /// The provenance object printed before the result line.
    pub fn to_json(&self) -> String {
        Obj::new()
            .usize("nproc", self.nproc)
            .usize("workers", self.workers)
            .str("simd_tier", self.simd_tier)
            .str("git_rev", &self.git_rev)
            .finish()
    }
}

/// Resolves `HEAD` by reading the git directory directly (no `git`
/// process): a detached hash, a loose ref, or a packed ref. Returns
/// `"unknown"` outside a git checkout.
fn git_revision(git_dir: &Path) -> String {
    let unknown = || "unknown".to_owned();
    let Ok(head) = fs::read_to_string(git_dir.join("HEAD")) else {
        return unknown();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = fs::read_to_string(git_dir.join(reference)) {
        return hash.trim().to_owned();
    }
    fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(unknown)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_parse_on_linux() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn git_revision_falls_back_outside_a_checkout() {
        assert_eq!(git_revision(Path::new("no-such-git-dir")), "unknown");
    }
}
