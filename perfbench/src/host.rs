//! Host facts every result carries: the fingerprint that decides whether
//! two results may be compared, and the process's peak memory.

/// Where a result was measured. Results whose fingerprints differ are
/// never compared: timings from different machines or compilers say
/// nothing about a change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Source revision (a git commit, or a hash of the sources when the
    /// checkout has no git metadata). Recorded, not compared.
    pub commit: String,
}

impl Fingerprint {
    /// The fingerprint of the running process.
    pub fn current() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: env!("PERFBENCH_COMMIT").to_string(),
        }
    }

    /// Whether results carrying `self` and `other` were measured on the
    /// same host with the same compiler.
    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc && self.cpu == other.cpu && self.rustc == other.rustc
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
