//! What the benchmark reads from the host: peak RSS, thread CPU time
//! and the machine fingerprint printed with every output.

use std::process::Command;

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1000.0)
}

/// CPU time (user + system) of all threads of this process, in ns, at
/// the kernel's 10 ms tick (`/proc/self/stat`); `None` off Linux.
pub fn process_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields count from after its ')'.
    let rest = &s[s.rfind(')')? + 1..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Threads the OS lets this process run in parallel.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where a result came from: enough to tell two machines or two commits
/// apart when comparing result files.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` (`unknown` outside a git checkout).
    pub commit: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the current host and checkout.
    pub fn read() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu,
            rustc: tool_line("rustc", &["-V"]),
            commit: tool_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            crate::json::quote(&self.cpu),
            crate::json::quote(&self.rustc),
            crate::json::quote(&self.commit)
        )
    }
}
