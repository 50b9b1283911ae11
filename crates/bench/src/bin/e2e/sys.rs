//! What the operating system says about this process, and the provenance
//! block of a result file.

use skalla_obs::json::Json;
use std::process::Command;

/// Kernel clock ticks per second behind `/proc/self/stat` (`USER_HZ`,
/// 100 on every Linux the engine targets).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, every thread — live or
/// already joined — included. `None` off Linux.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Seconds, summed over this machine's CPUs, that the hypervisor ran
/// someone else while a CPU of ours had work (`steal` of `/proc/stat`).
/// `None` off Linux.
pub fn host_steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let total = stat.lines().find(|l| l.starts_with("cpu "))?;
    // "cpu user nice system idle iowait irq softirq steal …"
    let steal: f64 = total.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB. `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One-minute load average.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what a run was taken. Warns on stderr (and does not fail)
/// when the machine is already loaded.
pub fn provenance() -> Vec<(&'static str, Json)> {
    let unknown = || "unknown".to_string();
    let load = load_average();
    let cores = nproc();
    if let Some(l) = load.filter(|l| *l > cores as f64) {
        eprintln!(
            "warning: 1-min load average {l:.2} exceeds {cores} cores; timings will be noisy"
        );
    }
    // The engine's defaults read these; a set knob means the run is not
    // the default configuration the ledger is defined on.
    let knobs: Vec<Json> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SKALLA_"))
        .map(|(k, v)| Json::Str(format!("{k}={v}")))
        .collect();
    if !knobs.is_empty() {
        eprintln!("warning: SKALLA_* environment set; this is not the default engine");
    }
    vec![
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        ("nproc", Json::UInt(cores as u64)),
        ("load_average_1m", load.map_or(Json::Null, Json::Float)),
        ("skalla_env", Json::Arr(knobs)),
    ]
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_s().is_some_and(|s| s >= 0.0));
        assert!(host_steal_s().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 1.0));
        assert!(load_average().is_some_and(|l| l >= 0.0));
    }
}
