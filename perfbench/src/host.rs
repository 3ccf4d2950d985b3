//! Facts about the machine and the process: stamped into every result so
//! a number is never separated from the host that produced it.

use std::sync::Once;
use std::time::Duration;

/// The host a result was measured on.
pub struct Host {
    nproc: usize,
    cpu_model: String,
    kernel: String,
    rustc: &'static str,
    commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            quote(&self.kernel),
            quote(self.rustc),
            quote(&self.commit)
        )
    }
}

/// The commit checked out in the working directory, with `-dirty` when
/// tracked files differ from it or untracked files are present; `None`
/// outside a git checkout or without `git`. Git looks no higher than the
/// working directory, so a checkout nested in another repository does not
/// report that repository's commit.
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .arg("--no-optional-locks")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"])?;
    let dirty = !git(&["status", "--porcelain"])?.is_empty();
    Some(if dirty { commit + "-dirty" } else { commit })
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) of every thread this process has run,
/// including threads that have already exited.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call, and on
    // 64-bit Linux `struct timespec` is two 64-bit fields in this order.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Start a fresh peak: hand freed heap memory back to the kernel, then
/// reset `VmHWM` to the current resident size. Where the kernel refuses
/// the reset, `VmHWM` keeps the process-wide peak; that is said once on
/// standard error.
pub fn reset_rss_peak() {
    // SAFETY: glibc's `malloc_trim` only releases free heap pages; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        static WARN: Once = Once::new();
        WARN.call_once(|| {
            eprintln!("perfbench: cannot reset VmHWM ({e}); rss_peak_mb is the process-wide peak");
        });
    }
}
