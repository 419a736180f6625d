//! Child processes measured the way their user sees them: wall time from
//! spawn to exit, and peak resident memory from the kernel's own
//! accounting (`wait4`'s `ru_maxrss`), which needs no cooperation from
//! the program under test.

use std::fs::File;
use std::io::{self, Read};
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How one child process ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Spawn to exit.
    pub wall: Duration,
    /// The exit status.
    pub status: ExitStatus,
    /// Peak resident set size, in KiB.
    pub max_rss_kib: u64,
}

impl Exit {
    /// Peak resident set size in MiB.
    pub fn max_rss_mb(&self) -> f64 {
        self.max_rss_kib as f64 / 1024.0
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    ru_utime: [c_long; 2],
    ru_stime: [c_long; 2],
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
}

const WNOHANG: c_int = 1;

/// A spawned child that is always reaped: by [`Process::wait`], or, if
/// the caller never gets there, killed and reaped on drop.
pub struct Process {
    child: Child,
    started: Instant,
    exit: Option<Exit>,
}

impl Process {
    /// Spawns `cmd`, starting its wall clock just before the spawn.
    pub fn spawn(cmd: &mut Command) -> io::Result<Process> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Process {
            child,
            started,
            exit: None,
        })
    }

    /// The child's peak resident set size so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kib| kib.trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// The child's piped standard output, if it was piped.
    pub fn stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// Reaps the child (blocking, or returning `None` at once if it is
    /// still running and `block` is false).
    fn reap(&mut self, block: bool) -> io::Result<Option<Exit>> {
        if let Some(exit) = self.exit {
            return Ok(Some(exit));
        }
        let pid = c_int::try_from(self.child.id()).expect("Linux pids fit in pid_t");
        let mut status: c_int = 0;
        let mut usage = RUsage {
            ru_utime: [0; 2],
            ru_stime: [0; 2],
            ru_maxrss: 0,
            rest: [0; 13],
        };
        loop {
            // SAFETY: `status` and `usage` are live, writable locals laid
            // out as the C `int` and `struct rusage` wait4 fills in; `pid`
            // is our own child, which has not been reaped yet (`self.exit`
            // is `None`), so the call cannot touch another process.
            let r = unsafe {
                wait4(
                    pid,
                    &mut status,
                    if block { 0 } else { WNOHANG },
                    &mut usage,
                )
            };
            match r {
                0 => return Ok(None),
                r if r == pid => break,
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
        let exit = Exit {
            wall: self.started.elapsed(),
            status: ExitStatus::from_raw(status),
            max_rss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
        };
        self.exit = Some(exit);
        Ok(Some(exit))
    }

    /// Waits for the child to exit.
    pub fn wait(&mut self) -> io::Result<Exit> {
        Ok(self.reap(true)?.expect("a blocking wait4 returns the exit"))
    }

    /// Waits up to `timeout` for the child to exit on its own, then kills
    /// it. Returns the exit and whether it came in time.
    pub fn wait_or_kill(&mut self, timeout: Duration) -> io::Result<(Exit, bool)> {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if let Some(exit) = self.reap(false)? {
                return Ok((exit, true));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        Ok((self.wait()?, false))
    }
}

impl Drop for Process {
    fn drop(&mut self) {
        if self.exit.is_none() {
            let _ = self.child.kill();
            let _ = self.reap(true);
        }
    }
}

/// Runs `cmd` to completion with no stdin and its stderr written to the
/// file `stderr`, returning its exit and everything it wrote to stdout.
pub fn run(cmd: &mut Command, stderr: &Path) -> io::Result<(Exit, Vec<u8>)> {
    let mut process = Process::spawn(
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(stderr)?),
    )?;
    let mut out = Vec::new();
    if let Some(mut stdout) = process.stdout() {
        stdout.read_to_end(&mut out)?;
    }
    Ok((process.wait()?, out))
}

/// A one-line account of a failed child for a problem report: its status
/// and the last line it wrote to `stderr`.
pub fn failure(exit: &Exit, stderr: &Path) -> String {
    let text = std::fs::read_to_string(stderr).unwrap_or_default();
    let last = text.lines().last().unwrap_or("(no stderr)");
    format!("{}: {last}", exit.status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_status_output_and_memory() {
        let dir = crate::work_root().join("test-proc");
        std::fs::create_dir_all(&dir).unwrap();
        let err = dir.join("stderr");
        let (exit, out) = run(Command::new("sh").args(["-c", "echo hi"]), &err).unwrap();
        assert!(exit.status.success());
        assert_eq!(out, b"hi\n");
        assert!(exit.max_rss_kib > 0);
        let (exit, _) = run(
            Command::new("sh").args(["-c", "echo bad >&2; exit 3"]),
            &err,
        )
        .unwrap();
        assert_eq!(exit.status.code(), Some(3));
        assert!(failure(&exit, &err).ends_with(": bad"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_child_that_will_not_exit_is_killed() {
        let mut p = Process::spawn(Command::new("sleep").arg("30")).unwrap();
        let (exit, in_time) = p.wait_or_kill(Duration::from_millis(50)).unwrap();
        assert!(!in_time);
        assert!(!exit.status.success());
    }
}
