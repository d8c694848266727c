//! The program as a black box: CLI subprocesses and a `shapefrag serve`
//! process, with the wall time, CPU time and memory the kernel accounts
//! to them.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What one CLI invocation returned, with the kernel's accounting for
/// that one process.
pub struct CliRun {
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub wall: Duration,
    /// User + system CPU time.
    pub cpu: Duration,
    /// Peak resident set in KiB.
    pub max_rss_kb: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss` (in KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Runs `program args…` to completion, timing spawn → exit. Stderr is
/// discarded (the CLI reports progress and analyzer warnings there).
pub fn run_cli(program: &Path, args: &[&std::ffi::OsStr]) -> std::io::Result<CliRun> {
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)?;
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let (mut status, mut usage) = (0i32, Rusage::default());
    loop {
        // SAFETY: `status` and `usage` are writable and properly laid out
        // for wait4 on 64-bit Linux; `pid` is our unreaped child, which
        // `child` will not wait for again (dropping a Child never waits).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = started.elapsed();
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Ok(CliRun {
        // Exited normally: the code is in bits 8..16; killed: no code.
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout,
        wall,
        cpu: Duration::from_micros(micros(&usage.utime) + micros(&usage.stime)),
        max_rss_kb: usage.maxrss.max(0) as u64,
    })
}

/// A running `shapefrag serve` process. Dropping it kills and reaps the
/// process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

/// Spawns `shapefrag serve shapes data` on a free loopback port and waits
/// for its banner, which it prints once the first epoch is published.
///
/// The server serves until killed; it is also killed when the thread
/// that spawned it ends, so a benchmark that dies never leaves one behind.
pub fn spawn_server(program: &Path, shapes: &Path, data: &Path) -> Result<ServerProc, String> {
    let mut command = Command::new(program);
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one async-signal-safe system call, touching no memory of the
    // parent.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let mut child = command
        .arg("serve")
        .arg(shapes)
        .arg(data)
        .args(["--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
    let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let read = reader.read_line(&mut line);
        if matches!(read, Ok(0) | Err(_)) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("shapefrag serve exited before printing its banner".into());
        }
        if let Some(rest) = line.split("listening on http://").nth(1) {
            let addr = rest.split_whitespace().next().unwrap_or_default();
            match addr.parse::<SocketAddr>() {
                Ok(a) => break a,
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("unparsable banner: {line}"));
                }
            }
        }
    };
    // Keep the pipe drained so a chatty server can never block on it.
    let stderr_drain = std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    Ok(ServerProc {
        child,
        addr,
        stderr_drain: Some(stderr_drain),
    })
}

impl ServerProc {
    fn proc_file(&self, name: &str) -> PathBuf {
        PathBuf::from(format!("/proc/{}/{name}", self.child.id()))
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        let status = std::fs::read_to_string(self.proc_file("status")).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    }

    /// User + system CPU time consumed so far.
    pub fn cpu_time(&self) -> Duration {
        let stat = std::fs::read_to_string(self.proc_file("stat")).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in USER_HZ (100/s on
        // Linux) ticks.
        let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        Duration::from_millis((ticks(11) + ticks(12)) * 10)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_drain.take() {
            let _ = h.join();
        }
    }
}
