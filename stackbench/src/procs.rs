//! The servers under test: the shipped `slj` binary started as a daemon
//! (and usually a gateway) in child processes, plus the `/proc` readings
//! the end-to-end metrics take from them.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use slj_daemon::Addr;

/// Linux reports `/proc/<pid>/stat` CPU times in units of `USER_HZ`,
/// which is 100 on every architecture the kernel ABI supports.
const USER_HZ: f64 = 100.0;

/// How long a graceful drain may take before the children are killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);

/// Directory (relative to the working directory, so socket paths stay
/// short) holding each server pair's Unix socket.
const SOCKET_ROOT: &str = ".perf_stack";

static NEXT_PAIR: AtomicUsize = AtomicUsize::new(0);

/// One spawned `slj` process and its stdout.
struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Proc {
    fn spawn(slj: &Path, args: &[&str]) -> Result<Proc, String> {
        let mut child = Command::new(slj)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", slj.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc { child, stdout })
    }

    /// The first stdout line: both servers print their bound address
    /// once listening, so this doubles as the readiness wait.
    fn first_line(&mut self, what: &str) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line.trim_end().to_owned()),
            _ => Err(format!("{what} exited before it was listening")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for exit up to `deadline`, killing the process past it.
    /// Returns the rest of its stdout.
    fn finish(mut self, deadline: Instant) -> String {
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        rest
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What a graceful drain reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct DrainReport {
    /// Sessions the daemon finished over its lifetime.
    pub sessions_finished: u64,
    /// Manager ticks the daemon ran over its lifetime.
    pub ticks: u64,
}

/// A running daemon, optionally fronted by a gateway.
pub struct Servers {
    daemon: Option<Proc>,
    gateway: Option<Proc>,
    /// The daemon's Unix socket.
    pub daemon_addr: Addr,
    /// The gateway's `host:port`, when one runs.
    pub gateway_hostport: Option<String>,
    dir: PathBuf,
}

impl Servers {
    /// Starts `slj daemon` on a fresh Unix socket with `daemon_args`,
    /// and `slj gateway` on an OS-assigned loopback port when
    /// `with_gateway`; returns once both are listening.
    ///
    /// # Errors
    ///
    /// A process that cannot start or exits before listening.
    pub fn start(slj: &Path, daemon_args: &[&str], with_gateway: bool) -> Result<Servers, String> {
        let pair = NEXT_PAIR.fetch_add(1, Ordering::SeqCst);
        let dir = Path::new(SOCKET_ROOT).join(format!("{}-{pair}", std::process::id()));
        let socket = dir.join("daemon.sock");
        let daemon_addr = Addr::Unix(socket.clone());
        let listen = format!("unix:{}", socket.display());
        let mut servers = Servers {
            daemon: None,
            gateway: None,
            daemon_addr,
            gateway_hostport: None,
            dir,
        };
        let mut args = vec!["daemon", "--listen", listen.as_str()];
        args.extend_from_slice(daemon_args);
        let daemon = servers.daemon.insert(Proc::spawn(slj, &args)?);
        daemon.first_line("slj daemon")?;
        if with_gateway {
            let gateway = servers.gateway.insert(Proc::spawn(
                slj,
                &[
                    "gateway",
                    "--listen",
                    "tcp:127.0.0.1:0",
                    "--connect",
                    listen.as_str(),
                ],
            )?);
            let line = gateway.first_line("slj gateway")?;
            // "gateway listening on tcp:127.0.0.1:PORT -> daemon unix:..."
            let hostport = line
                .split("listening on tcp:")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .ok_or_else(|| format!("unexpected gateway banner '{line}'"))?;
            servers.gateway_hostport = Some(hostport.to_owned());
        }
        Ok(servers)
    }

    fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.daemon.iter().chain(&self.gateway).map(Proc::pid)
    }

    /// User + system CPU time of the daemon and gateway so far, ms.
    ///
    /// # Errors
    ///
    /// An unreadable `/proc` entry.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        self.pids().map(cpu_ms).sum()
    }

    /// Resident set (VmRSS) of the daemon plus the gateway now, MB.
    ///
    /// # Errors
    ///
    /// An unreadable `/proc` entry.
    pub fn rss_mb(&self) -> Result<f64, String> {
        Ok(self.pids().map(rss_kb).sum::<Result<f64, String>>()? / 1024.0)
    }

    /// Drains gracefully — through the gateway's `POST /v1/drain`, or a
    /// wire `DRAIN` without one — waits for both processes to exit, and
    /// reads the daemon's drain line.
    ///
    /// # Errors
    ///
    /// A drain request that fails or a drain line that does not parse;
    /// the processes are stopped either way.
    pub fn drain(mut self) -> Result<DrainReport, String> {
        let requested = match &self.gateway_hostport {
            Some(hostport) => {
                crate::http::exchange(hostport, &crate::http::bare_request("POST", "/v1/drain"))
                    .and_then(|r| match r.status {
                        200 => Ok(()),
                        other => Err(format!("gateway drain answered {other}")),
                    })
            }
            None => slj_daemon::client::drain_daemon(&self.daemon_addr)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        };
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        if let Some(gateway) = self.gateway.take() {
            gateway.finish(deadline);
        }
        let out = self
            .daemon
            .take()
            .map(|d| d.finish(deadline))
            .unwrap_or_default();
        requested?;
        parse_drain_line(&out).ok_or_else(|| format!("no drain line in daemon output: {out:?}"))
    }
}

impl Drop for Servers {
    /// Whatever path got here (error, panic, a setup run discarded),
    /// no server outlives the benchmark.
    fn drop(&mut self) {
        if let Some(gateway) = self.gateway.take() {
            gateway.kill();
        }
        if let Some(daemon) = self.daemon.take() {
            daemon.kill();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave the root if this was the last pair; ignore "not empty".
        let _ = std::fs::remove_dir(SOCKET_ROOT);
    }
}

/// Parses `daemon drained: … (N finished, …), … T ticks`.
fn parse_drain_line(out: &str) -> Option<DrainReport> {
    let line = out.lines().find(|l| l.starts_with("daemon drained:"))?;
    let number_before = |word: &str| -> Option<u64> {
        let at = line.find(word)?;
        line[..at]
            .split_whitespace()
            .last()?
            .trim_start_matches('(')
            .parse()
            .ok()
    };
    Some(DrainReport {
        sessions_finished: number_before(" finished")?,
        ticks: number_before(" ticks")?,
    })
}

/// `utime + stime` of a process (all its threads, live and exited), ms.
fn cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // Fields 14 and 15 of stat(5); `fields[0]` is field 3.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: field {} unreadable", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
}

/// Resident set (`VmRSS`) of a process, kB.
fn rss_kb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status has no VmRSS"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_line_parses() {
        let out = "listening on unix:x (slj-wire/1)\n\
                   daemon drained: 3 connections, 12 sessions (11 finished, 1 failed, 0 aborted, \
                   11 clip-ingested), 0 events dropped, 0 connections torn down, 345 ticks\n";
        let report = parse_drain_line(out).unwrap();
        assert_eq!(report.sessions_finished, 11);
        assert_eq!(report.ticks, 345);
        assert!(parse_drain_line("nothing").is_none());
    }

    #[test]
    fn own_process_readings_are_positive() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).unwrap() >= 0.0);
        assert!(rss_kb(pid).unwrap() > 0.0);
    }
}
