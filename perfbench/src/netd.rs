//! A spawned `mmjoin-netd` and the benchmark's requests to it, sent
//! through the protocol's own [`Client`].

use crate::util::Json;
use mmjoin_net::{Client, Status};
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// A running daemon. Dropping it kills the process if [`Netd::stop`]
/// was not reached, so no daemon outlives the benchmark.
pub struct Netd {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
}

impl Netd {
    /// Spawns `bin` on an ephemeral port with `threads` workers and the
    /// same intra-query budget, optionally exporting traces to
    /// `trace_out`, and waits for its readiness line.
    pub fn spawn(bin: &Path, threads: usize, trace_out: Option<&Path>) -> io::Result<Netd> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &threads.to_string()])
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut netd = Netd {
            child: Some(child),
            stdout: None,
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("mmjoin-netd exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                netd.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                break;
            }
        }
        netd.stdout = Some(stdout);
        Ok(netd)
    }

    /// Opens a connection to the daemon.
    pub fn connect(&self) -> io::Result<Client> {
        Client::connect_retry(self.addr.as_str(), 200, Duration::from_millis(10))
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `shutdown` and waits for the daemon to drain and exit.
    pub fn stop(mut self) -> io::Result<()> {
        ok(&mut self.connect()?, "shutdown")?;
        let mut rest = String::new();
        if let Some(mut out) = self.stdout.take() {
            out.read_to_string(&mut rest)?;
        }
        let status = self.child.take().expect("child present").wait()?;
        if !status.success() || !rest.contains("drained and stopped") {
            return Err(io::Error::other(format!(
                "mmjoin-netd did not stop cleanly ({status}): {rest}"
            )));
        }
        Ok(())
    }
}

impl Drop for Netd {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Sends a command that must succeed and returns its body.
pub fn ok(conn: &mut Client, line: &str) -> io::Result<String> {
    let resp = conn.call(line)?;
    if resp.status != Status::Ok {
        return Err(io::Error::other(format!("`{line}` failed: {}", resp.body)));
    }
    Ok(resp.body)
}

/// `stats --json` (every scope, net included) parsed.
pub fn stats(conn: &mut Client) -> io::Result<Json> {
    let body = ok(conn, "stats --json")?;
    Json::parse(body.trim_start_matches("ok").trim()).map_err(io::Error::other)
}

/// The `rows N` count of a query answer.
pub fn rows_of(body: &str) -> Option<u64> {
    body.split_whitespace()
        .skip_while(|&t| t != "rows")
        .nth(1)
        .and_then(|n| n.parse().ok())
}

/// Loads every `(name, path)` relation file through `load`.
pub fn load_all(conn: &mut Client, files: &[(String, PathBuf)]) -> io::Result<()> {
    for (name, path) in files {
        ok(conn, &format!("load {name} {}", path.display()))?;
    }
    Ok(())
}
