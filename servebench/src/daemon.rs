//! The system under test: `ghsom-daemon` run as a child process on
//! ephemeral loopback ports.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::scrape::{self, Listener, Scrape};

/// Upper bound on a child's life, so no daemon outlives a harness that
/// was killed before it could stop its children.
const MAX_LIFE_SECS: &str = "170";

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Spool poll interval: how soon a replicated bundle is deployed.
const POLL_MS: &str = "50";

/// A running daemon child. Dropping it kills the process and waits for
/// it to end.
pub struct DaemonChild {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// GHSD ingest listener.
    pub ingest: SocketAddr,
    /// Plaintext metrics listener.
    pub metrics: SocketAddr,
    /// GHSF replication endpoint, when started with `--fleet`.
    pub fleet: Option<SocketAddr>,
}

impl DaemonChild {
    /// Starts `binary` over `spool` and reads the listener addresses it
    /// announces.
    ///
    /// # Errors
    ///
    /// The binary cannot start, or exits before announcing every
    /// listener.
    pub fn spawn(binary: &Path, spool: &Path, fleet: bool) -> Result<Self, String> {
        let mut cmd = Command::new(binary);
        cmd.arg("--spool")
            .arg(spool)
            .args(["--listen", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
            .args(["--poll-ms", POLL_MS, "--max-seconds", MAX_LIFE_SECS]);
        if fleet {
            cmd.args(["--fleet", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".to_string());
        };
        let mut stdout = BufReader::new(stdout);
        let (mut ingest, mut metrics, mut fleet_addr) = (None, None, None);
        let mut line = String::new();
        while ingest.is_none() || metrics.is_none() || (fleet && fleet_addr.is_none()) {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before announcing its listeners".to_string());
                }
                Ok(_) => match scrape::startup_line(&line) {
                    Some((Listener::Ingest, a)) => ingest = Some(a),
                    Some((Listener::Metrics, a)) => metrics = Some(a),
                    Some((Listener::Fleet, a)) => fleet_addr = Some(a),
                    None => {}
                },
            }
        }
        let (Some(ingest), Some(metrics)) = (ingest, metrics) else {
            unreachable!("the loop above ends only with both addresses");
        };
        Ok(DaemonChild {
            child,
            _stdout: stdout,
            ingest,
            metrics,
            fleet: fleet_addr,
        })
    }

    /// Scrapes the metrics listener.
    ///
    /// # Errors
    ///
    /// Connection or parse failures.
    pub fn scrape(&self) -> Result<Scrape, String> {
        scrape::fetch(self.metrics)
    }

    /// Waits until `tenant` has been deployed from the spool.
    ///
    /// # Errors
    ///
    /// No deploy within `timeout`, or the metrics listener fails.
    pub fn wait_deployed(&self, tenant: &str, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        let labels = [("tenant", tenant), ("kind", "deployed")];
        loop {
            let deployed = self
                .scrape()?
                .value("ghsomd_tenant_spool_events_total", &labels)
                .unwrap_or(0.0);
            if deployed >= 1.0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "tenant {tenant} was not deployed within {timeout:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// CPU seconds (user + system, all threads) the child has used; the
    /// kernel leaves out time the hypervisor stole.
    ///
    /// # Errors
    ///
    /// `/proc` is unreadable or malformed.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("daemon stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / CLOCK_TICKS_PER_S)
                .ok_or_else(|| "daemon stat is malformed".to_string())
        };
        Ok(ticks(11)? + ticks(12)?)
    }

    /// Peak resident set (`VmHWM`) of the child in KiB.
    ///
    /// # Errors
    ///
    /// `/proc` is unreadable or has no `VmHWM` line.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kib| kib.parse().ok())
            .ok_or_else(|| "daemon status has no VmHWM".to_string())
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
