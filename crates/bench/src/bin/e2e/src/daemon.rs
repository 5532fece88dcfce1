//! The sibling binaries: `proteus-train` writes the artifact, and
//! `proteus-serve` runs as a real subprocess whose stderr is drained and
//! whose memory is sampled while it serves.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How to build the binaries this benchmark drives.
pub const BUILD_COMMAND: &str =
    "cargo build --release -p proteus-net --bin proteus-serve -p proteus-bench --bin proteus-train";

/// The tenant the daemon admits, as `TENANT:SECRET`, and the secret the
/// owners authenticate with.
pub const TENANT: &str = "bench:bench";
/// The owners' auth token.
pub const TOKEN: &str = "bench";

/// How often the daemon's resident set is sampled.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(200);
/// How long the daemon may take to print its `listening on` line.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Daemon stderr lines kept for error messages.
const STDERR_TAIL: usize = 20;

/// Paths of the sibling release binaries.
#[derive(Debug, Clone)]
pub struct Binaries {
    serve: PathBuf,
    train: PathBuf,
}

impl Binaries {
    /// Finds `proteus-serve` and `proteus-train` next to this executable.
    ///
    /// # Errors
    /// Names the missing binary and the command that builds it.
    pub fn locate() -> Result<Binaries, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
        let dir = exe.parent().unwrap_or(Path::new("."));
        let find = |name: &str| {
            let path = dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!(
                    "{} is missing; build it first with:\n  {BUILD_COMMAND}",
                    path.display()
                ))
            }
        };
        Ok(Binaries {
            serve: find("proteus-serve")?,
            train: find("proteus-train")?,
        })
    }

    /// Runs `proteus-train train` with its defaults (k=8, pool 120,
    /// inventory warmed into the artifact) and returns its wall time.
    ///
    /// # Errors
    /// When the trainer cannot start or exits non-zero (with its stderr).
    pub fn train(&self, out: &Path) -> Result<Duration, String> {
        let started = Instant::now();
        let output = Command::new(&self.train)
            .arg("train")
            .arg("--out")
            .arg(out)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| format!("starting {}: {e}", self.train.display()))?;
        let elapsed = started.elapsed();
        if !output.status.success() {
            return Err(format!(
                "proteus-train failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        Ok(elapsed)
    }

    /// Starts `proteus-serve` on `artifact` on a free loopback port with
    /// its default workers, window and cache, journaling into `store_dir`
    /// if given, and waits for its `listening on` line. The daemon is
    /// killed once its resident set passes `rss_limit_kb`. Returns the
    /// daemon and how long it took to start listening.
    ///
    /// # Errors
    /// When the daemon cannot start, exits, or never reports its address.
    pub fn serve(
        &self,
        artifact: &Path,
        store_dir: Option<&Path>,
        rss_limit_kb: u64,
    ) -> Result<(Daemon, Duration), String> {
        let started = Instant::now();
        let mut cmd = Command::new(&self.serve);
        cmd.arg("--artifact")
            .arg(artifact)
            .args(["--addr", "127.0.0.1:0", "--token", TENANT]);
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", self.serve.display()))?;
        let pid = child.id();
        let stderr = child.stderr.take().ok_or("daemon stderr was not piped")?;
        let child = Arc::new(Mutex::new(child));

        // drain stderr for the daemon's whole life, so it can never block
        // on a full pipe; hand the listening address over once it appears
        let (addr_tx, addr_rx) = mpsc::channel();
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let drain_tail = Arc::clone(&tail);
        let drain = thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = listening_addr(&line) {
                    let _ = addr_tx.send(addr);
                }
                let mut tail = drain_tail.lock().unwrap_or_else(PoisonError::into_inner);
                if tail.len() == STDERR_TAIL {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
        });

        let stop = Arc::new(AtomicBool::new(false));
        let over_limit = Arc::new(AtomicBool::new(false));
        let rss_peak_kb = Arc::new(AtomicU64::new(0));
        let watchdog = {
            let (child, stop, over_limit, peak) = (
                Arc::clone(&child),
                Arc::clone(&stop),
                Arc::clone(&over_limit),
                Arc::clone(&rss_peak_kb),
            );
            thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let Some(kb) = status_kb(pid, "VmRSS") else {
                        break; // the daemon is gone
                    };
                    peak.fetch_max(kb, Ordering::Relaxed);
                    if kb > rss_limit_kb {
                        over_limit.store(true, Ordering::SeqCst);
                        let _ = child.lock().unwrap_or_else(PoisonError::into_inner).kill();
                        break;
                    }
                    thread::sleep(RSS_SAMPLE_EVERY);
                }
            })
        };

        let mut daemon = Daemon {
            child,
            pid,
            // replaced below once the daemon reports its port
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
            watchdog: Some(watchdog),
            stop,
            over_limit,
            rss_peak_kb,
            tail,
        };
        match addr_rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok((daemon, started.elapsed()))
            }
            Err(_) => {
                daemon.shutdown();
                Err(format!(
                    "proteus-serve never reported its address; its stderr ends with:\n{}",
                    daemon.stderr_tail()
                ))
            }
        }
    }
}

/// Parses the address out of the daemon's `listening on ADDR (...)` line.
fn listening_addr(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("listening on ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A `kB` field of `/proc/<pid>/status` (`VmRSS`, `VmHWM`).
fn status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    kb_field(&status, field)
}

/// A `kB` field of a `/proc` key-value file such as `meminfo` or `status`.
pub fn kb_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A running `proteus-serve`. Dropping it kills the process and waits
/// for it and for the threads watching it.
#[derive(Debug)]
pub struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    over_limit: Arc<AtomicBool>,
    /// The highest `VmRSS` (KiB) the watchdog sampled.
    rss_peak_kb: Arc<AtomicU64>,
    tail: Arc<Mutex<VecDeque<String>>>,
}

impl Daemon {
    /// The loopback address the daemon listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the watchdog killed the daemon for exceeding its memory
    /// limit.
    pub fn over_limit(&self) -> bool {
        self.over_limit.load(Ordering::SeqCst)
    }

    /// The daemon's peak resident set so far in MiB: the kernel's
    /// high-water mark, or the highest sample if that is unreadable.
    pub fn peak_rss_mb(&self) -> f64 {
        let sampled = self.rss_peak_kb.load(Ordering::Relaxed);
        status_kb(self.pid, "VmHWM").unwrap_or(0).max(sampled) as f64 / 1024.0
    }

    /// The last lines the daemon wrote to stderr.
    pub fn stderr_tail(&self) -> String {
        let tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
        tail.iter().cloned().collect::<Vec<_>>().join("\n")
    }

    /// Kills the daemon and waits for it and both watcher threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let mut child = self.child.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = child.kill();
            let _ = child.wait();
        }
        for handle in [self.watchdog.take(), self.drain.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_listening_line() {
        assert_eq!(
            listening_addr("listening on 127.0.0.1:41234 (1 tenant(s))"),
            Some("127.0.0.1:41234".parse().expect("literal address"))
        );
        assert_eq!(listening_addr("warm-started from a.prta in 3.1 ms"), None);
    }

    #[test]
    fn reads_kb_fields() {
        let status = "Name:\tproteus-serve\nVmHWM:\t  52340 kB\nVmRSS:\t  51000 kB\n";
        assert_eq!(kb_field(status, "VmHWM"), Some(52340));
        assert_eq!(kb_field(status, "VmRSS"), Some(51000));
        assert_eq!(kb_field(status, "VmSwap"), None);
    }
}
