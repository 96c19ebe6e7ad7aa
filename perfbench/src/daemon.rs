//! The `weblab serve` child process and the client side of its
//! line-delimited protocol.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::spec::{Spec, WORKERS};

/// A running daemon. Dropping it kills the process if it is still alive.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// When the process was spawned; every client timestamp is relative
    /// to it.
    pub spawned: Instant,
    pub store: PathBuf,
    /// Holds the pid until the process is reaped, so the launcher can stop
    /// the daemon should this process die first.
    pid_file: PathBuf,
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    response: String,
}

impl Conn {
    /// Send one request line and wait for its response line (closed loop).
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("sending a request: {e}"))?;
        self.response.clear();
        self.reader
            .read_line(&mut self.response)
            .map_err(|e| format!("reading a response: {e}"))?;
        if !self.response.ends_with('\n') {
            return Err("the daemon closed the connection mid-response".into());
        }
        self.response.pop();
        Ok(&self.response)
    }
}

impl Daemon {
    /// Spawn `weblab serve` on an ephemeral port and wait until it listens.
    pub fn start(bin: &Path, store: &Path, spec: &Spec, log: &Path) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let stderr = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--workers", &WORKERS.to_string()])
            .args(["--max-resident", &spec.max_resident.to_string()])
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pid_file = log.with_extension("pid");
        let _ = std::fs::write(&pid_file, child.id().to_string());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&pid_file);
            return Err(format!(
                "daemon did not report its address ({read:?}, {banner:?}); see {}",
                log.display()
            ));
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
            spawned,
            store: store.to_path_buf(),
            pid_file,
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connecting: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("setting TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("setting a read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("cloning: {e}"))?);
        Ok(Conn {
            stream,
            reader,
            out: Vec::new(),
            response: String::new(),
        })
    }

    /// `VmHWM` of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kib / 1024.0)
    }

    /// Send `shutdown` and wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        let response = conn.call("{\"op\":\"shutdown\"}")?.to_string();
        if !response.contains("\"stopping\":true") {
            return Err(format!("shutdown refused: {response}"));
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        if self.child.wait().is_ok() {
            let _ = std::fs::remove_file(&self.pid_file);
        }
    }
}
