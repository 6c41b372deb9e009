//! The benchmark's own HTTP side: the timed `/top-k` exchange (one
//! connection per request; the server answers `Connection: close`), the
//! `lemp serve` child process, and `/metrics` scraping. Untimed calls go
//! through `lemp_serve::client`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use lemp_serve::client;

/// Socket timeout of every exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The same, for `lemp_serve::client` calls.
const TIMEOUT: Option<Duration> = Some(IO_TIMEOUT);

/// One request/response exchange with its phase boundaries.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Before `connect`.
    pub t_start: Instant,
    /// Connection established.
    pub t_connected: Instant,
    /// Request fully written.
    pub t_written: Instant,
    /// First response byte read.
    pub t_first_byte: Instant,
    /// Response fully read (peer closed).
    pub t_done: Instant,
}

/// Sends one request on a fresh connection, reads the whole response and
/// records when each phase of the exchange ended.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<Exchange> {
    let t_start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let t_connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let t_written = Instant::now();
    let mut raw = Vec::with_capacity(8192);
    let mut buf = [0u8; 16384];
    let first = stream.read(&mut buf)?;
    let t_first_byte = Instant::now();
    raw.extend_from_slice(&buf[..first]);
    if first > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let t_done = Instant::now();
    // "HTTP/1.1 200 OK\r\n…\r\n\r\n<body>"
    let bad = || std::io::Error::new(ErrorKind::InvalidData, "malformed response");
    let end = raw.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(bad)?;
    let status = raw.get(9..12).and_then(|s| std::str::from_utf8(s).ok()?.parse().ok());
    let status = status.ok_or_else(bad)?;
    let body = raw[end + 4..].to_vec();
    Ok(Exchange { status, body, t_start, t_connected, t_written, t_first_byte, t_done })
}

/// A `lemp serve` child process; killed and reaped on drop.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns this binary in serve-child mode with `args` (the `lemp
    /// serve` arguments after the subcommand) and waits until it listens
    /// and `/healthz` answers 200.
    pub fn boot(child_flag: &str, args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(child_flag)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => {
                line.trim().strip_prefix("lemp-serve listening on ").and_then(|a| a.parse().ok())
            }
            _ => None,
        };
        // Constructed before the checks below so that an early return kills it.
        let mut server = ServerProcess { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        server.addr = addr.ok_or_else(|| format!("server did not report its address: {line:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok((200, _)) = client::request_bytes(server.addr, "GET", "/healthz", TIMEOUT) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("server never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident memory of the server process, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::host::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `/metrics` scrape: sample name (with labels) → value.
pub type Scrape = BTreeMap<String, f64>;

/// Fetches and parses `/metrics`.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let (status, body) = client::request_bytes(addr, "GET", "/metrics", TIMEOUT)
        .map_err(|e| format!("cannot scrape /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(parse_metrics(&String::from_utf8_lossy(&body)))
}

/// Parses Prometheus text exposition samples (comments skipped).
pub fn parse_metrics(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after[key] − before[key]` (missing samples read as 0).
pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Removes a scratch directory tree, ignoring absence.
pub fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_samples_and_deltas() {
        let a =
            parse_metrics("# HELP x y\nlemp_batches_total 3\nlemp_d_sum{path=\"/top-k\"} 0.5\n");
        let b = parse_metrics("lemp_batches_total 5\nlemp_d_sum{path=\"/top-k\"} 0.75\n");
        assert_eq!(delta(&a, &b, "lemp_batches_total"), 2.0);
        assert_eq!(delta(&a, &b, "lemp_d_sum{path=\"/top-k\"}"), 0.25);
        assert_eq!(delta(&a, &b, "missing"), 0.0);
    }
}
