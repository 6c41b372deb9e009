//! Provenance of a run: the host, the build and the code under test, so
//! numbers from a different machine or configuration are never compared
//! silently.

use std::path::Path;

use lemp_serve::json::{obj, Json};

/// Hardware threads available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Per-core L2 size in bytes, from sysfs (`None` if not exposed).
pub fn l2_bytes() -> Option<u64> {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok()?;
    let raw = raw.trim();
    let (digits, unit) = raw.split_at(raw.find(|c: char| !c.is_ascii_digit()).unwrap_or(raw.len()));
    let n: u64 = digits.parse().ok()?;
    Some(match unit {
        "K" => n << 10,
        "M" => n << 20,
        _ => n,
    })
}

/// Peak resident set (`VmHWM`) of a process in MiB; `pid = None` reads
/// this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout, when it is itself a git repository (an
/// enclosing repository's commit would say nothing about this code).
fn git_commit(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every Rust source and manifest of the code under test
/// (`crates/`, `vendor/` and the root manifest), in path order — identifies
/// the code even where the checkout carries no git metadata.
fn source_hash(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
            out.push(p);
        }
    }
}

/// 64-bit FNV-1a, used for source and plan fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Host and build provenance as a JSON object.
pub fn provenance(root: &Path) -> Json {
    let isa = format!("{:?}", lemp_linalg::simd::active()).to_lowercase();
    obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("l2_bytes", l2_bytes().map_or(Json::Null, |b| Json::Num(b as f64))),
        ("isa", Json::Str(isa)),
        ("git_commit", git_commit(root).map_or(Json::Null, Json::Str)),
        ("source_hash", Json::Str(source_hash(root))),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
    ])
}
