//! The `synthd` cluster under test: spawning members, persistent client
//! connections, and the peak-memory census.

use std::io::{self, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hls_cluster::{read_frame, Addr, Frame, Incoming, PeerClient};

pub const MEMBERS: usize = 2;

/// A running two-member `synthd --cluster --replicas 2 --incremental`
/// cluster on Unix sockets. Members are killed and reaped on drop.
pub struct Cluster {
    children: Vec<Child>,
    pub addrs: Vec<Addr>,
}

impl Cluster {
    /// Starts one member per store and waits until each answers `ping`.
    /// Socket paths are relative to the working directory and fixed per
    /// workload: member addresses feed the hash ring, so stable names keep
    /// the ownership split identical from run to run.
    pub fn start(dir: &Path, stores: &[PathBuf], max_bytes: u64) -> Result<Cluster, String> {
        let addrs: Vec<Addr> = (0..stores.len())
            .map(|i| Addr::Unix(dir.join(format!("m{i}.sock"))))
            .collect();
        let peers = addrs
            .iter()
            .map(Addr::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let synthd = std::env::current_exe()
            .map_err(|e| format!("current exe: {e}"))?
            .with_file_name("synthd");
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs: addrs.clone(),
        };
        for (i, store) in stores.iter().enumerate() {
            let child = Command::new(&synthd)
                .arg("--store")
                .arg(store)
                .args(["--max-bytes", &max_bytes.to_string()])
                .args(["--incremental", "--cluster", "--peers", &peers])
                .args(["--self-index", &i.to_string(), "--replicas", "2"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", synthd.display()))?;
            cluster.children.push(child);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        for addr in &addrs {
            let client = PeerClient::new(addr.clone());
            while !matches!(client.call(&Frame::Ping), Ok(Frame::Pong { .. })) {
                if Instant::now() > deadline {
                    return Err(format!("member {addr} never answered ping"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        Ok(cluster)
    }

    /// Summed peak resident set (VmHWM) of the members, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.children.iter().map(|c| peak_rss_mb(c.id())).sum()
    }

    /// One `stats` frame per member.
    pub fn stats(&self) -> Result<Vec<hls_ir::Json>, String> {
        self.addrs
            .iter()
            .map(|a| match PeerClient::new(a.clone()).call(&Frame::Stats) {
                Ok(Frame::Report(r)) => Ok(r),
                other => Err(format!("stats from {a}: {other:?}")),
            })
            .collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Peak resident set (VmHWM) of process `pid` in MiB; 0 if unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A persistent frame connection to one member.
pub struct Conn {
    write: UnixStream,
    read: BufReader<UnixStream>,
}

impl Conn {
    pub fn open(addr: &Addr) -> io::Result<Conn> {
        let Addr::Unix(path) = addr else {
            return Err(io::Error::other("the benchmark cluster uses Unix sockets"));
        };
        let write = UnixStream::connect(path)?;
        let read = BufReader::new(write.try_clone()?);
        Ok(Conn { write, read })
    }

    /// Sends one pre-encoded frame line and waits for the parsed reply.
    pub fn call_line(&mut self, line: &[u8]) -> Result<Frame, String> {
        self.write
            .write_all(line)
            .and_then(|()| self.write.flush())
            .map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.read) {
            Ok(Some(Incoming::Frame(f))) => Ok(f),
            Ok(other) => Err(format!("reply is not a frame: {other:?}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The wire line of a frame, newline included.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut line = frame.to_json().write();
    line.push('\n');
    line.into_bytes()
}
