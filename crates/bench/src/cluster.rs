//! Process launcher and registry for loopback socket clusters.
//!
//! A [`ProcessCluster`] stands up one `peerd` endpoint **process** per
//! peer (the binary ships with this crate), collects the loopback port
//! each endpoint prints on stdout, and registers the addresses with a
//! [`SocketTransport`] so that the peers added over it claim them in
//! order. Dropping the cluster reaps every child.
//!
//! ```no_run
//! use axml_bench::cluster::ProcessCluster;
//! use axml_core::prelude::*;
//!
//! // Three real OS processes, each owning a loopback listener.
//! let cluster = ProcessCluster::launch(3).unwrap();
//! let mut sys = AxmlSystem::builder()
//!     .transport(Box::new(cluster.transport()))
//!     .peers(["a", "b", "c"])
//!     .link("a", "b", LinkCost::wan())
//!     .build()
//!     .unwrap();
//! assert_eq!(sys.transport_backend(), "socket");
//! ```
//!
//! Tests locate the binary through Cargo's `CARGO_BIN_EXE_peerd`
//! environment variable; other callers can point
//! [`ProcessCluster::launch_with`] at any binary speaking the endpoint
//! protocol of [`axml_net::socket::serve_connection`].

use axml_net::socket::SocketTransport;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Locate the `peerd` binary for the current build.
///
/// Inside `cargo test` / `cargo run`, Cargo exports
/// `CARGO_BIN_EXE_peerd`; otherwise fall back to searching next to the
/// current executable (the standard target-dir layout).
pub fn peerd_path() -> io::Result<PathBuf> {
    if let Some(p) = std::env::var_os("CARGO_BIN_EXE_peerd") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe()?;
    for dir in me.ancestors().skip(1).take(3) {
        let candidate = dir.join(format!("peerd{}", std::env::consts::EXE_SUFFIX));
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "peerd binary not found: build it with `cargo build -p axml-bench --bin peerd`",
    ))
}

/// A handle over one launched endpoint process.
struct PeerProc {
    child: Child,
    addr: SocketAddr,
}

/// A set of `peerd` endpoint processes on loopback, one per peer.
///
/// See the [module docs](self) for the launch walkthrough; the children
/// are killed and reaped on drop (a clean [`SocketHandle::shutdown`](axml_net::socket::SocketHandle::shutdown)
/// makes them exit on their own first).
pub struct ProcessCluster {
    procs: Vec<PeerProc>,
}

impl ProcessCluster {
    /// Launch `n` endpoint processes using the crate's own `peerd`.
    pub fn launch(n: usize) -> io::Result<Self> {
        Self::launch_with(&peerd_path()?, n)
    }

    /// Launch `n` endpoint processes from an explicit binary. Each must
    /// print `PORT <n>` on its stdout once its loopback listener is
    /// bound, then serve one connection with the AXTR endpoint
    /// protocol.
    pub fn launch_with(binary: &std::path::Path, n: usize) -> io::Result<Self> {
        let mut procs = Vec::with_capacity(n);
        for idx in 0..n {
            let mut child = Command::new(binary)
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()?;
            let stdout = child.stdout.take().expect("stdout was piped");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line)?;
            let port: u16 = line
                .trim()
                .strip_prefix("PORT ")
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| {
                    let _ = child.kill();
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("endpoint {idx} announced {line:?}, expected `PORT <n>`"),
                    )
                })?;
            procs.push(PeerProc {
                child,
                addr: SocketAddr::from(([127, 0, 0, 1], port)),
            });
        }
        Ok(ProcessCluster { procs })
    }

    /// The endpoint addresses, in launch order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.procs.iter().map(|p| p.addr).collect()
    }

    /// Number of endpoint processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the cluster is empty.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// A fresh [`SocketTransport`] with every endpoint pre-registered:
    /// the first `len()` peers added over it connect to the cluster's
    /// processes in launch order (later peers fall back to thread
    /// endpoints).
    pub fn transport(&self) -> SocketTransport {
        let mut t = SocketTransport::new();
        for addr in self.addrs() {
            t.register_endpoint(addr);
        }
        t
    }

    /// Wait for every endpoint process to exit on its own (after the
    /// transport's `Bye`), with a hard deadline per child. Returns an
    /// error naming the first child that had to be killed.
    pub fn join(mut self, timeout: std::time::Duration) -> io::Result<()> {
        let deadline = std::time::Instant::now() + timeout;
        for (idx, p) in self.procs.iter_mut().enumerate() {
            loop {
                if p.child.try_wait()?.is_some() {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("endpoint process {idx} did not exit before the deadline"),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        self.procs.clear();
        Ok(())
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}
