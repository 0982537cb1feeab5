//! Subprocess hygiene for the `serve_mixed` and `router_shards` workloads.
//!
//! Children bind ephemeral ports and report them through `--port-file`;
//! their stores live under the run's scratch directory; every child is
//! killed and reaped on every exit path that unwinds (normal return, failed
//! assertion, panic) by [`Fleet`]'s `Drop`. `bench/run.sh` covers signals:
//! it kills its own ledger's process tree. `VmHWM` is sampled while the
//! child is alive — a reaped (or zombie) process has no memory fields left
//! to read.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::util::vm_hwm_kib;

/// A line-delimited JSON connection to a server or router.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let w = TcpStream::connect(("127.0.0.1", port))?;
        w.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it past the cap.
        w.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    /// Writes one request line (no reply is read).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")
    }

    /// Reads one reply line (without the newline).
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        if self.r.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed by peer",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// One request, one reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Splits into independently owned write and read halves (the open-loop
    /// generator sends on schedule from one thread and reads on another).
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.w, self.r)
    }
}

/// One spawned child.
pub struct Proc {
    /// Role name (`serve`, `worker0`, `worker1`, `router`): peaks are kept
    /// per role across restarts.
    pub role: String,
    pub port: u16,
    child: Child,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// Every child of one run. Dropping the fleet kills and reaps them all.
pub struct Fleet {
    bin_dir: PathBuf,
    scratch: PathBuf,
    procs: Vec<Proc>,
    /// Highest `VmHWM` seen per role, KiB.
    peaks: BTreeMap<String, u64>,
    spawned: usize,
}

impl Fleet {
    /// A fleet whose children keep their port files, logs and stores under
    /// `scratch` (which [`crate::util::Dirs::prepare`] has checked for stale
    /// processes and emptied).
    pub fn new(bin_dir: &Path, scratch: &Path) -> Result<Fleet, String> {
        for name in ["ihtl-serve", "ihtl-router"] {
            if !bin_dir.join(name).is_file() {
                return Err(format!(
                    "{} not found in {} (run bench/run.sh, which builds it)",
                    name,
                    bin_dir.display()
                ));
            }
        }
        Ok(Fleet {
            bin_dir: bin_dir.to_path_buf(),
            scratch: scratch.to_path_buf(),
            procs: Vec::new(),
            peaks: BTreeMap::new(),
            spawned: 0,
        })
    }

    fn spawn(&mut self, role: &str, bin: &str, args: &[String]) -> Result<u16, String> {
        self.spawned += 1;
        let tag = format!("{role}-{}", self.spawned);
        let port_file = self.scratch.join(format!("{tag}.port"));
        let log = std::fs::File::create(self.scratch.join(format!("{tag}.log")))
            .map_err(|e| format!("creating log for {tag}: {e}"))?;
        let log_err = log.try_clone().map_err(|e| format!("cloning log handle: {e}"))?;
        let child = Command::new(self.bin_dir.join(bin))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(args)
            // Worker pools are pinned: one sweep thread per server process.
            // (The allocator settings are inherited from the ledger.)
            .env("IHTL_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(log_err))
            .spawn()
            .map_err(|e| format!("spawning {bin}: {e}"))?;
        // Registered before the port wait so a failure below still reaps it.
        self.procs.push(Proc { role: role.to_string(), port: 0, child });
        let proc = self.procs.last_mut().expect("just pushed");
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    proc.port = port;
                    return Ok(port);
                }
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("{tag} exited during start-up ({status}); see its log"));
            }
            if Instant::now() > deadline {
                return Err(format!("{tag} never wrote its port file"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Starts an `ihtl-serve` with the workload's fixed flags plus `extra`.
    pub fn spawn_serve(&mut self, role: &str, store: &Path, extra: &[&str]) -> Result<u16, String> {
        let mut args: Vec<String> = vec!["--store-dir".into(), store.display().to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        self.spawn(role, "ihtl-serve", &args)
    }

    /// Starts an `ihtl-router` in front of `worker_ports` (its `--port-file`
    /// path names the scratch directory, which is how the stale check
    /// recognises the process as ours).
    pub fn spawn_router(&mut self, worker_ports: &[u16]) -> Result<u16, String> {
        let workers: Vec<String> = worker_ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        self.spawn("router", "ihtl-router", &["--workers".into(), workers.join(",")])
    }

    /// Samples `VmHWM` of every live child into the per-role peaks.
    fn sample_peaks(&mut self) {
        for p in &self.procs {
            if let Some(kib) = vm_hwm_kib(p.pid()) {
                let slot = self.peaks.entry(p.role.clone()).or_default();
                *slot = (*slot).max(kib);
            }
        }
    }

    /// Σ `VmHWM` of the children alive right now, KiB.
    pub fn live_hwm_kib(&self) -> u64 {
        self.procs.iter().filter_map(|p| vm_hwm_kib(p.pid())).sum()
    }

    /// Sum over roles of the highest `VmHWM` any incarnation reached, KiB.
    pub fn peak_sum_kib(&self) -> u64 {
        self.peaks.values().sum()
    }

    /// Stops every child: `shutdown` op first (the server's own clean exit
    /// path), `SIGKILL` for whatever is still alive a second later.
    pub fn stop_all(&mut self) {
        self.sample_peaks();
        for p in &self.procs {
            if let Ok(mut c) = Conn::open(p.port) {
                let _ = c.call("{\"op\":\"shutdown\"}");
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for p in &mut self.procs {
            loop {
                match p.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    _ => {
                        let _ = p.child.kill();
                        let _ = p.child.wait();
                        break;
                    }
                }
            }
        }
        self.procs.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &mut self.procs {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
    }
}

/// Pids of live `ihtl-serve` / `ihtl-router` processes whose command line
/// names `scratch` (i.e. that an earlier run of this workload started).
pub fn stale_processes(scratch: &Path) -> Vec<u32> {
    let needle = scratch.display().to_string();
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return found;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(raw) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&raw).replace('\0', " ");
        let ours = cmdline.contains("ihtl-serve") || cmdline.contains("ihtl-router");
        if ours && cmdline.contains(&needle) && pid != std::process::id() {
            found.push(pid);
        }
    }
    found
}
