//! The serving process. The benchmark runs the servers in a child of its
//! own binary so that `rss_peak_mb` is the serving process's peak and the
//! load generator never shares its heap or threads with them.
//!
//! The child boots its servers, prints one `READY <front> [<shard>...]`
//! line and serves until its standard input closes, which also happens
//! when the parent dies. Then it shuts every server down and exits.

use geoalign_cluster::{ClientConfig, Coordinator, CoordinatorConfig, ShardSpec};
use geoalign_serve::store::AppState;
use geoalign_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};

/// Shard names the coordinator's hash ring is built over.
pub fn shard_names(shards: usize) -> Vec<String> {
    (0..shards).map(|i| format!("s{i}")).collect()
}

/// Entry point of `perfbench serve --shards N [--data-dir DIR]`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let mut shards = 0usize;
    let mut data_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--shards" => shards = value()?.parse().map_err(|e| format!("--shards: {e}"))?,
            "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown serve argument {other}")),
        }
    }
    let config = ServerConfig {
        data_dir,
        ..ServerConfig::default()
    };
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    if shards == 0 {
        let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        addrs.push(server.addr().to_string());
        servers.push(server);
    } else {
        let mut shard_addrs = Vec::new();
        for _ in 0..shards {
            let server =
                Server::bind("127.0.0.1:0", config.clone()).map_err(|e| format!("bind: {e}"))?;
            shard_addrs.push(server.addr().to_string());
            servers.push(server);
        }
        let specs = shard_names(shards)
            .into_iter()
            .zip(&shard_addrs)
            .map(|(name, addr)| ShardSpec {
                name,
                primary: addr.clone(),
                standby: None,
            })
            .collect();
        // A coordinator that never re-sends: a reset shard connection fails
        // the request instead of folding an `/ingest` twice.
        let coordinator = Coordinator::new(CoordinatorConfig {
            client: ClientConfig {
                retries: 0,
                ..ClientConfig::default()
            },
            ..CoordinatorConfig::new(specs)
        })?;
        let state = AppState::new(config.cache_capacity);
        coordinator.install(&state);
        let front = Server::bind_with_state("127.0.0.1:0", config, state)
            .map_err(|e| format!("bind coordinator: {e}"))?;
        addrs.push(front.addr().to_string());
        addrs.extend(shard_addrs);
        servers.push(front);
    }
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "READY {}", addrs.join(" ")).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    // Serve until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    // The coordinator front end was pushed last: stop it before its shards.
    while let Some(server) = servers.pop() {
        server.shutdown();
    }
    Ok(())
}

/// A running serving child, seen from the load generator.
#[derive(Debug)]
pub struct Serving {
    child: Child,
    stdin: Option<ChildStdin>,
    /// The address clients talk to: the node, or the coordinator.
    pub front: String,
    /// Shard addresses in ring order (empty for a single node).
    pub shards: Vec<String>,
}

impl Serving {
    /// Spawns the serving child and waits for its `READY` line.
    pub fn spawn(shards: usize, data_dir: Option<&Path>) -> Result<Serving, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg("--shards").arg(shards.to_string());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn serving child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut serving = Serving {
            child,
            stdin,
            front: String::new(),
            shards: Vec::new(),
        };
        if !matches!(read, Ok(n) if n > 0 && line.starts_with("READY ")) {
            return Err(format!("serving child did not start: {line:?}"));
        }
        let mut addrs = line["READY ".len()..].split_whitespace().map(str::to_owned);
        serving.front = addrs.next().ok_or("READY line without an address")?;
        serving.shards = addrs.collect();
        Ok(serving)
    }

    /// Every server address: the front end first, then the shards.
    pub fn all_addrs(&self) -> Vec<String> {
        std::iter::once(self.front.clone())
            .chain(self.shards.iter().cloned())
            .collect()
    }

    /// Peak resident set of the serving process (`VmHWM`), in MiB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the child's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kb / 1024.0)
    }

    /// Closes the child's stdin and waits for it to shut down.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        // Only reached without `stop()` on an error path: the child must
        // not outlive the run, and its graceful drain is not needed.
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
