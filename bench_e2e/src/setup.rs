//! Set-up: the bulk-load process, the serving process, and the parent's
//! handle on them.
//!
//! The bulk load runs in a process of its own so none of its memory is
//! in the serving process's resident set. The serving process opens the
//! flushed store cold, trains and attaches the tagger, binds, and prints
//! one `READY <addr> <shards>` line; closing its stdin shuts it down
//! gracefully.

use crate::workload::{corpus, Scale};
use create_core::{Create, CreateConfig};
use create_ner::{CrfTagger, CrfTaggerConfig, LabelSet, NerDataset};
use create_server::{build_api, Server};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long the parent waits for a child's set-up before giving up.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// `prepare`: bulk-loads the seed's gold corpus into `dir` and flushes.
pub fn prepare(dir: &Path, seed: u64, scale: &Scale) -> Result<(), String> {
    let (_, reports) = corpus(seed, scale.reports);
    let system = Create::open(dir, CreateConfig::default()).map_err(|e| e.to_string())?;
    system
        .ingest_gold_batch(&reports, 0)
        .map_err(|e| e.to_string())?;
    system.flush().map_err(|e| e.to_string())
}

/// Trains the NER tagger every process of a run uses (same reports,
/// same configuration, so the same model).
pub fn train_tagger(system: &Create, seed: u64, scale: &Scale) -> CrfTagger {
    let (_, reports) = corpus(seed, scale.reports);
    let training = &reports[..scale.tagger_reports.min(reports.len())];
    let dataset = NerDataset::from_reports(training, LabelSet::ner_targets());
    CrfTagger::train(
        &dataset,
        CrfTaggerConfig::default(),
        Some(system.ontology()),
        None,
    )
}

/// Opens `dir` cold and attaches a freshly trained tagger.
pub fn open_with_tagger(dir: &Path, seed: u64, scale: &Scale) -> Result<Create, String> {
    let system = Create::open(dir, CreateConfig::default()).map_err(|e| e.to_string())?;
    let tagger = train_tagger(&system, seed, scale);
    system.attach_tagger(tagger);
    Ok(system)
}

/// `serve`: serves `dir` until stdin closes.
pub fn serve(dir: &Path, seed: u64, scale: &Scale) -> Result<(), String> {
    let system = Arc::new(open_with_tagger(dir, seed, scale)?);
    let shards = system.shard_count();
    let server = Server::bind("127.0.0.1:0", build_api(Arc::clone(&system)))
        .map_err(|e| format!("bind: {e}"))?;
    let handle = server.shutdown_handle();
    println!("READY {} {shards}", server.local_addr());
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = std::io::stdin().read_to_end(&mut sink);
        handle.shutdown();
    });
    server.serve();
    Ok(())
}

/// The parent's handle on a running server process. Dropping it stops
/// the process and waits for it.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// The shard count its `CreateConfig::default()` resolved to.
    pub shards: usize,
}

impl ServerProcess {
    /// The process id (for reading its resident set).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: closes stdin and waits for the drain to finish.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop in time".to_string());
                }
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Arguments every child gets.
fn child_args(dir: &Path, seed: u64, scale_name: &str) -> Vec<String> {
    vec![
        "--dir".to_string(),
        dir.display().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--scale".to_string(),
        scale_name.to_string(),
    ]
}

/// One full set-up: fresh data dir, bulk load, cold open, tagger, bind.
/// Returns the serving process and the seconds from start until it
/// accepted requests.
pub fn set_up(dir: &Path, seed: u64, scale_name: &str) -> Result<(ServerProcess, f64), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let status = Command::new(&exe)
        .arg("prepare")
        .args(child_args(dir, seed, scale_name))
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("spawning prepare: {e}"))?;
    if !status.success() {
        return Err(format!("prepare exited with {status}"));
    }
    let mut child = Command::new(&exe)
        .arg("serve")
        .args(child_args(dir, seed, scale_name))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning serve: {e}"))?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let mut process = ServerProcess {
        child,
        stdin,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        shards: 0,
    };
    let line = rx
        .recv_timeout(CHILD_TIMEOUT)
        .map_err(|_| "server did not report READY".to_string())?;
    let seconds = started.elapsed().as_secs_f64();
    let mut parts = line.split_whitespace();
    if parts.next() != Some("READY") {
        return Err(format!("server failed to start: {line:?}"));
    }
    process.addr = parts
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("bad READY line {line:?}"))?;
    process.shards = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad READY line {line:?}"))?;
    Ok((process, seconds))
}

/// Resident set of a process in MiB, from `/proc/<pid>/status`.
pub fn rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// This process's resident set in MiB.
pub fn own_rss_mib() -> f64 {
    rss_mib(std::process::id()).unwrap_or(0.0)
}

/// Copies a directory tree (the pristine store a traced run replays on).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target: PathBuf = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
