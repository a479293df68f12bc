//! One `rmsa serve` child per measurement, and the two load drivers that
//! talk to it over the wire.
//!
//! A fresh child per run is required: the memo, the metric registry and
//! the SLO gauges are process-wide, so a reused daemon would serve a rerun
//! of the same seed from its memo.

use crate::mix::Mix;
use rmsa_service::wire::{Request, Response, SolveResponse, WarmRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed of the served instance (graph, advertisers, RR cache). Fixed, so
/// that the workload seed changes the requests and not the system.
pub const SERVE_SEED: u64 = 20_210_620;
/// Serving θ: RR-sets per solver stream after warm-up.
pub const WARM_RR: usize = 20_000;
/// RR-sets of the independent evaluation collection.
pub const EVAL_RR: usize = 100_000;
/// Daemon workers, RR-generation threads, and load-generator threads all
/// stay within this: the benchmark is sized for a two-core machine.
pub const CORES: usize = 2;
/// How long before a request is due the open-loop sender stops sleeping
/// and yields instead.
const SPIN_SECS: f64 = 200e-6;
/// The daemon's default latency objective (`--slo-ms`).
pub const SLO_SECS: f64 = 0.050;

/// A running `rmsa serve` child.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start `rmsa serve` on an ephemeral port and wait until it listens.
    pub fn spawn(rmsa: &Path, work: &Path, extra: &[&str]) -> Result<Daemon, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let port_file = work.join(format!(
            "port-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&port_file);
        let mut command = Command::new(rmsa);
        command
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(["--scale", "1", "--seed", &SERVE_SEED.to_string()])
            .args(["--warm-rr", &WARM_RR.to_string()])
            .args(["--eval-rr", &EVAL_RR.to_string()])
            .args(["--workers", &CORES.to_string()])
            .args(["--threads", &CORES.to_string()])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for (key, _) in std::env::vars() {
            if key.starts_with("RMSA_") {
                command.env_remove(key);
            }
        }
        let child = command
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", rmsa.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("rmsa serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("rmsa serve did not start within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One request on a fresh connection.
    pub fn call(&self, request: &Request) -> Result<Response, String> {
        let mut connection = Connection::open(&self.addr)?;
        let line = connection.round_trip(&request.render())?;
        Response::parse(&line)
    }

    /// Warm the serving session (a no-op answer once warm).
    pub fn warm(&self) -> Result<(), String> {
        let request = Request::Warm(WarmRequest {
            id: u64::MAX - 1,
            dataset: crate::mix::DATASET,
            strategy: rmsa::diffusion::RrStrategy::Standard,
            target_rr: None,
        });
        match self.call(&request)? {
            Response::Warm(_) => Ok(()),
            other => Err(format!("warm failed: {other:?}")),
        }
    }

    /// `(counter, value)` pairs of the `metrics` RPC.
    pub fn counters(&self) -> Result<Vec<(String, u64)>, String> {
        match self.call(&Request::Metrics { id: u64::MAX - 2 })? {
            Response::Metrics { report, .. } => Ok(report.counters),
            other => Err(format!("metrics failed: {other:?}")),
        }
    }

    /// The daemon's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        peak_rss_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the daemon to stop and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = self.call(&Request::Shutdown { id: u64::MAX });
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("rmsa serve did not shut down".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB (0 when unreadable).
pub fn peak_rss_mib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One NDJSON connection that hands back raw response lines.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    pub fn open(addr: &str) -> Result<Connection, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = writer.set_nodelay(true);
        // A daemon that stops answering fails the run instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection { writer, reader })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// One answered (or failed) request.
pub struct Sample {
    pub id: u64,
    /// Seconds from the intended send time to the complete response line.
    pub latency: f64,
    /// When the response line was complete, seconds into the phase.
    pub at: f64,
    /// The parsed solve response, or why there is none.
    pub response: Result<SolveResponse, String>,
    pub bytes: usize,
}

fn sample(id: u64, latency: f64, started: Instant, line: Result<String, String>) -> Sample {
    let bytes = line.as_ref().map_or(0, |l| l.len() + 1);
    let response = line.and_then(|l| match Response::parse(&l)? {
        Response::Solve(r) if r.id == id => Ok(r),
        Response::Solve(r) => Err(format!("response id {} for request {id}", r.id)),
        other => Err(format!("request {id}: {other:?}")),
    });
    Sample {
        id,
        latency,
        at: started.elapsed().as_secs_f64(),
        response,
        bytes,
    }
}

/// Closed loop: `clients` connections, each send → wait → repeat, until
/// `duration` has passed. Request ids are handed out in order from 1.
pub fn closed_loop(
    addr: &str,
    mix: Mix,
    seed: u64,
    clients: usize,
    duration: Duration,
) -> Result<(Vec<Sample>, f64), String> {
    let next_id = AtomicU64::new(1);
    let samples = Mutex::new(Vec::new());
    let mut connections = (0..clients)
        .map(|_| Connection::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let deadline = started + duration;
    std::thread::scope(|scope| {
        for connection in connections.iter_mut() {
            let (next_id, samples) = (&next_id, &samples);
            scope.spawn(move || {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let id = next_id.fetch_add(1, Ordering::Relaxed);
                    let line = Request::Solve(mix.request(seed, id)).render();
                    let sent = Instant::now();
                    let answer = connection.round_trip(&line);
                    let broken = answer.is_err();
                    local.push(sample(id, sent.elapsed().as_secs_f64(), started, answer));
                    if broken {
                        break;
                    }
                }
                samples
                    .lock()
                    .expect("no sampler thread panics while holding the lock")
                    .extend(local);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut samples = samples
        .into_inner()
        .expect("sampler threads joined without panicking");
    samples.sort_by_key(|s| s.id);
    Ok((samples, wall))
}

/// What one open-loop step measured.
pub struct OpenStep {
    pub rate: f64,
    pub samples: Vec<Sample>,
    /// Per-request lag of the actual send behind the intended one, s.
    pub send_lags: Vec<f64>,
}

impl OpenStep {
    /// The generator held the schedule: its median send lag stayed below
    /// half the inter-arrival time. A step that fails this measured the
    /// load generator rather than the daemon, and is invalid.
    pub fn generator_kept_up(&self) -> bool {
        crate::stats::median(&self.send_lags) <= 0.5 / self.rate
    }
}

/// Open loop on one pipelined connection: a sender fires request `k` at
/// `k / rate` regardless of replies, a reader times each reply from its
/// intended send time. Ids run `first_id..first_id + rate·duration`.
pub fn open_loop(
    addr: &str,
    mix: Mix,
    seed: u64,
    rate: f64,
    duration: Duration,
    first_id: u64,
) -> Result<OpenStep, String> {
    let count = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let Connection { mut writer, reader } = Connection::open(addr)?;
    let mut reader = Connection {
        writer: writer.try_clone().map_err(|e| e.to_string())?,
        reader,
    };
    let started = Instant::now();
    let (send_lags, samples) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lags = Vec::with_capacity(count as usize);
            let mut buffer = Vec::new();
            for k in 0..count {
                let due = k as f64 / rate;
                // Sleep to just short of the due time, then yield until it:
                // a timer wakeup alone overshoots by tens of microseconds,
                // which would be charged to the daemon's latency.
                let ahead = due - started.elapsed().as_secs_f64();
                if ahead > SPIN_SECS {
                    std::thread::sleep(Duration::from_secs_f64(ahead - SPIN_SECS));
                }
                while started.elapsed().as_secs_f64() < due {
                    std::thread::yield_now();
                }
                lags.push((started.elapsed().as_secs_f64() - due).max(0.0));
                buffer.clear();
                buffer.extend_from_slice(
                    Request::Solve(mix.request(seed, first_id + k))
                        .render()
                        .as_bytes(),
                );
                buffer.push(b'\n');
                if writer.write_all(&buffer).is_err() {
                    break;
                }
            }
            lags
        });
        let receiver = scope.spawn(move || {
            let mut out = Vec::with_capacity(count as usize);
            for k in 0..count {
                let line = reader.recv();
                let due = k as f64 / rate;
                let latency = (started.elapsed().as_secs_f64() - due).max(0.0);
                let broken = line.is_err();
                out.push(sample(first_id + k, latency, started, line));
                if broken {
                    break;
                }
            }
            out
        });
        let lags = sender.join().expect("open-loop sender does not panic");
        let samples = receiver.join().expect("open-loop reader does not panic");
        (lags, samples)
    });
    Ok(OpenStep {
        rate,
        samples,
        send_lags,
    })
}

/// Saturation on one pipelined connection: `window` requests stay in
/// flight, each reply releasing the next send, until `duration` passes.
pub fn pipelined(
    addr: &str,
    mix: Mix,
    seed: u64,
    window: usize,
    duration: Duration,
    first_id: u64,
) -> Result<(Vec<Sample>, f64), String> {
    let mut connection = Connection::open(addr)?;
    let mut in_flight = std::collections::VecDeque::new();
    let mut samples = Vec::new();
    let mut next_id = first_id;
    let started = Instant::now();
    let deadline = started + duration;
    loop {
        while in_flight.len() < window && Instant::now() < deadline {
            connection.send(&Request::Solve(mix.request(seed, next_id)).render())?;
            in_flight.push_back((next_id, Instant::now()));
            next_id += 1;
        }
        let Some((id, sent)) = in_flight.pop_front() else {
            break;
        };
        let line = connection.recv();
        let broken = line.is_err();
        samples.push(sample(id, sent.elapsed().as_secs_f64(), started, line));
        if broken {
            break;
        }
    }
    Ok((samples, started.elapsed().as_secs_f64()))
}

/// Per-run scratch directory inside the build directory of the checkout.
pub fn work_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
