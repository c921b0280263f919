//! The resident placement daemon: TCP front end, worker pool, shared
//! artifact cache, per-connection progress fan-out.
//!
//! Thread model (hand-rolled, no async runtime — consistent with the
//! workspace's vendored-shim policy):
//!
//! * one **accept loop** polling a nonblocking listener (so shutdown is
//!   observed within ~50 ms);
//! * one **handler thread per connection**, reading request frames and
//!   answering admission results inline; completions arrive on the same
//!   socket from worker threads through a shared locked writer;
//! * `workers` **worker threads** looping on
//!   [`AdmissionQueue::take`](crate::queue::AdmissionQueue::take), each
//!   running jobs through a [`JobEngine`] clone that shares the
//!   process-wide [`ArtifactCache`] (keyed by netlist content hash, so
//!   repeat circuits skip compilation) and carries the lease's
//!   [`CancelFlag`] for preemption;
//! * optionally one **forwarder thread per streaming connection**,
//!   pumping `placer-obs` progress frames for that connection's jobs.
//!
//! Preemption reuses the checkpoint machinery wholesale: the engine runs
//! with `resume: true` and a spool checkpoint directory, so a preempted
//! job writes `<id>.ckpt`, is silently re-queued, and its next lease
//! picks the checkpoint up and finishes bit-identically to an
//! uninterrupted run (the PR-5 contract). The client only ever sees the
//! final report — verbatim `JobReport::to_line` bytes, identical to the
//! offline `jobs` binary.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use eplace::{ArtifactCache, EcoConfig};
use placer_jobs::{JobEngine, JobSpec, JobStatus, Profile};
use placer_obs::ledger::{LedgerRecord, RunLedger};
use placer_obs::progress;
use placer_sweep::{RaceConfig, SweepConfig, SweepEngine};

use crate::protocol::{
    accepted_frame, bare_frame, done_frame, parse_request, welcome_frame, ErrorCode, ProtocolError,
    Request, SweepRequest, MAX_FRAME_BYTES,
};
use crate::queue::{AdmissionQueue, AdmitError, Lease, QueueConfig, QueueStats};

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads running placements.
    pub workers: usize,
    /// Admission queue capacity (pending entries).
    pub queue_capacity: usize,
    /// Per-tenant queued+running quota.
    pub tenant_quota: usize,
    /// Spool directory: `ckpt/` for preemption checkpoints, `place/` for
    /// result placements (warm-start inputs for ECO requests).
    pub spool: PathBuf,
    /// ECO fast-path dirty threshold override (`None` = default).
    pub eco_threshold: Option<f64>,
    /// Ledger flag as on the CLI (`None` = default path, `"none"` = off).
    pub ledger: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            tenant_quota: 16,
            spool: std::env::temp_dir().join("placer-serve-spool"),
            eco_threshold: None,
            ledger: Some("none".into()),
        }
    }
}

/// Serialized write half of one connection, shared between its handler
/// thread, the workers delivering its reports, and its progress
/// forwarder. Every line is flushed — clients act on lines, not buffers.
struct Outbound {
    stream: Mutex<TcpStream>,
}

impl Outbound {
    fn send_line(&self, line: &str) {
        let frame = [line, "\n"].concat();
        let mut w = self.stream.lock().unwrap();
        let _ = w.write_all(frame.as_bytes());
        let _ = w.flush();
    }
}

/// What a queue entry does when a worker leases it.
enum Work {
    /// One placement (or ECO) job; the spec is the lease's.
    Place,
    /// A batched sweep, run as one admission unit.
    Sweep(SweepRequest),
}

/// Completion context attached to every queue entry.
struct JobCtx {
    out: Arc<Outbound>,
    work: Work,
}

struct Shared {
    queue: AdmissionQueue<JobCtx>,
    cache: Arc<ArtifactCache>,
    engine: JobEngine,
    ledger: RunLedger,
    stop: AtomicBool,
    connections: AtomicU64,
    requests: AtomicU64,
    /// Job ids admitted but not yet delivered: the spool namespace is
    /// process-wide, so in-flight ids must be unique across connections.
    inflight: Mutex<HashSet<String>>,
}

impl Shared {
    fn ledger_record(&self, record: &mut LedgerRecord) {
        let _ = self.ledger.append(record);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Server::shutdown) (graceful) or let a client send a
/// `shutdown` frame.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener or creating the spool
    /// directories.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let ckpt_dir = config.spool.join("ckpt");
        let place_dir = config.spool.join("place");
        std::fs::create_dir_all(&ckpt_dir)?;
        std::fs::create_dir_all(&place_dir)?;

        let cache = Arc::new(ArtifactCache::new());
        let mut eco = EcoConfig::default();
        if let Some(t) = config.eco_threshold {
            eco.dirty_threshold = t;
        }
        let engine = JobEngine {
            checkpoint_dir: Some(ckpt_dir),
            placement_dir: Some(place_dir),
            resume: true, // preempted jobs leave a checkpoint; pick it up
            cache: cache.clone(),
            eco,
            preempt: None, // per-lease flag attached by the worker
        };

        // The fan-out needs a live reporter thread. Respect a sink the
        // embedding binary already installed (e.g. `serve --progress`);
        // otherwise run silent so the daemon doesn't spam stderr.
        if placer_obs::progress_compiled() && !progress::installed() {
            let _ = progress::install_silent();
        }

        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(QueueConfig {
                capacity: config.queue_capacity,
                tenant_quota: config.tenant_quota,
                workers: config.workers,
            }),
            cache,
            engine,
            ledger: RunLedger::from_flag(config.ledger.as_deref()),
            stop: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            inflight: Mutex::new(HashSet::new()),
        });

        let mut worker_threads = Vec::new();
        for i in 0..config.workers.max(1) {
            let shared = shared.clone();
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Artifact-cache hits so far (shared across every request).
    pub fn cache_hits(&self) -> u64 {
        self.shared.cache.hits()
    }

    /// Artifact-cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.shared.cache.misses()
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.shared.queue.stats()
    }

    /// Blocks until the daemon stops — i.e. until a client sends a
    /// `shutdown` frame — joining every worker and the accept loop. This
    /// is what the `serve` binary parks on.
    pub fn wait(mut self) {
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stop admitting, drain the queue, join every
    /// worker and the accept loop.
    pub fn shutdown(mut self) {
        self.shared.queue.drain();
        self.shared.queue.wait_idle();
        self.shared.stop.store(true, Ordering::Release);
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Frames are small request/answer lines: without TCP_NODELAY, Nagle's
    // algorithm holds each one back until the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let out = Arc::new(Outbound {
        stream: Mutex::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        }),
    });
    let mut reader = BufReader::new(stream);
    shared.connections.fetch_add(1, Ordering::Relaxed);

    let mut tenant = "anon".to_string();
    let mut streaming = false;
    let mut subscription: Option<Arc<progress::ProgressSubscription>> = None;
    let mut forwarder: Option<(Arc<AtomicBool>, JoinHandle<()>)> = None;
    // Ids this connection has admitted; used to clean up the in-flight
    // set if the client vanishes before its jobs are delivered... the
    // worker removes each id at delivery, so nothing to undo here.

    let mut line = String::new();
    loop {
        line.clear();
        // One byte past the cap tells an overlong frame from one that
        // ends exactly at it.
        let mut frame = (&mut reader).take(MAX_FRAME_BYTES as u64 + 1);
        match frame.read_line(&mut line) {
            Ok(0) => break, // peer closed
            Ok(n) if n > MAX_FRAME_BYTES && !line.ends_with('\n') => {
                out.send_line(
                    &ProtocolError::new(
                        ErrorCode::FrameTooLarge,
                        format!("frame exceeds {MAX_FRAME_BYTES} bytes without a newline"),
                    )
                    .to_line(),
                );
                // Jobs still in flight hold clones of the socket, so end
                // it explicitly rather than by dropping this handle.
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                break;
            }
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = match parse_request(trimmed) {
            Ok(r) => r,
            Err(e) => {
                out.send_line(&e.to_line());
                continue;
            }
        };
        match request {
            Request::Hello { tenant: t, stream } => {
                tenant = t;
                if stream {
                    if placer_obs::progress_compiled() {
                        streaming = true;
                        let sub = Arc::new(progress::subscribe());
                        let stop = Arc::new(AtomicBool::new(false));
                        let fwd_sub = sub.clone();
                        let fwd_out = out.clone();
                        let fwd_stop = stop.clone();
                        let handle = std::thread::Builder::new()
                            .name("serve-progress".into())
                            .spawn(move || {
                                while !fwd_stop.load(Ordering::Acquire) {
                                    if let Some(frame) =
                                        fwd_sub.recv_timeout(Duration::from_millis(100))
                                    {
                                        fwd_out.send_line(&frame);
                                    }
                                }
                            });
                        if let Ok(handle) = handle {
                            subscription = Some(sub);
                            forwarder = Some((stop, handle));
                        }
                    } else {
                        out.send_line(
                            &ProtocolError::new(
                                ErrorCode::ProgressUnavailable,
                                "daemon built without the `telemetry` feature",
                            )
                            .to_line(),
                        );
                    }
                }
                out.send_line(&welcome_frame(placer_simd::selected().name()));
                let mut rec = LedgerRecord::new("serve");
                rec.str_field("event", "connect")
                    .str_field("tenant", &tenant)
                    .flag("stream", streaming);
                shared.ledger_record(&mut rec);
            }
            Request::Submit(spec) => {
                submit_work(shared, &out, &tenant, *spec, Work::Place, &subscription);
            }
            Request::Sweep(req) => {
                // Priority and quota accounting ride on a synthetic spec;
                // the sweep itself lives in the payload.
                let spec = synthetic_sweep_spec(&req);
                submit_work(shared, &out, &tenant, spec, Work::Sweep(req), &subscription);
            }
            Request::Stats => {
                out.send_line(&stats_frame(shared));
            }
            Request::Ping => {
                out.send_line(&bare_frame("pong"));
            }
            Request::Shutdown => {
                shared.queue.drain();
                shared.queue.wait_idle();
                shared.stop.store(true, Ordering::Release);
                let mut rec = LedgerRecord::new("serve");
                rec.str_field("event", "shutdown")
                    .uint("completed", shared.queue.stats().completed);
                shared.ledger_record(&mut rec);
                out.send_line(&bare_frame("bye"));
                break;
            }
            Request::Bye => {
                out.send_line(&bare_frame("bye"));
                break;
            }
        }
    }

    if let Some((stop, handle)) = forwarder {
        stop.store(true, Ordering::Release);
        let _ = handle.join();
    }
    shared.connections.fetch_sub(1, Ordering::Relaxed);
}

/// A spec standing in for a sweep in the queue: carries the sweep's id
/// and circuit so priority, quotas and the in-flight namespace all apply.
fn synthetic_sweep_spec(req: &SweepRequest) -> JobSpec {
    let mut spec = JobSpec::new(req.id.clone(), req.circuit.clone(), "sweep");
    spec.profile = Profile::Small;
    spec
}

fn submit_work(
    shared: &Arc<Shared>,
    out: &Arc<Outbound>,
    tenant: &str,
    spec: JobSpec,
    work: Work,
    subscription: &Option<Arc<progress::ProgressSubscription>>,
) {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let id = spec.id.clone();
    {
        let mut inflight = shared.inflight.lock().unwrap();
        if !inflight.insert(id.clone()) {
            out.send_line(
                &ProtocolError::for_job(
                    ErrorCode::DuplicateId,
                    &id,
                    "a job with this id is already in flight",
                )
                .to_line(),
            );
            return;
        }
    }
    let ctx = JobCtx {
        out: out.clone(),
        work,
    };
    // Watch before admission so no progress frame can beat the filter.
    if let Some(sub) = subscription {
        sub.watch(&id);
    }
    match shared.queue.submit(tenant, spec, ctx) {
        Ok(ahead) => {
            out.send_line(&accepted_frame(&id, ahead));
        }
        Err(e) => {
            shared.inflight.lock().unwrap().remove(&id);
            let err = match e {
                AdmitError::QueueFull { capacity } => ProtocolError::for_job(
                    ErrorCode::QueueFull,
                    &id,
                    format!("admission queue is at capacity ({capacity})"),
                ),
                AdmitError::QuotaExceeded { tenant, quota } => ProtocolError::for_job(
                    ErrorCode::QuotaExceeded,
                    &id,
                    format!("tenant `{tenant}` is at its quota ({quota} queued or running)"),
                ),
                AdmitError::Draining => {
                    ProtocolError::for_job(ErrorCode::Draining, &id, "server is draining")
                }
            };
            out.send_line(&err.to_line());
        }
    }
}

fn stats_frame(shared: &Arc<Shared>) -> String {
    let q = shared.queue.stats();
    let hits = shared.cache.hits();
    let misses = shared.cache.misses();
    let total = hits + misses;
    let hit_rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    format!(
        concat!(
            r#"{{"type": "stats", "v": 1, "pending": {}, "running": {}, "completed": {}, "#,
            r#""preempted": {}, "cache_hits": {}, "cache_misses": {}, "cache_hit_rate": {:.4}, "#,
            r#""connections": {}, "requests": {}}}"#
        ),
        q.pending,
        q.running,
        q.completed,
        q.preempted,
        hits,
        misses,
        hit_rate,
        shared.connections.load(Ordering::Relaxed),
        shared.requests.load(Ordering::Relaxed),
    )
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(lease) = shared.queue.take() {
        match &lease.payload.work {
            Work::Place => run_place_lease(shared, lease),
            Work::Sweep(_) => run_sweep_lease(shared, lease),
        }
    }
}

fn run_place_lease(shared: &Arc<Shared>, lease: Lease<JobCtx>) {
    let engine = JobEngine {
        preempt: Some(lease.flag.clone()),
        ..shared.engine.clone()
    };
    let report = engine.run_job(&lease.spec);
    // A cancelled status caused by OUR preemption flag is internal: the
    // checkpoint is spooled, the entry re-queues, and the client sees
    // only the final (resumed) report. A cancellation the client itself
    // requested via `cancel_after_checks` is delivered like any report.
    if report.status == JobStatus::Cancelled && lease.flag.is_cancelled() {
        shared.queue.finish(lease, true);
        return;
    }
    let mut rec = LedgerRecord::new("serve");
    rec.str_field("event", "report")
        .str_field("tenant", &lease.tenant)
        .str_field("id", &report.id)
        .str_field("status", report.status.as_str())
        .uint("preemptions", u64::from(lease.preemptions))
        .num("wall_ms", report.wall_ms);
    shared.ledger_record(&mut rec);
    lease.payload.out.send_line(&report.to_line());
    shared.inflight.lock().unwrap().remove(&report.id);
    shared.queue.finish(lease, false);
}

fn run_sweep_lease(shared: &Arc<Shared>, lease: Lease<JobCtx>) {
    let Work::Sweep(req) = &lease.payload.work else {
        unreachable!("sweep lease carries sweep work");
    };
    let mut config = SweepConfig {
        circuit: req.circuit.clone(),
        ..SweepConfig::default()
    };
    if !req.placers.is_empty() {
        config.placers = req.placers.clone();
    }
    if !req.seeds.is_empty() {
        config.seeds = req.seeds.clone();
    }
    if !req.race {
        config.race = RaceConfig {
            rounds: 0,
            ..RaceConfig::default()
        };
    }
    let outcome = SweepEngine::new(config)
        .with_cache(shared.cache.clone())
        .run();
    let (reports, error) = match outcome {
        Ok(result) => {
            let jsonl = result.to_jsonl();
            let n = jsonl.lines().count();
            for line in jsonl.lines() {
                lease.payload.out.send_line(line);
            }
            lease.payload.out.send_line(&done_frame(&req.id, n));
            (n, None)
        }
        Err(message) => {
            lease.payload.out.send_line(
                &ProtocolError::for_job(ErrorCode::BadSpec, &req.id, &message).to_line(),
            );
            (0, Some(message))
        }
    };
    let mut rec = LedgerRecord::new("serve");
    rec.str_field("event", "sweep_done")
        .str_field("tenant", &lease.tenant)
        .str_field("id", &req.id)
        .uint("reports", reports as u64)
        .flag("failed", error.is_some());
    shared.ledger_record(&mut rec);
    shared.inflight.lock().unwrap().remove(&lease.spec.id);
    shared.queue.finish(lease, false);
}
