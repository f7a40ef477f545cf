//! The sharded multi-tenant execution server.
//!
//! Std-only, no async runtime: a listener thread accepts connections,
//! each connection gets a reader thread, and execution happens on a
//! fixed pool of *shard* worker threads. Tenants are hashed onto
//! shards, so all of one tenant's state — its [`BrookContext`], module
//! and stream tables, admission ledger — is owned by exactly one
//! thread and needs no locking; the only shared structures are the
//! compiled-module cache and the stats counters.
//!
//! Request flow per frame: decode → route to the tenant's shard over a
//! *bounded* queue (full queue → structured `Busy`, the client backs
//! off; requests are never queued to death) → admission control from
//! static artifacts → execute under a panic shield → reply. A shard
//! drains its queue in batches and coalesces back-to-back launches of
//! the same kernel into one batched pass over the pre-compiled
//! lane/tier chains.

use crate::admission::{Admission, AdmissionConfig, AdmissionError};
use crate::cache::{hash_source, CacheKey, ModuleCache};
use crate::wire::{read_frame, write_frame, ErrorCode, Request, Response, WireArg};
use brook_auto::{
    registered_backends, Arg, BrookContext, BrookError, BrookModule, CancelToken, FaultPlan, ModuleArtifact,
    ResiliencePolicy, Stream,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Back-off hint attached to `Busy` (shed-load) replies: the queue
/// drains in single-digit milliseconds under normal load.
const BUSY_RETRY_HINT_MS: u64 = 5;

/// Per-shard circuit breaker configuration. The breaker replaces
/// *permanent* degradation after repeated panics with a supervised
/// recovery cycle: `Closed` (healthy) → `Open` after
/// `failure_threshold` consecutive caught panics (requests are shed
/// with a `Retryable` + `retry_after_ms` reply for `cooldown`) →
/// `HalfOpen` (exactly one probe request runs) → `Closed` on probe
/// success, back to `Open` on probe failure.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive caught panics that trip the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker sheds requests before probing.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Backend every tenant context executes on — a name from
    /// [`brook_auto::registered_backends`].
    pub backend: &'static str,
    /// Number of shard worker threads (tenants are hashed across them).
    pub shards: usize,
    /// Bounded per-shard queue depth; a full queue answers `Busy`.
    pub queue_depth: usize,
    /// Per-tenant admission limits.
    pub admission: AdmissionConfig,
    /// Device memory budget installed on each tenant context
    /// (`set_memory_budget`) — the runtime half of BA002. `None` leaves
    /// the device unbudgeted.
    pub device_memory_budget: Option<usize>,
    /// Per-launch deadline enforced by the connection-side watchdog:
    /// a `Run`/`Reduce` that does not answer in time is cancelled (its
    /// context's cancel token fires) and the client gets a `Timeout`
    /// reply. `None` disables the watchdog.
    pub launch_deadline: Option<Duration>,
    /// Per-shard circuit breaker over caught panics. `None` preserves
    /// the pre-breaker behavior: a panic discards the tenant, nothing
    /// cools down, nothing probes.
    pub breaker: Option<BreakerConfig>,
    /// Deterministic fault plan armed on each tenant's *first* context
    /// (a context re-created after poisoning starts clean, so an
    /// injected fault schedule cannot wedge a tenant forever). Test
    /// harness / fault-drill knob; `None` in production.
    pub fault_plan: Option<FaultPlan>,
    /// Recovery policy installed on every tenant context: in-context
    /// retry/backoff, panic containment, verified CPU failover. `None`
    /// leaves recovery to the serve layer (panic shield + breaker).
    pub resilience: Option<ResiliencePolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: "cpu",
            shards: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_depth: 64,
            admission: AdmissionConfig::default(),
            device_memory_budget: None,
            launch_deadline: None,
            breaker: None,
            fault_plan: None,
            resilience: None,
        }
    }
}

/// Service-wide counters, shared across shards and connections.
#[derive(Debug, Default)]
pub struct Stats {
    /// Frames decoded into requests.
    pub requests: AtomicU64,
    /// Replies carrying an error.
    pub errors: AtomicU64,
    /// Requests refused by admission control.
    pub admission_rejected: AtomicU64,
    /// Requests shed because a shard queue was full.
    pub busy_rejected: AtomicU64,
    /// Panics caught by the shard shield (the zero-panic gate reads
    /// this; anything nonzero is a toolchain bug surfaced as `Internal`
    /// errors, never a process abort).
    pub panics: AtomicU64,
    /// Kernel launches executed.
    pub runs: AtomicU64,
    /// Launches that rode a coalesced same-kernel batch of ≥ 2.
    pub coalesced_runs: AtomicU64,
    /// Launches cancelled by the watchdog (deadline exceeded).
    pub timeouts: AtomicU64,
    /// In-context transient retries performed by the recovery ladder.
    pub retries: AtomicU64,
    /// Verified backend failovers performed by the recovery ladder.
    pub failovers: AtomicU64,
    /// Corruptions caught by redundant execution.
    pub corruptions_detected: AtomicU64,
    /// Requests shed because a shard's breaker was open.
    pub breaker_rejected: AtomicU64,
    /// Closed/half-open → open transitions.
    pub breaker_trips: AtomicU64,
    /// Half-open probe requests admitted.
    pub breaker_probes: AtomicU64,
}

impl Stats {
    fn snapshot(&self, cache: &ModuleCache) -> Vec<(String, u64)> {
        let (hits, misses) = cache.stats();
        vec![
            ("requests".into(), self.requests.load(Ordering::Relaxed)),
            ("errors".into(), self.errors.load(Ordering::Relaxed)),
            (
                "admission_rejected".into(),
                self.admission_rejected.load(Ordering::Relaxed),
            ),
            ("busy_rejected".into(), self.busy_rejected.load(Ordering::Relaxed)),
            ("panics".into(), self.panics.load(Ordering::Relaxed)),
            ("runs".into(), self.runs.load(Ordering::Relaxed)),
            (
                "coalesced_runs".into(),
                self.coalesced_runs.load(Ordering::Relaxed),
            ),
            ("timeouts".into(), self.timeouts.load(Ordering::Relaxed)),
            ("retries".into(), self.retries.load(Ordering::Relaxed)),
            ("failovers".into(), self.failovers.load(Ordering::Relaxed)),
            (
                "corruptions_detected".into(),
                self.corruptions_detected.load(Ordering::Relaxed),
            ),
            (
                "breaker_rejected".into(),
                self.breaker_rejected.load(Ordering::Relaxed),
            ),
            ("breaker_trips".into(), self.breaker_trips.load(Ordering::Relaxed)),
            (
                "breaker_probes".into(),
                self.breaker_probes.load(Ordering::Relaxed),
            ),
            ("cache_hits".into(), hits),
            ("cache_misses".into(), misses),
        ]
    }
}

/// One queued unit of work: a decoded request plus its reply slot and
/// (for watchdog-covered launches) the cancel token the connection
/// thread fires on deadline expiry.
struct Job {
    request: Request,
    reply: SyncSender<Response>,
    cancel: Option<CancelToken>,
}

/// Per-shard circuit breaker over caught panics (see [`BreakerConfig`]).
/// Owned by the shard thread — no locking.
struct Breaker {
    config: Option<BreakerConfig>,
    consecutive_failures: u32,
    state: BreakerState,
}

#[derive(Debug, PartialEq)]
enum BreakerState {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

/// Admission verdict for one job against the shard's breaker.
enum BreakerAdmit {
    /// Execute normally.
    Proceed,
    /// Execute as the half-open probe (its outcome decides the state).
    Probe,
    /// Shed: the breaker is open for `retry_after` more.
    Shed { retry_after: Duration },
}

impl Breaker {
    fn new(config: Option<BreakerConfig>) -> Breaker {
        Breaker {
            config,
            consecutive_failures: 0,
            state: BreakerState::Closed,
        }
    }

    fn admit(&mut self, now: Instant) -> BreakerAdmit {
        if self.config.is_none() {
            return BreakerAdmit::Proceed;
        }
        match self.state {
            BreakerState::Closed => BreakerAdmit::Proceed,
            BreakerState::Open { until } if now < until => BreakerAdmit::Shed {
                retry_after: until - now,
            },
            // Cooldown elapsed (or a probe is somehow already due):
            // admit exactly one probe.
            BreakerState::Open { .. } | BreakerState::HalfOpen => {
                self.state = BreakerState::HalfOpen;
                BreakerAdmit::Probe
            }
        }
    }

    /// Records a job outcome. Returns `true` when this outcome tripped
    /// the breaker (for the `breaker_trips` counter).
    fn record(&mut self, probe: bool, panicked: bool, now: Instant) -> bool {
        let Some(config) = &self.config else { return false };
        if panicked {
            self.consecutive_failures += 1;
            if probe || self.consecutive_failures >= config.failure_threshold {
                self.state = BreakerState::Open {
                    until: now + config.cooldown,
                };
                self.consecutive_failures = 0;
                return true;
            }
        } else {
            self.consecutive_failures = 0;
            if probe {
                self.state = BreakerState::Closed;
            }
        }
        false
    }
}

/// All state of one tenant, owned by its shard thread.
struct Tenant {
    ctx: BrookContext,
    /// Module handle → adopted module + the artifact it came from (the
    /// artifact carries the static report admission budgets against).
    modules: HashMap<u64, (BrookModule, Arc<ModuleArtifact>)>,
    /// Stream handle → stream + admission charge + element count.
    streams: HashMap<u64, (Stream, usize, usize)>,
    admission: Admission,
    next_handle: u64,
}

impl Tenant {
    fn fresh_handle(&mut self) -> u64 {
        self.next_handle += 1;
        self.next_handle
    }
}

/// A running service instance. Dropping the handle after
/// [`shutdown`](Server::shutdown) (or letting tests drop their clients)
/// winds the threads down.
pub struct Server {
    addr: SocketAddr,
    stats: Arc<Stats>,
    cache: Arc<ModuleCache>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port) and
    /// starts the shard pool.
    ///
    /// # Errors
    /// Socket errors, or an unknown backend name.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        if !registered_backends().iter().any(|b| b.name == config.backend) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown backend `{}`", config.backend),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(Stats::default());
        let cache = Arc::new(ModuleCache::new());
        let stopping = Arc::new(AtomicBool::new(false));

        let shards: Vec<SyncSender<Job>> = (0..config.shards.max(1))
            .map(|_| {
                let (tx, rx) = sync_channel::<Job>(config.queue_depth.max(1));
                spawn_shard(rx, config.clone(), Arc::clone(&stats), Arc::clone(&cache));
                tx
            })
            .collect();

        let acceptor = {
            let stats = Arc::clone(&stats);
            let cache = Arc::clone(&cache);
            let stopping = Arc::clone(&stopping);
            let launch_deadline = config.launch_deadline;
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    // Replies are small frames in a request/reply
                    // ping-pong: without nodelay every exchange eats a
                    // delayed-ACK round (~40 ms).
                    let _ = conn.set_nodelay(true);
                    let shards = shards.clone();
                    let stats = Arc::clone(&stats);
                    let cache = Arc::clone(&cache);
                    std::thread::spawn(move || {
                        serve_connection(conn, &shards, &stats, &cache, launch_deadline);
                    });
                }
            })
        };

        Ok(Server {
            addr,
            stats,
            cache,
            stopping,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolve the ephemeral port for clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> Vec<(String, u64)> {
        self.stats.snapshot(&self.cache)
    }

    /// Stops accepting connections and unblocks the acceptor. Existing
    /// connections finish their in-flight request and wind down when
    /// clients disconnect.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Stable tenant → shard assignment.
fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Connection reader loop: frame → decode → route → reply. `Run` and
/// `Reduce` jobs are watched: if the shard does not answer within
/// `launch_deadline`, the connection thread fires the job's cancel
/// token (unwedging any injected hang or backoff sleep in the
/// recovery ladder) and answers `Timeout` on the shard's behalf.
fn serve_connection(
    mut conn: TcpStream,
    shards: &[SyncSender<Job>],
    stats: &Stats,
    cache: &ModuleCache,
    launch_deadline: Option<Duration>,
) {
    loop {
        let frame = match read_frame(&mut conn) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return, // clean EOF or dead socket
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match Request::decode(&frame) {
            Err(e) => Response::error(ErrorCode::Malformed, e.to_string()),
            // Stats is tenant-less: answered here, off the shard path.
            Ok(Request::Stats) => Response::Stats(stats.snapshot(cache)),
            Ok(request) => {
                let shard = shard_of(request.tenant().unwrap_or(""), shards.len());
                let deadline = match &request {
                    Request::Run { .. } | Request::Reduce { .. } => launch_deadline,
                    _ => None,
                };
                let cancel = deadline.map(|_| CancelToken::new());
                let (tx, rx) = sync_channel::<Response>(1);
                let job = Job {
                    request,
                    reply: tx,
                    cancel: cancel.clone(),
                };
                match shards[shard].try_send(job) {
                    Ok(()) => {
                        let received = match deadline {
                            Some(d) => rx.recv_timeout(d).map_err(|e| match e {
                                RecvTimeoutError::Timeout => Some(d),
                                RecvTimeoutError::Disconnected => None,
                            }),
                            None => rx.recv().map_err(|_| None),
                        };
                        match received {
                            Ok(r) => r,
                            Err(Some(d)) => {
                                // Watchdog: cancel the in-flight launch
                                // and answer for it. The shard's late
                                // reply lands in a dropped channel.
                                if let Some(tok) = &cancel {
                                    tok.cancel();
                                }
                                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                                Response::error(
                                    ErrorCode::Timeout,
                                    format!("launch exceeded its {} ms deadline", d.as_millis()),
                                )
                            }
                            Err(None) => Response::error(ErrorCode::Internal, "shard dropped the request"),
                        }
                    }
                    Err(TrySendError::Full(_)) => {
                        stats.busy_rejected.fetch_add(1, Ordering::Relaxed);
                        Response::error_with_retry(
                            ErrorCode::Busy,
                            format!("shard {shard} queue is full; retry"),
                            BUSY_RETRY_HINT_MS,
                        )
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        Response::error(ErrorCode::Internal, "shard is gone")
                    }
                }
            }
        };
        if matches!(reply, Response::Error { .. }) {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut conn, &reply.encode()).is_err() {
            return;
        }
    }
}

/// Spawns one shard worker owning its tenants and its circuit breaker.
fn spawn_shard(rx: Receiver<Job>, config: ServerConfig, stats: Arc<Stats>, cache: Arc<ModuleCache>) {
    std::thread::spawn(move || {
        let mut tenants: HashMap<String, Tenant> = HashMap::new();
        // Tenant names whose first context already consumed the
        // configured fault plan (see `ServerConfig::fault_plan`).
        let mut plan_armed: HashSet<String> = HashSet::new();
        let mut breaker = Breaker::new(config.breaker.clone());
        // Block for the first job, then drain whatever else is queued
        // so back-to-back same-kernel launches can coalesce.
        while let Ok(first) = rx.recv() {
            let mut batch = vec![first];
            while let Ok(job) = rx.try_recv() {
                batch.push(job);
            }
            // Count maximal runs of consecutive same-(tenant, module,
            // kernel) launches: those execute back-to-back over the
            // same pre-compiled lane/tier chains — one "batched pass"
            // from the pipeline's perspective. Order within the batch
            // is preserved (same-tenant requests must not reorder).
            let mut i = 0;
            while i < batch.len() {
                let mut j = i + 1;
                if let Request::Run {
                    tenant,
                    module,
                    kernel,
                    ..
                } = &batch[i].request
                {
                    while j < batch.len() {
                        match &batch[j].request {
                            Request::Run {
                                tenant: t2,
                                module: m2,
                                kernel: k2,
                                ..
                            } if t2 == tenant && m2 == module && k2 == kernel => j += 1,
                            _ => break,
                        }
                    }
                    if j - i >= 2 {
                        stats.coalesced_runs.fetch_add((j - i) as u64, Ordering::Relaxed);
                    }
                }
                for job in &batch[i..j] {
                    let response = match breaker.admit(Instant::now()) {
                        BreakerAdmit::Shed { retry_after } => {
                            stats.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                            Response::error_with_retry(
                                ErrorCode::Retryable,
                                "shard breaker is open (cooling down after repeated panics)",
                                (retry_after.as_millis() as u64).max(1),
                            )
                        }
                        admit => {
                            let probe = matches!(admit, BreakerAdmit::Probe);
                            if probe {
                                stats.breaker_probes.fetch_add(1, Ordering::Relaxed);
                            }
                            let (response, panicked) =
                                shielded_handle(&mut tenants, &mut plan_armed, job, &config, &stats, &cache);
                            if breaker.record(probe, panicked, Instant::now()) {
                                stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                            }
                            response
                        }
                    };
                    let _ = job.reply.send(response);
                }
                i = j;
            }
        }
    });
}

/// Executes one request under the panic shield: a caught panic becomes
/// an `Internal` error reply and poisons (drops) the tenant whose state
/// can no longer be trusted — the *process* keeps serving. The second
/// return is the panic flag the shard's breaker records.
fn shielded_handle(
    tenants: &mut HashMap<String, Tenant>,
    plan_armed: &mut HashSet<String>,
    job: &Job,
    config: &ServerConfig,
    stats: &Stats,
    cache: &ModuleCache,
) -> (Response, bool) {
    match catch_unwind(AssertUnwindSafe(|| {
        handle_request(tenants, plan_armed, job, config, stats, cache)
    })) {
        Ok(r) => (r, false),
        Err(_) => {
            stats.panics.fetch_add(1, Ordering::Relaxed);
            if let Some(tenant) = job.request.tenant() {
                tenants.remove(tenant);
            }
            (
                Response::error(ErrorCode::Internal, "request panicked; tenant state discarded"),
                true,
            )
        }
    }
}

fn brook_error_response(e: BrookError) -> Response {
    let code = match &e {
        BrookError::FrontEnd(_) => ErrorCode::Compile,
        BrookError::Certification(_) => ErrorCode::Certification,
        BrookError::Codegen(_) | BrookError::Gl(_) => ErrorCode::Device,
        BrookError::Usage(_) => ErrorCode::Usage,
        BrookError::Internal(_) => ErrorCode::Internal,
        BrookError::Timeout(_) => ErrorCode::Timeout,
        // Device loss that escaped the in-context recovery ladder:
        // transient from the client's perspective (re-dispatch is
        // idempotent and the ladder/failover may succeed next time).
        BrookError::DeviceLost(_) => ErrorCode::Retryable,
    };
    Response::error(code, e.to_string())
}

fn admission_response(e: AdmissionError) -> Response {
    Response::error(ErrorCode::AdmissionRejected, e.to_string())
}

fn tenant_entry<'t>(
    tenants: &'t mut HashMap<String, Tenant>,
    plan_armed: &mut HashSet<String>,
    name: &str,
    config: &ServerConfig,
) -> &'t mut Tenant {
    tenants.entry(name.to_owned()).or_insert_with(|| {
        let spec = registered_backends()
            .into_iter()
            .find(|b| b.name == config.backend)
            .expect("backend validated at Server::start");
        let mut ctx = (spec.make)();
        ctx.set_memory_budget(config.device_memory_budget);
        if let Some(policy) = &config.resilience {
            ctx.set_resilience(policy.clone())
                .expect("fresh context has no streams to snapshot");
        }
        // Arm the fault plan only on the tenant's *first* context: a
        // context rebuilt after poisoning starts clean, so an injected
        // schedule cannot wedge the tenant forever.
        if let Some(plan) = &config.fault_plan {
            if plan_armed.insert(name.to_owned()) {
                ctx.set_fault_plan(plan.clone());
            }
        }
        Tenant {
            ctx,
            modules: HashMap::new(),
            streams: HashMap::new(),
            admission: Admission::new(config.admission),
            next_handle: 0,
        }
    })
}

/// Folds the recovery ladder's per-launch evidence into the service
/// counters after a `Run`/`Reduce`.
fn drain_resilience(t: &mut Tenant, stats: &Stats) {
    for rec in t.ctx.take_resilience_records() {
        stats.retries.fetch_add(rec.retries as u64, Ordering::Relaxed);
        stats
            .corruptions_detected
            .fetch_add(rec.corruptions_detected as u64, Ordering::Relaxed);
        if rec.failover.is_some() {
            stats.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_request(
    tenants: &mut HashMap<String, Tenant>,
    plan_armed: &mut HashSet<String>,
    job: &Job,
    config: &ServerConfig,
    stats: &Stats,
    cache: &ModuleCache,
) -> Response {
    let request = &job.request;
    match request {
        Request::Stats => unreachable!("answered on the connection thread"),
        Request::Compile { tenant, source } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let key = CacheKey {
                source_hash: hash_source(source),
                cert_fingerprint: t.ctx.cert_config().fingerprint(),
                backend: config.backend,
            };
            let artifact = match cache.get_or_compile(key, source, || t.ctx.compile_artifact(source)) {
                Ok(a) => a,
                Err(e) => return brook_error_response(e),
            };
            let module = match t.ctx.adopt_artifact(&artifact) {
                Ok(m) => m,
                Err(e) => return brook_error_response(e),
            };
            let handle = t.fresh_handle();
            t.modules.insert(handle, (module, artifact));
            Response::Handle(handle)
        }
        Request::CreateStream { tenant, shape, width } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let shape: Vec<usize> = shape.iter().map(|d| *d as usize).collect();
            let charge = match t.admission.admit_stream(&shape, *width) {
                Ok(c) => c,
                Err(e) => {
                    stats.admission_rejected.fetch_add(1, Ordering::Relaxed);
                    return admission_response(e);
                }
            };
            match t.ctx.stream_with_width(&shape, *width) {
                Ok(s) => {
                    let elems = shape.iter().product::<usize>() * *width as usize;
                    let handle = t.fresh_handle();
                    t.streams.insert(handle, (s, charge, elems));
                    Response::Handle(handle)
                }
                Err(e) => {
                    t.admission.release_stream(charge);
                    brook_error_response(e)
                }
            }
        }
        Request::Write { tenant, stream, data } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((s, _, _)) = t.streams.get(stream) else {
                return unknown_handle("stream", *stream);
            };
            let s = *s;
            match t.ctx.write(&s, data) {
                Ok(()) => Response::Ok,
                Err(e) => brook_error_response(e),
            }
        }
        Request::Read { tenant, stream } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((s, _, _)) = t.streams.get(stream) else {
                return unknown_handle("stream", *stream);
            };
            let s = *s;
            match t.ctx.read(&s) {
                Ok(data) => Response::Data(data),
                Err(e) => brook_error_response(e),
            }
        }
        Request::Run {
            tenant,
            module,
            kernel,
            args,
        } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((m, artifact)) = t.modules.get(module) else {
                return unknown_handle("module", *module);
            };
            if !artifact.kernels().iter().any(|k| k == kernel) {
                return Response::error(ErrorCode::Usage, format!("module has no kernel `{kernel}`"));
            }
            // Admission: charge the launch at the largest bound
            // stream's element count — a static upper bound on the
            // output domain (every output is one of the bound streams).
            let mut domain_elems: u64 = 0;
            let mut bound: Vec<Arg<'_>> = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    WireArg::Stream(h) => {
                        let Some((s, _, elems)) = t.streams.get(h) else {
                            return unknown_handle("stream", *h);
                        };
                        domain_elems = domain_elems.max(*elems as u64);
                        bound.push(Arg::Stream(s));
                    }
                    WireArg::Float(v) => bound.push(Arg::Float(*v)),
                    WireArg::Int(v) => bound.push(Arg::Int(*v)),
                    WireArg::Float4(v) => bound.push(Arg::Float4(*v)),
                }
            }
            if let Err(e) = t.admission.admit_launch(artifact, kernel, domain_elems) {
                stats.admission_rejected.fetch_add(1, Ordering::Relaxed);
                return admission_response(e);
            }
            if let Some(tok) = &job.cancel {
                t.ctx.set_cancel_token(tok.clone());
            }
            let m = m.clone();
            let result = t.ctx.run(&m, kernel, &bound);
            drain_resilience(t, stats);
            match result {
                Ok(()) => {
                    stats.runs.fetch_add(1, Ordering::Relaxed);
                    Response::Ok
                }
                Err(e) => brook_error_response(e),
            }
        }
        Request::Reduce {
            tenant,
            module,
            kernel,
            stream,
        } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((m, artifact)) = t.modules.get(module) else {
                return unknown_handle("module", *module);
            };
            if !artifact.kernels().iter().any(|k| k == kernel) {
                return Response::error(ErrorCode::Usage, format!("module has no kernel `{kernel}`"));
            }
            let Some((s, _, elems)) = t.streams.get(stream) else {
                return unknown_handle("stream", *stream);
            };
            if let Err(e) = t.admission.admit_launch(artifact, kernel, *elems as u64) {
                stats.admission_rejected.fetch_add(1, Ordering::Relaxed);
                return admission_response(e);
            }
            if let Some(tok) = &job.cancel {
                t.ctx.set_cancel_token(tok.clone());
            }
            let (m, s) = (m.clone(), *s);
            let result = t.ctx.reduce(&m, kernel, &s);
            drain_resilience(t, stats);
            match result {
                Ok(v) => Response::Scalar(v),
                Err(e) => brook_error_response(e),
            }
        }
        Request::DropStream { tenant, stream } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            match t.streams.remove(stream) {
                Some((_, charge, _)) => {
                    t.admission.release_stream(charge);
                    Response::Ok
                }
                None => unknown_handle("stream", *stream),
            }
        }
    }
}

fn unknown_handle(kind: &str, handle: u64) -> Response {
    Response::error(ErrorCode::Malformed, format!("unknown {kind} handle {handle}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_hash_stably_within_bounds() {
        for shards in 1..8 {
            for t in ["a", "tenant-1", "tenant-2", ""] {
                let s = shard_of(t, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(t, shards), "stable");
            }
        }
    }

    #[test]
    fn breaker_lifecycle_state_machine() {
        let t0 = Instant::now();
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
        };
        let mut b = Breaker::new(Some(cfg));
        // Closed: failures below the threshold don't trip.
        assert!(matches!(b.admit(t0), BreakerAdmit::Proceed));
        assert!(!b.record(false, true, t0));
        assert!(matches!(b.admit(t0), BreakerAdmit::Proceed));
        // A success in between resets the consecutive count.
        assert!(!b.record(false, false, t0));
        assert!(!b.record(false, true, t0));
        // Second consecutive panic: trip.
        assert!(b.record(false, true, t0));
        // Open: shed with a positive remaining cooldown.
        match b.admit(t0 + Duration::from_millis(10)) {
            BreakerAdmit::Shed { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(90));
            }
            _ => panic!("open breaker must shed"),
        }
        // Cooldown over: exactly one probe is admitted.
        let t1 = t0 + Duration::from_millis(150);
        assert!(matches!(b.admit(t1), BreakerAdmit::Probe));
        // Probe failure: re-trip immediately (no threshold).
        assert!(b.record(true, true, t1));
        assert!(matches!(b.admit(t1), BreakerAdmit::Shed { .. }));
        // Second probe succeeds: closed again.
        let t2 = t1 + Duration::from_millis(150);
        assert!(matches!(b.admit(t2), BreakerAdmit::Probe));
        assert!(!b.record(true, false, t2));
        assert_eq!(b.state, BreakerState::Closed);
        assert!(matches!(b.admit(t2), BreakerAdmit::Proceed));
    }

    #[test]
    fn disabled_breaker_never_sheds() {
        let mut b = Breaker::new(None);
        let now = Instant::now();
        for _ in 0..10 {
            assert!(!b.record(false, true, now));
            assert!(matches!(b.admit(now), BreakerAdmit::Proceed));
        }
    }

    #[test]
    fn unknown_backend_is_rejected_at_start() {
        let err = match Server::start(
            "127.0.0.1:0",
            ServerConfig {
                backend: "quantum",
                ..ServerConfig::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("unknown backend must not start"),
        };
        assert!(err.to_string().contains("quantum"));
    }
}
