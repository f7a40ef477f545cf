//! The `service` workload: a closed loop of two client connections for
//! two tenants against an in-process `brook_serve::Server` on `cpu` with
//! two shards and no think time. Each client sends its next request as
//! soon as the previous reply arrives: mostly 256-element saxpy runs,
//! with writes of fresh input, reads, reduces and a periodic compile
//! that hits the shared module cache. The wire, queue and cache work of
//! `serve` dominates; in-process execution is a small share. Run
//! latency is compared with a raw loopback TCP round trip of the same
//! frame sizes, which no toolchain code takes part in.

use crate::report::{self, Budget, EndToEnd, Run, Samples};
use brook_auto::{Arg, BrookContext};
use brook_serve::{Client, Request, Response, Server, ServerConfig, WireArg};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const SOURCE: &str = "kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }
                      reduce void sum(float a<>, reduce float r<>) { r += a; }";
const ELEMENTS: usize = 256;
const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Requests give hundreds of thousands of samples per run, so the
/// printed `serve_p99_us` is a true p99.
const TAIL_PCT: f64 = 99.0;
/// The percentile `tail_ratio` compares. Beyond the 95th, requests and
/// round trips are both mostly single scheduling delays on the shared
/// vCPUs, and those hit the two unequally: with another busy thread on
/// the host the round trips' p99 rose 40% where the requests' did not,
/// and the p99 ratio moved by a third; the p95 ratio moved 2%.
const RATIO_TAIL_PCT: f64 = 95.0;

/// Request kinds, in the order of the per-kind metrics.
const KINDS: [&str; 5] = ["run", "read", "write", "reduce", "compile"];

/// The request a client sends as its `i`-th operation. The base is the
/// repository's own service load (`brook_bench::serve`): saxpy runs
/// with a read after every tenth run. Every ten runs also get a write
/// of fresh input beside the read, and every forty runs one reduce and
/// one compile (a cache hit after the first). These added rates are
/// chosen, not measured from real traffic; they keep runs at 80% of
/// requests. Per 50 operations: 40 runs, 4 writes, 4 reads, 1 reduce,
/// 1 compile.
fn kind_of(i: u64) -> usize {
    match i % 50 {
        48 => 3,
        49 => 4,
        j => match j % 12 {
            10 => 2,
            11 => 1,
            _ => 0,
        },
    }
}

/// Seeded input for the `n`-th write of client `c`.
fn fresh(seed: u64, c: usize, n: u64) -> Vec<f32> {
    let mut s = seed ^ ((c as u64) << 48) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..ELEMENTS)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 8.0 - 4.0
        })
        .collect()
}

/// Every `PROBE_EVERY`-th operation a client also times a raw loopback
/// round trip of a run request's and reply's frames, and, in process,
/// the wire codec of those frames and the same launch on its shadow
/// `BrookContext::cpu`, so the reference figures see the same host load
/// as the requests around them.
const PROBE_EVERY: u64 = 8;

/// A client's in-process mirror of its tenant: every write is applied
/// to it too, so it is the bit-exact oracle for the server's streams.
struct Shadow {
    ctx: BrookContext,
    module: brook_auto::BrookModule,
    streams: Vec<brook_auto::Stream>,
}

impl Shadow {
    fn new() -> Result<Shadow, String> {
        let mut ctx = BrookContext::cpu();
        let module = ctx.compile(SOURCE).map_err(|e| e.to_string())?;
        let streams = (0..3)
            .map(|_| ctx.stream(&[ELEMENTS]))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Shadow { ctx, module, streams })
    }

    fn run(&mut self, a: f32) -> Result<(), String> {
        let s = &self.streams;
        let args = [
            Arg::Stream(&s[0]),
            Arg::Stream(&s[1]),
            Arg::Float(a),
            Arg::Stream(&s[2]),
        ];
        self.ctx
            .run(&self.module, "saxpy", &args)
            .map_err(|e| e.to_string())
    }
}

/// One client's connection and stream handles.
struct Session {
    client: Client,
    tenant: String,
    module: u64,
    /// Server handles of `x`, `y` and `r`.
    streams: [u64; 3],
    a: f32,
    shadow: Shadow,
}

impl Session {
    fn args(&self) -> [WireArg; 4] {
        let [x, y, r] = self.streams;
        [
            WireArg::Stream(x),
            WireArg::Stream(y),
            WireArg::Float(self.a),
            WireArg::Stream(r),
        ]
    }

    /// Writes `data` to stream `k` (0 = `x`, 1 = `y`) on the server.
    fn write(&mut self, k: usize, data: &[f32]) -> Result<(), brook_serve::ClientError> {
        crate::trace::span("serve.write", || self.client.write(self.streams[k], data))
    }

    /// The wire request of one saxpy run.
    fn run_request(&self) -> Request {
        Request::Run {
            tenant: self.tenant.clone(),
            module: self.module,
            kernel: "saxpy".into(),
            args: self.args().to_vec(),
        }
    }

    /// Applies a write the server accepted to the shadow.
    fn mirror(&mut self, k: usize, data: &[f32]) {
        self.shadow
            .ctx
            .write(&self.shadow.streams[k], data)
            .expect("shadow write of a stream it created");
    }
}

fn open(addr: SocketAddr, seed: u64, c: usize) -> Result<Session, String> {
    let tenant = format!("tenant-{c}");
    let mut client = Client::connect(addr, &tenant).map_err(|e| format!("connect: {e}"))?;
    let module = client.compile(SOURCE).map_err(|e| format!("compile: {e}"))?;
    let shape = [ELEMENTS as u32];
    let mut stream = || {
        client
            .create_stream(&shape, 1)
            .map_err(|e| format!("create_stream: {e}"))
    };
    let streams = [stream()?, stream()?, stream()?];
    let mut s = Session {
        client,
        tenant,
        module,
        streams,
        a: 1.5 + c as f32,
        shadow: Shadow::new()?,
    };
    for k in 0..2 {
        let data = fresh(seed, c, k as u64);
        s.write(k, &data).map_err(|e| format!("write: {e}"))?;
        s.mirror(k, &data);
    }
    Ok(s)
}

/// A loopback listener for the [`Echo`] peers and one connection to it
/// per client.
fn echo_connections() -> Result<(TcpListener, Vec<TcpStream>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("echo address: {e}"))?;
    let conns = (0..CLIENTS)
        .map(|_| {
            let conn = TcpStream::connect(addr)?;
            conn.set_nodelay(true)?;
            Ok(conn)
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("echo connect: {e}"))?;
    Ok((listener, conns))
}

fn start() -> Result<Server, String> {
    let config = ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", config).map_err(|e| format!("server start: {e}"))
}

/// The wire frame of a request or reply payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    brook_serve::wire::write_frame(&mut frame, payload).expect("framing into memory");
    frame
}

/// The raw round trip `ref_ratio` divides run latency by: one peer
/// thread per client, on its own loopback TCP connection, that answers
/// each request-sized frame with a reply-sized one. Only the host's
/// socket and scheduling work is timed, no toolchain code.
struct Echo {
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl Echo {
    /// Answers every request on one accepted connection until the
    /// client closes it.
    fn serve(&self, listener: &TcpListener) {
        let Ok((mut conn, _)) = listener.accept() else {
            return;
        };
        let _ = conn.set_nodelay(true);
        let mut buf = vec![0u8; self.request.len()];
        while conn.read_exact(&mut buf).is_ok() && conn.write_all(&self.reply).is_ok() {}
    }

    /// One timed round trip on `conn`, in milliseconds.
    fn round_trip(&self, conn: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<f64> {
        let t0 = Instant::now();
        conn.write_all(&self.request)?;
        conn.read_exact(&mut buf[..self.reply.len()])?;
        Ok(report::ms_since(t0))
    }
}

/// Encodes, frames, unframes and decodes one run request and its reply.
fn codec_round_trip(req: &Request) {
    let unframe = |frame: Vec<u8>| {
        brook_serve::wire::read_frame(&mut frame.as_slice())
            .expect("unframe")
            .expect("payload")
    };
    crate::trace::span("serve.codec", || {
        let payload = unframe(frame(&req.encode()));
        std::hint::black_box(Request::decode(&payload).expect("request decodes"));
        let payload = unframe(frame(&Response::Ok.encode()));
        std::hint::black_box(Response::decode(&payload).expect("response decodes"));
    });
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    kinds: [Samples; 5],
    /// In-process codec round trips, microseconds.
    codec_us: Vec<f64>,
    /// In-process launches on the shadow, microseconds.
    exec_us: Vec<f64>,
    /// Raw loopback round trips.
    echo: Samples,
    attempted: u64,
    /// Requests that got an error reply or a client error.
    failed: u64,
    /// Correctness-gate violations: shadow or echo failures.
    errors: Vec<String>,
}

fn drive(
    mut s: Session,
    mut probe: TcpStream,
    echo: &Echo,
    seed: u64,
    c: usize,
    budget: &Budget,
) -> (ClientLog, Session) {
    let mut log = ClientLog::default();
    let mut buf = vec![0u8; echo.reply.len()];
    let args = s.args();
    let run_request = s.run_request();
    let mut writes = 2u64;
    let mut i = 0u64;
    while !budget.spent() {
        let kind = kind_of(i);
        crate::trace::set_request(((c as u64) << 40) | i);
        let data = if kind == 2 {
            writes += 1;
            fresh(seed, c, writes)
        } else {
            Vec::new()
        };
        let target = (writes % 2) as usize;
        let t0 = Instant::now();
        let result = match kind {
            0 => crate::trace::span("serve.run", || s.client.run(s.module, "saxpy", &args)),
            1 => crate::trace::span("serve.read", || s.client.read(s.streams[2]).map(drop)),
            2 => s.write(target, &data),
            3 => crate::trace::span("serve.reduce", || {
                s.client.reduce(s.module, "sum", s.streams[2]).map(drop)
            }),
            _ => crate::trace::span("serve.compile", || s.client.compile(SOURCE).map(drop)),
        };
        let ms = report::ms_since(t0);
        log.attempted += 1;
        match result {
            Ok(()) => {
                log.kinds[kind].0.push(ms);
                if kind == 2 {
                    s.mirror(target, &data);
                }
            }
            Err(_) => {
                log.failed += 1;
                log.kinds[kind].0.push(f64::INFINITY);
            }
        }
        if i.is_multiple_of(PROBE_EVERY) {
            match crate::trace::span("net.round_trip", || echo.round_trip(&mut probe, &mut buf)) {
                Ok(ms) => log.echo.0.push(ms),
                Err(e) => log.errors.push(format!("client {c} loopback round trip: {e}")),
            }
            let t0 = Instant::now();
            codec_round_trip(&run_request);
            log.codec_us.push(report::ms_since(t0) * 1e3);
            let t0 = Instant::now();
            let out = crate::trace::span("core.run", || s.shadow.run(s.a));
            log.exec_us.push(report::ms_since(t0) * 1e3);
            if let Err(e) = out {
                log.errors.push(format!("client {c} shadow run: {e}"));
            }
        }
        i += 1;
    }
    (log, s)
}

/// The service gate, at the end of each sub-window: after one more run,
/// each client's `x`, `y`, `r` and `sum(r)` on the server must equal its
/// in-process shadow, bit for bit.
fn verify(s: &mut Session, c: usize) -> Result<(), String> {
    let args = s.args();
    s.client
        .run(s.module, "saxpy", &args)
        .map_err(|e| format!("final run: {e}"))?;
    s.shadow.run(s.a)?;
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for (k, name) in ["x", "y", "r"].iter().enumerate() {
        let got = s
            .client
            .read(s.streams[k])
            .map_err(|e| format!("final read: {e}"))?;
        let want = s
            .shadow
            .ctx
            .read(&s.shadow.streams[k])
            .map_err(|e| e.to_string())?;
        if bits(&got) != bits(&want) {
            return Err(format!(
                "client {c}: stream {name} differs from the in-process oracle"
            ));
        }
    }
    let got = s
        .client
        .reduce(s.module, "sum", s.streams[2])
        .map_err(|e| format!("final reduce: {e}"))?;
    let want = s
        .shadow
        .ctx
        .reduce(&s.shadow.module, "sum", &s.shadow.streams[2])
        .map_err(|e| e.to_string())?;
    if got.to_bits() != want.to_bits() {
        return Err(format!(
            "client {c}: reduce {got} differs from the oracle's {want}"
        ));
    }
    Ok(())
}

/// Server counters summed over the run's server instances.
#[derive(Default)]
struct Counters(std::collections::BTreeMap<String, f64>);

impl Counters {
    fn add(&mut self, stats: Vec<(String, u64)>) {
        for (k, v) in stats {
            *self.0.entry(k).or_default() += v as f64;
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One sub-window: a fresh server and sessions (the timed set-up), the
/// closed loop until `budget` is spent, the bit-exactness check and
/// shutdown. Returns the set-up time, the loop's duration and the
/// client logs.
fn batch(
    seed: u64,
    length: Duration,
    counters: &mut Counters,
    run: &mut Run,
) -> Result<(f64, f64, Vec<ClientLog>), String> {
    let t0 = Instant::now();
    let server = start()?;
    let sessions: Result<Vec<Session>, String> =
        (0..CLIENTS).map(|c| open(server.local_addr(), seed, c)).collect();
    let setup_s = t0.elapsed().as_secs_f64();
    let probes = sessions.and_then(|s| Ok((s, echo_connections()?)));
    let (sessions, (listener, probes)) = match probes {
        Ok(p) => p,
        Err(e) => {
            server.shutdown();
            return Err(e);
        }
    };
    let echo = Echo {
        request: frame(&sessions[0].run_request().encode()),
        reply: frame(&Response::Ok.encode()),
    };
    let budget = Budget::start(length);
    let logs: Vec<(ClientLog, Session)> = std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| echo.serve(&listener));
        }
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(probes)
            .enumerate()
            .map(|(c, (s, probe))| {
                let (budget, echo) = (&budget, &echo);
                scope.spawn(move || drive(s, probe, echo, seed, c, budget))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = budget.elapsed_s();
    let mut out = Vec::new();
    for (c, (log, mut session)) in logs.into_iter().enumerate() {
        if let Err(e) = verify(&mut session, c) {
            run.gate(e);
        }
        out.push(log);
    }
    counters.add(server.stats());
    server.shutdown();
    Ok((setup_s, window_s, out))
}

/// Runs the workload for `window`, split into `batches` sub-windows that
/// each start a fresh server.
pub fn run(seed: u64, window: Duration, traced: bool, batches: u32) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::new();
    let mut counters = Counters::default();
    let mut kinds: [Samples; 5] = Default::default();
    let [mut all, mut codec, mut exec, mut echo]: [Samples; 4] = Default::default();
    let mut elapsed = 0.0;
    for _ in 0..batches {
        let (setup_s, window_s, logs) = match batch(seed, window / batches, &mut counters, &mut run) {
            Ok(b) => b,
            Err(e) => {
                run.gate(e);
                return run;
            }
        };
        elapsed += window_s;
        setups.push(setup_s);
        for log in logs {
            run.attempted += log.attempted;
            run.failed += log.failed;
            codec.0.extend(log.codec_us.iter().map(|us| us / 1e3));
            exec.0.extend(log.exec_us.iter().map(|us| us / 1e3));
            echo.0.extend(&log.echo.0);
            for e in log.errors {
                run.gate(e);
            }
            for (k, s) in log.kinds.iter().enumerate() {
                kinds[k].0.extend(&s.0);
                all.0.extend(&s.0);
            }
        }
    }
    if counters.get("panics") > 0.0 {
        run.gate(format!("server caught {} panics", counters.get("panics")));
    }
    let sum = report::summarize(&[&all], TAIL_PCT);
    run.e2e = EndToEnd {
        setup_s: crate::stats::median(&setups),
        // Medians, not 10th percentiles: the round trip's fast end is
        // steady, but the runs' fast end moved 25% between runs on the
        // reference host where their medians' ratio moved half as much.
        ref_ratio: report::ratio_at(&[(&all, &echo)], 50.0),
        tail_ratio: report::ratio_at(&[(&all, &echo)], RATIO_TAIL_PCT),
        tail_pct: RATIO_TAIL_PCT,
    };
    run.named.push("serve_p50_us", sum.p50_ms * 1e3, "us");
    run.named.push("serve_p99_us", sum.tail_ms * 1e3, "us");
    run.named
        .push("serve_rps", (run.attempted - run.failed) as f64 / elapsed, "1/s");
    if traced {
        let run_p50_us = kinds[0].median() * 1e3;
        let (codec_us, exec_us) = (codec.median() * 1e3, exec.median() * 1e3);
        for (k, name) in KINDS.iter().enumerate() {
            run.layers
                .push(format!("serve.{name}_p50_us"), kinds[k].median() * 1e3, "us");
        }
        run.layers.push("serve.codec_us", codec_us, "us");
        run.layers.push("serve.exec_us", exec_us, "us");
        run.layers
            .push("serve.overhead_us", run_p50_us - exec_us - codec_us, "us");
        let c = &counters;
        run.layers.push(
            "serve.busy_share",
            c.get("busy_rejected") / c.get("requests"),
            "ratio",
        );
        let lookups = c.get("cache_hits") + c.get("cache_misses");
        run.layers
            .push("serve.cache_hit_ratio", c.get("cache_hits") / lookups, "ratio");
        run.layers.push(
            "serve.coalesced_share",
            c.get("coalesced_runs") / c.get("runs"),
            "ratio",
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_per_fifty_requests() {
        let mut count = [0; 5];
        for i in 0..50 {
            count[kind_of(i)] += 1;
        }
        assert_eq!(count, [40, 4, 4, 1, 1], "run, read, write, reduce, compile");
        let runs_before_first_read = (0..)
            .take_while(|i| kind_of(*i) != 1)
            .filter(|i| kind_of(*i) == 0);
        assert_eq!(runs_before_first_read.count(), 10);
    }
}
