//! The `suite` workload: the paper's eleven apps end to end, from source
//! text to read-back (`PaperApp::run_gpu`), on the serial `cpu` backend
//! and on `cpu-parallel` with two workers, with each app's hand-written
//! reference (`PaperApp::run_cpu`) timed in the same process as the
//! native ceiling. Per-element execution on the `ir` tiers dominates;
//! the multi-pass apps add fixed launch cost.

use crate::backend::{Tally, TallyHandle, Timed};
use crate::report::{self, Budget, EndToEnd, Run, Samples};
use crate::stats;
use brook_apps::PaperApp;
use brook_auto::{Arg, BackendExecutor, BrookContext, CertConfig, CpuBackend, ParallelCpuBackend};
use std::time::{Duration, Instant};

/// Per-app tail percentile: a run makes about 25 rounds, so each app
/// has a few runs beyond its 90th percentile.
const TAIL_PCT: f64 = 90.0;
/// Worker threads of the parallel backend: fixed rather than taken from
/// the machine, so results do not depend on its core count.
const PAR_WORKERS: usize = 2;

/// The size each app runs at: large enough that execution, not
/// compilation, dominates every run, and small enough that one round of
/// all apps on both backends stays under a second.
pub fn size_of(app: &str) -> usize {
    match app {
        "flops" => 64,
        "binomial" => 256,
        "black_scholes" => 256,
        "prefix_sum" => 256,
        "spmv" => 1024,
        "binary_search" => 256,
        "bitonic_sort" => 64,
        "floyd_warshall" => 64,
        "image_filter" => 512,
        "mandelbrot" => 128,
        "sgemm" => 128,
        other => panic!("no suite size for app `{other}`"),
    }
}

/// Apps whose `run_cpu` uses a different algorithm from the kernel
/// (bitonic_sort's reference calls `sort_by`), so the native gap
/// would compare algorithms rather than execution engines.
fn same_algorithm(app: &str) -> bool {
    app != "bitonic_sort"
}

/// The two measured backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Serial `CpuBackend`.
    Cpu,
    /// `ParallelCpuBackend` with [`PAR_WORKERS`] workers.
    Par,
}

impl Engine {
    /// Short label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Cpu => "cpu",
            Engine::Par => "par",
        }
    }

    fn backend(self) -> Box<dyn BackendExecutor + Send> {
        match self {
            Engine::Cpu => Box::new(CpuBackend::new()),
            Engine::Par => Box::new(ParallelCpuBackend::with_workers(PAR_WORKERS)),
        }
    }

    /// A fresh context; traced contexts time every backend call.
    pub fn context(self, traced: bool) -> (BrookContext, Option<TallyHandle>) {
        if traced {
            let (timed, tally) = Timed::new(self.backend());
            (
                BrookContext::with_backend(Box::new(timed), CertConfig::default()),
                Some(tally),
            )
        } else {
            (
                BrookContext::with_backend(self.backend(), CertConfig::default()),
                None,
            )
        }
    }
}

/// Per-app measurements.
struct AppRow {
    app: Box<dyn PaperApp>,
    size: usize,
    seed: u64,
    reference: Vec<f32>,
    cpu: Samples,
    par: Samples,
    native: Samples,
    /// Backend tallies of traced runs, per engine.
    tallies: [Vec<(Tally, f64)>; 2],
}

fn rows(seed: u64) -> Vec<AppRow> {
    brook_apps::all_apps()
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let (size, seed) = (size_of(app.name()), seed.wrapping_add(i as u64));
            AppRow {
                reference: app.run_cpu(size, seed),
                app,
                size,
                seed,
                cpu: Samples::default(),
                par: Samples::default(),
                native: Samples::default(),
                tallies: [Vec::new(), Vec::new()],
            }
        })
        .collect()
}

/// The set-up a sub-window starts from: a `cpu` and a `cpu-parallel`
/// context each compile every app kernel. The reference outputs depend
/// only on the seed, so they are computed once per run, in [`rows`].
fn setup() -> Result<(), String> {
    for engine in [Engine::Cpu, Engine::Par] {
        let (mut ctx, _) = engine.context(false);
        for (app, source) in brook_bench::analysis::app_sources() {
            ctx.compile(&source)
                .map_err(|e| format!("{app}: compile failed: {e}"))?;
        }
    }
    Ok(())
}

/// One round: every app on both backends (in `order`) and natively.
fn round(rows: &mut [AppRow], order: [Engine; 2], traced: bool, request: &mut u64, run: &mut Run) {
    for row in rows {
        let mut outputs: Vec<(Engine, Vec<f32>)> = Vec::new();
        for engine in order {
            *request += 1;
            crate::trace::set_request(*request);
            run.attempted += 1;
            let (mut ctx, tally) = engine.context(traced);
            let t0 = Instant::now();
            let result = crate::trace::span("app.run_gpu", || row.app.run_gpu(&mut ctx, row.size, row.seed));
            let ms = report::ms_since(t0);
            match result {
                Ok(out) => outputs.push((engine, out)),
                Err(e) => {
                    run.failed += 1;
                    run.gate(format!("{} on {}: {e}", row.app.name(), engine.label()));
                    continue;
                }
            }
            match engine {
                Engine::Cpu => row.cpu.0.push(ms),
                Engine::Par => row.par.0.push(ms),
            }
            if let Some(t) = tally {
                let t = *t.lock().expect("tally lock poisoned");
                row.tallies[engine as usize].push((t, ms));
            }
        }
        let t0 = Instant::now();
        let native = crate::trace::span("app.run_cpu", || row.app.run_cpu(row.size, row.seed));
        row.native.0.push(report::ms_since(t0));
        std::hint::black_box(native);
        verify(row, &outputs, run);
    }
}

/// Runs the workload for `window`, split into `batches` sub-windows that
/// each start from a fresh, timed set-up.
pub fn run(seed: u64, window: Duration, traced: bool, batches: u32) -> Run {
    let mut run = Run::default();
    let mut rows = rows(seed);
    let mut setups = Vec::new();
    let (mut rounds, mut request) = (0usize, 0u64);
    for _ in 0..batches {
        let t0 = Instant::now();
        if let Err(e) = setup() {
            run.gate(e);
            return run;
        }
        setups.push(t0.elapsed().as_secs_f64());
        let budget = Budget::start(window / batches);
        let first = rounds;
        while rounds == first || !budget.spent() {
            // Alternate which backend runs first, so drift in the host
            // does not favour one of them.
            let order = if rounds % 2 == 0 {
                [Engine::Cpu, Engine::Par]
            } else {
                [Engine::Par, Engine::Cpu]
            };
            round(&mut rows, order, traced, &mut request, &mut run);
            rounds += 1;
        }
    }
    // The end-to-end figures time the serial backend. On a 2-vCPU host
    // shared with other tenants the 2-worker backend needs both vCPUs at
    // once: in one busy phase its median rose 45% where the serial
    // backend's rose 15%. It is still run, gated and reported
    // (`suite_par_ms`, `cpu_parallel.speedup`).
    let kinds: Vec<&Samples> = rows.iter().map(|r| &r.cpu).collect();
    let sum = report::summarize(&kinds, TAIL_PCT);
    // Every app against its own reference. bitonic_sort's reference
    // sorts with another algorithm, which does not matter for a divisor
    // that only has to move with the host; `native_gap` leaves it out.
    let pairs: Vec<(&Samples, &Samples)> = rows.iter().map(|r| (&r.cpu, &r.native)).collect();
    run.e2e = EndToEnd {
        setup_s: stats::median(&setups),
        ref_ratio: report::ratio_at(&pairs, report::LOW_PCT),
        tail_ratio: report::ratio_at(&pairs, sum.tail_pct),
        tail_pct: sum.tail_pct,
    };
    let same: Vec<&AppRow> = rows.iter().filter(|r| same_algorithm(r.app.name())).collect();
    let geo = |f: fn(&AppRow) -> f64| stats::geomean(&rows.iter().map(f).collect::<Vec<_>>());
    let (cpu_ms, par_ms) = (geo(|r| r.cpu.median()), geo(|r| r.par.median()));
    run.named.push("suite_cpu_ms", cpu_ms, "ms");
    run.named.push("suite_par_ms", par_ms, "ms");
    let gaps: Vec<f64> = same.iter().map(|r| r.cpu.median() / r.native.median()).collect();
    run.named.push("native_gap", stats::geomean(&gaps), "x");
    if traced {
        layers(&mut run, &rows, cpu_ms / par_ms);
    }
    run
}

/// The suite gates: every output within the app's tolerance of its
/// reference, and `cpu-parallel` bit-identical to `cpu`.
fn verify(row: &AppRow, outputs: &[(Engine, Vec<f32>)], run: &mut Run) {
    let name = row.app.name();
    for (engine, out) in outputs {
        if let Err(m) = brook_apps::framework::validate(&row.reference, out, row.app.tolerance()) {
            run.gate(format!(
                "{name} on {}: diverged from run_cpu: {m}",
                engine.label()
            ));
        }
    }
    if let [(_, a), (_, b)] = outputs {
        if a.iter().map(|v| v.to_bits()).ne(b.iter().map(|v| v.to_bits())) {
            run.gate(format!("{name}: cpu-parallel is not bit-identical to cpu"));
        }
    }
}

fn layers(run: &mut Run, rows: &[AppRow], speedup: f64) {
    for engine in [Engine::Cpu, Engine::Par] {
        let e = engine as usize;
        let l = engine.label();
        // Per app, the median run's share of each backend call; summed
        // over apps, that is one round's worth.
        let per_round = |f: fn(&Tally, f64) -> f64| -> f64 {
            rows.iter()
                .map(|r| stats::median(&r.tallies[e].iter().map(|(t, ms)| f(t, *ms)).collect::<Vec<_>>()))
                .sum()
        };
        run.layers.push(
            format!("core.dispatch_ms.{l}"),
            per_round(|t, _| t.dispatch_ns as f64 / 1e6),
            "ms",
        );
        run.layers.push(
            format!("core.host_ms.{l}"),
            per_round(|t, ms| ms - t.backend_ns() as f64 / 1e6),
            "ms",
        );
        run.layers.push(
            format!("core.write_ms.{l}"),
            per_round(|t, _| t.write_ns as f64 / 1e6),
            "ms",
        );
        run.layers.push(
            format!("core.read_ms.{l}"),
            per_round(|t, _| t.read_ns as f64 / 1e6),
            "ms",
        );
        if engine == Engine::Cpu {
            run.layers
                .push("core.launches", per_round(|t, _| t.launches as f64), "count");
            run.layers
                .push("core.elements", per_round(|t, _| t.elements as f64), "count");
        }
        let probe = probe(engine);
        run.layers
            .push(format!("core.reduce_ms.{l}"), probe.reduce_ms, "ms");
        run.layers
            .push(format!("ir.ns_per_elem.{l}"), probe.ns_per_elem, "ns");
        run.layers
            .push(format!("core.launch_fixed_us.{l}"), probe.fixed_us, "us");
    }
    run.layers.push("cpu_parallel.speedup", speedup, "x");
    for r in rows {
        let name = r.app.name();
        run.layers
            .push(format!("suite.{name}.cpu_ms"), r.cpu.median(), "ms");
        run.layers
            .push(format!("suite.{name}.par_ms"), r.par.median(), "ms");
        run.layers
            .push(format!("suite.{name}.native_ms"), r.native.median(), "ms");
    }
}

const SAXPY: &str = "kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }
                     reduce void sum(float a<>, reduce float r<>) { r += a; }";
/// Launches per size in the slope probe.
const PROBE_REPS: usize = 31;
const SMALL: usize = 256;
const LARGE: usize = 65536;

struct Probe {
    ns_per_elem: f64,
    fixed_us: f64,
    reduce_ms: f64,
}

/// Launch-cost probe through `ctx.run`: the fixed cost of a one-element
/// saxpy, the per-element slope between 256 and 65536 elements, and a
/// 65536-element `sum` reduce (no paper app reduces).
fn probe(engine: Engine) -> Probe {
    let (mut ctx, _) = engine.context(true);
    let module = ctx.compile(SAXPY).expect("saxpy probe compiles");
    let streams = |ctx: &mut BrookContext, n: usize| {
        let s: Vec<_> = (0..3).map(|_| ctx.stream(&[n]).expect("probe stream")).collect();
        let data: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.25).collect();
        ctx.write(&s[0], &data).expect("probe write");
        ctx.write(&s[1], &data).expect("probe write");
        s
    };
    let sizes = [1, SMALL, LARGE];
    let sets: Vec<_> = sizes.iter().map(|&n| streams(&mut ctx, n)).collect();
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    let mut reduce = Vec::new();
    for _ in 0..PROBE_REPS {
        for (k, s) in sets.iter().enumerate() {
            let args = [
                Arg::Stream(&s[0]),
                Arg::Stream(&s[1]),
                Arg::Float(1.5),
                Arg::Stream(&s[2]),
            ];
            let t0 = Instant::now();
            crate::trace::span("core.run", || ctx.run(&module, "saxpy", &args)).expect("probe run");
            times[k].push(t0.elapsed().as_nanos() as f64);
        }
        let t0 = Instant::now();
        let v = crate::trace::span("core.reduce_call", || ctx.reduce(&module, "sum", &sets[2][2]));
        std::hint::black_box(v.expect("probe reduce"));
        reduce.push(report::ms_since(t0));
    }
    let m: Vec<f64> = times.iter().map(|t| stats::median(t)).collect();
    Probe {
        ns_per_elem: (m[2] - m[1]) / (LARGE - SMALL) as f64,
        fixed_us: m[0] / 1e3,
        reduce_ms: stats::median(&reduce),
    }
}
