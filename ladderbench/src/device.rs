//! The `device` workload: the eleven apps at small sizes, plus three
//! producer→consumer pipelines run eagerly and through the fusing
//! stream graph, all on `gles2-packed` (the paper's VideoCore IV
//! target, packed RGBA8 storage). It is the only workload in which
//! `codegen`, `glsl`, the `gles2` simulator and graph fusion do the
//! work.

use crate::phases;
use crate::report::{self, Budget, EndToEnd, Run, Samples};
use crate::stats;
use brook_apps::{flops, image_filter, mandelbrot, PaperApp};
use brook_auto::{Arg, BrookContext, BrookError, DeviceProfile, GraphReport, StorageMode, Stream};
use brook_codegen::KernelShapes;
use perf_model::GpuRun;
use std::time::{Duration, Instant};

/// Per-item tail percentile: a run makes about 25 rounds, so each item
/// has a few runs beyond its 90th percentile.
const TAIL_PCT: f64 = 90.0;
/// Relative tolerance between eager and fused chain outputs on the
/// packed device: both paths use the same storage format, and fusion
/// only removes the intermediate RGBA8 round trips.
const FUSION_TOLERANCE: f32 = 1e-3;
/// `run_cpu` calls per timed native sample: at device sizes one call
/// takes microseconds.
const NATIVE_REPS: usize = 16;
/// Code generation and shader parse repetitions per kernel output.
const EMIT_REPS: usize = 5;

/// Device sizes: the simulator shades every fragment through the GLSL
/// interpreter, so these are far below the suite's.
fn size_of(app: &str) -> usize {
    match app {
        "binomial" => 4,
        "flops" | "bitonic_sort" | "floyd_warshall" => 8,
        _ => 16,
    }
}

fn device() -> BrookContext {
    BrookContext::gles2(DeviceProfile::videocore_iv())
}

/// One argument of a chain stage.
#[derive(Clone, Copy)]
enum A {
    /// The previous stage's output (the chain input for stage one).
    Prev,
    /// This stage's output.
    Out,
    F(f32),
    F4([f32; 4]),
}

/// A producer→consumer pipeline over one 2D domain.
pub struct Chain {
    /// Name of the app the chain extends.
    pub name: &'static str,
    shape: [usize; 2],
    source: String,
    stages: Vec<(&'static str, Vec<A>)>,
}

const THRESH: &str =
    "kernel void thresh(float a<>, float lim, out float o<>) { o = (abs(a) > lim) ? 1.0 : 0.0; }";
const NORM: &str = "kernel void norm(float a<>, float s, out float o<>) { o = a * s; }";
const GAMMA: &str = "kernel void gamma(float a<>, out float o<>) { o = a * a; }";
const OFFSET: &str = "kernel void offset(float a<>, float b, out float o<>) { o = a + b; }";

/// The three pipelines of `brook_bench::fusion::chains()`, at shapes
/// small enough for many rounds per run (that module fixes its shapes
/// at 64² to 128², several seconds per round on the simulator).
pub fn chains() -> Vec<Chain> {
    let w = image_filter::SOBEL_X;
    let (x0, y0, _, _) = mandelbrot::REGION;
    let m = 16usize;
    vec![
        Chain {
            name: "image_filter",
            shape: [32, 32],
            source: format!("{}\n{THRESH}", image_filter::KERNEL),
            stages: vec![
                (
                    "conv3x3",
                    vec![
                        A::Prev,
                        A::F4([w[0], w[1], w[2], w[3]]),
                        A::F4([w[4], w[5], w[6], w[7]]),
                        A::F(w[8]),
                        A::Out,
                    ],
                ),
                ("thresh", vec![A::Prev, A::F(0.5), A::Out]),
            ],
        },
        Chain {
            name: "mandelbrot",
            shape: [m, m],
            source: format!("{}\n{NORM}\n{GAMMA}", mandelbrot::kernel_source()),
            stages: vec![
                (
                    "mandelbrot",
                    vec![
                        A::F(x0),
                        A::F(y0),
                        A::F(3.5 / m as f32),
                        A::F(2.5 / m as f32),
                        A::Out,
                    ],
                ),
                (
                    "norm",
                    vec![A::Prev, A::F(1.0 / mandelbrot::MAX_ITER as f32), A::Out],
                ),
                ("gamma", vec![A::Prev, A::Out]),
            ],
        },
        Chain {
            name: "flops",
            shape: [32, 32],
            source: format!("{}\n{NORM}\n{OFFSET}", flops::Flops { iters: 16 }.kernel_source()),
            stages: vec![
                ("flops", vec![A::Prev, A::Prev, A::Out]),
                ("norm", vec![A::Prev, A::F(1.0e-3), A::Out]),
                ("offset", vec![A::Prev, A::F(1.0), A::Out]),
            ],
        },
    ]
}

fn chain_input(n: usize, seed: u64) -> Vec<f32> {
    brook_apps::framework::gen_values(seed, n, 0.0, 1.0)
}

fn args<'a>(spec: &[A], prev: &'a Stream, out: &'a Stream) -> Vec<Arg<'a>> {
    spec.iter()
        .map(|a| match a {
            A::Prev => Arg::Stream(prev),
            A::Out => Arg::Stream(out),
            A::F(f) => Arg::Float(*f),
            A::F4(v) => Arg::Float4(*v),
        })
        .collect()
}

/// Runs `chain` on a fresh device context, eagerly or recorded into a
/// graph and fused; returns the output, the fused plan's report and the
/// device counters.
fn run_chain(
    chain: &Chain,
    fused: bool,
    input: &[f32],
) -> Result<(Vec<f32>, Option<GraphReport>, GpuRun), BrookError> {
    let mut ctx = device();
    let shape = chain.shape;
    let first = ctx.stream(&shape)?;
    ctx.write(&first, input)?;
    let out = ctx.stream(&shape)?;
    let last = chain.stages.len() - 1;
    let report = if fused {
        let mut g = ctx.graph();
        let module = g.compile(&chain.source)?;
        let mut prev = first;
        for (i, (kernel, spec)) in chain.stages.iter().enumerate() {
            let dst = if i == last { out } else { g.stream(&shape)? };
            g.run(&module, kernel, &args(spec, &prev, &dst))?;
            prev = dst;
        }
        Some(crate::trace::span("graph.execute", || g.execute())?)
    } else {
        let module = ctx.compile(&chain.source)?;
        let mut prev = first;
        for (i, (kernel, spec)) in chain.stages.iter().enumerate() {
            let dst = if i == last { out } else { ctx.stream(&shape)? };
            ctx.run(&module, kernel, &args(spec, &prev, &dst))?;
            prev = dst;
        }
        None
    };
    let output = ctx.read(&out)?;
    Ok((output, report, ctx.gpu_counters()))
}

struct AppRow {
    app: Box<dyn PaperApp>,
    size: usize,
    seed: u64,
    reference: Vec<f32>,
    gles2: Samples,
    /// `run_cpu` time per call, over [`NATIVE_REPS`] calls.
    native: Samples,
}

struct ChainRow {
    chain: Chain,
    input: Vec<f32>,
    eager: Samples,
    fused: Samples,
}

fn rows(seed: u64) -> (Vec<AppRow>, Vec<ChainRow>) {
    let apps = brook_apps::all_apps()
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let (size, seed) = (size_of(app.name()), seed.wrapping_add(i as u64));
            AppRow {
                reference: app.run_cpu(size, seed),
                app,
                size,
                seed,
                gles2: Samples::default(),
                native: Samples::default(),
            }
        })
        .collect();
    let chains = chains()
        .into_iter()
        .enumerate()
        .map(|(i, chain)| ChainRow {
            input: chain_input(chain.shape[0] * chain.shape[1], seed.wrapping_add(100 + i as u64)),
            chain,
            eager: Samples::default(),
            fused: Samples::default(),
        })
        .collect();
    (apps, chains)
}

/// The set-up a sub-window starts from: a device context compiles every
/// item's kernels. The reference outputs depend only on the seed, so
/// they are computed once per run, in [`rows`].
fn setup(chains: &[ChainRow]) -> Result<(), String> {
    let mut ctx = device();
    for (app, source) in brook_bench::analysis::app_sources() {
        ctx.compile(&source)
            .map_err(|e| format!("{app}: compile failed: {e}"))?;
    }
    for c in chains {
        ctx.compile(&c.chain.source)
            .map_err(|e| format!("{} chain: compile failed: {e}", c.chain.name))?;
    }
    Ok(())
}

/// Device counters and graph figures of one round.
#[derive(Default)]
struct RoundCounts {
    gpu: GpuRun,
    passes_eager: u64,
    passes_fused: u64,
    bytes_elided: u64,
}

fn add(acc: &mut GpuRun, g: &GpuRun) {
    acc.draw_calls += g.draw_calls;
    acc.fragments += g.fragments;
    acc.tex_fetches += g.tex_fetches;
    acc.alu_ops += g.alu_ops;
    acc.bytes_uploaded += g.bytes_uploaded;
    acc.bytes_downloaded += g.bytes_downloaded;
}

/// One round: every app on the device and natively (`run_cpu`), every
/// chain eager and fused. Returns the round's device counters and graph figures.
fn round(apps: &mut [AppRow], chains: &mut [ChainRow], request: &mut u64, run: &mut Run) -> RoundCounts {
    let mut counts = RoundCounts::default();
    for row in apps {
        let name = row.app.name();
        *request += 1;
        crate::trace::set_request(*request);
        run.attempted += 1;
        let mut ctx = device();
        let t0 = Instant::now();
        let result = crate::trace::span("app.run_gpu", || row.app.run_gpu(&mut ctx, row.size, row.seed));
        let ms = report::ms_since(t0);
        match result {
            Ok(out) => {
                row.gles2.0.push(ms);
                if let Err(m) = brook_apps::framework::validate(&row.reference, &out, row.app.tolerance()) {
                    run.gate(format!("{name} on gles2-packed: diverged from run_cpu: {m}"));
                }
            }
            Err(e) => {
                run.failed += 1;
                run.gate(format!("{name} on gles2-packed: {e}"));
            }
        }
        add(&mut counts.gpu, &ctx.gpu_counters());
        let t0 = Instant::now();
        for _ in 0..NATIVE_REPS {
            std::hint::black_box(row.app.run_cpu(row.size, row.seed));
        }
        row.native.0.push(report::ms_since(t0) / NATIVE_REPS as f64);
    }
    for row in chains {
        let mut outputs = Vec::new();
        for fused in [false, true] {
            *request += 1;
            crate::trace::set_request(*request);
            run.attempted += 1;
            let t0 = Instant::now();
            let result = crate::trace::span("app.chain", || run_chain(&row.chain, fused, &row.input));
            let ms = report::ms_since(t0);
            match result {
                Ok((out, report, gpu)) => {
                    if fused { &mut row.fused } else { &mut row.eager }.0.push(ms);
                    add(&mut counts.gpu, &gpu);
                    if let Some(r) = report {
                        counts.passes_eager += r.eager_passes as u64;
                        counts.passes_fused += r.executed_passes as u64;
                        counts.bytes_elided += r.intermediate_bytes_elided as u64;
                    }
                    outputs.push(out);
                }
                Err(e) => {
                    run.failed += 1;
                    run.gate(format!("{} chain (fused: {fused}): {e}", row.chain.name));
                }
            }
        }
        if let [eager, fused] = &outputs[..] {
            let close = eager.len() == fused.len()
                && eager
                    .iter()
                    .zip(fused)
                    .all(|(a, b)| (a - b).abs() <= FUSION_TOLERANCE * 1.0f32.max(a.abs()));
            if !close {
                run.gate(format!(
                    "{} chain: fused output differs from eager",
                    row.chain.name
                ));
            }
        }
    }
    counts
}

/// Runs the workload for `window`, split into `batches` sub-windows that
/// each start from a fresh, timed set-up.
pub fn run(seed: u64, window: Duration, traced: bool, batches: u32) -> Run {
    let mut run = Run::default();
    let (mut apps, mut chains) = rows(seed);
    let mut counts = RoundCounts::default();
    let mut setups = Vec::new();
    let (mut rounds, mut request) = (0usize, 0u64);
    for _ in 0..batches {
        let t0 = Instant::now();
        if let Err(e) = setup(&chains) {
            run.gate(e);
            return run;
        }
        setups.push(t0.elapsed().as_secs_f64());
        let budget = Budget::start(window / batches);
        let first = rounds;
        while rounds == first || !budget.spent() {
            let c = round(&mut apps, &mut chains, &mut request, &mut run);
            if rounds == 0 {
                counts = c;
            }
            rounds += 1;
        }
    }
    let kinds: Vec<&Samples> = apps
        .iter()
        .map(|r| &r.gles2)
        .chain(chains.iter().flat_map(|c| [&c.eager, &c.fused]))
        .collect();
    let sum = report::summarize(&kinds, TAIL_PCT);
    // Each app against its own `run_cpu`; each chain, eager and fused,
    // against the `run_cpu` of the app whose kernel it starts with.
    let native = |name: &str| {
        &apps
            .iter()
            .find(|r| r.app.name() == name)
            .expect("every chain extends a paper app")
            .native
    };
    let pairs: Vec<(&Samples, &Samples)> = apps
        .iter()
        .map(|r| (&r.gles2, &r.native))
        .chain(chains.iter().flat_map(|c| {
            let n = native(c.chain.name);
            [(&c.eager, n), (&c.fused, n)]
        }))
        .collect();
    run.e2e = EndToEnd {
        setup_s: stats::median(&setups),
        // Medians, not 10th percentiles: a run makes about thirty
        // rounds, and over eight runs the ratio of 10th percentiles
        // ranged 12% where that of medians ranged 3%, also with another
        // busy thread on the host.
        ref_ratio: report::ratio_at(&pairs, 50.0),
        tail_ratio: report::ratio_at(&pairs, sum.tail_pct),
        tail_pct: sum.tail_pct,
    };
    run.named.push("device_ms", sum.p50_ms, "ms");
    if traced {
        let g = &counts.gpu;
        run.layers.push("gles2.draw_calls", g.draw_calls as f64, "count");
        run.layers.push("gles2.fragments", g.fragments as f64, "count");
        run.layers
            .push("gles2.tex_fetches", g.tex_fetches as f64, "count");
        run.layers.push("gles2.alu_ops", g.alu_ops as f64, "count");
        run.layers
            .push("gles2.bytes_up", g.bytes_uploaded as f64, "bytes");
        run.layers
            .push("gles2.bytes_down", g.bytes_downloaded as f64, "bytes");
        let (emit_us, parse_us) = emit_probe(&chains);
        run.layers.push("codegen.emit_us", emit_us, "us");
        run.layers.push("glsl.parse_us", parse_us, "us");
        run.layers
            .push("graph.passes_eager", counts.passes_eager as f64, "count");
        run.layers
            .push("graph.passes_fused", counts.passes_fused as f64, "count");
        run.layers
            .push("graph.bytes_elided", counts.bytes_elided as f64, "bytes");
        for r in &apps {
            run.layers
                .push(format!("device.{}_ms", r.app.name()), r.gles2.median(), "ms");
        }
        for c in &chains {
            run.layers.push(
                format!("device.{}_chain_eager_ms", c.chain.name),
                c.eager.median(),
                "ms",
            );
            run.layers.push(
                format!("device.{}_chain_fused_ms", c.chain.name),
                c.fused.median(),
                "ms",
            );
        }
    }
    run
}

/// Median time of `generate_ir_kernel_shader` (packed storage, 2D
/// shapes) and of parsing the shader it emits, over every output of
/// every map kernel the workload runs.
fn emit_probe(chains: &[ChainRow]) -> (f64, f64) {
    let simd = brook_auto::brook_ir::simd::SimdMode::Auto.resolve();
    let cfg = device().cert_config().clone();
    let sources = brook_bench::analysis::app_sources()
        .into_iter()
        .map(|(_, s)| s)
        .chain(chains.iter().map(|c| c.chain.source.clone()));
    let shapes = KernelShapes::default();
    let (mut emit, mut parse) = (Vec::new(), Vec::new());
    for source in sources {
        let Some(ir) = phases::compile(&source, &cfg, simd).ir else {
            continue;
        };
        for k in ir.kernels.iter().filter(|k| !k.is_reduce) {
            for (_, out) in k.output_params() {
                for _ in 0..EMIT_REPS {
                    let t0 = Instant::now();
                    let shader = crate::trace::span("codegen.emit", || {
                        brook_codegen::generate_ir_kernel_shader(
                            &ir,
                            &k.name,
                            &out.name,
                            &shapes,
                            StorageMode::Packed,
                        )
                    });
                    emit.push(report::ms_since(t0) * 1e3);
                    let Ok(shader) = shader else { continue };
                    let t0 = Instant::now();
                    let unit = crate::trace::span("glsl.parse", || glsl_es::syntax::parse(&shader.glsl));
                    parse.push(report::ms_since(t0) * 1e3);
                    std::hint::black_box(unit.is_ok());
                }
            }
        }
    }
    (stats::median(&emit), stats::median(&parse))
}
