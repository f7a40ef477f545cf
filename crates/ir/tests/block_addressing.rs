//! Non-identity block addressing: the lane engine and Tier-2 (forced
//! scalar and at the host's SIMD level) must match the scalar
//! interpreter bitwise wherever an elementwise input or an `indexof`
//! does not map domain position `p` to element `p` — resampled 2-D
//! streams (larger and smaller than the domain), a 1-D input shorter
//! than the domain (the `min(len - 1)` clamp), a 2-D stream bound in a
//! linear domain — plus every block remainder, sub-ranges that start
//! mid-row (the per-worker chunks of the parallel backend), and element
//! reads under a divergent `if` (partial masks).

use brook_ir::interp::{self, Binding, ExecError};
use brook_ir::lanes::{self, LANES};
use brook_ir::simd::{self, SimdLevel};
use brook_ir::{tier, IrKernel, ParamKind};
use std::ops::Range;

fn lower(src: &str) -> IrKernel {
    let checked = brook_lang::parse_and_check(src).expect("front-end");
    let kdef = checked.program.kernels().next().expect("kernel");
    brook_ir::lower::lower_kernel(&checked, kdef).expect("lower")
}

/// One elementwise input: logical shape, element width and values.
struct Input {
    shape: Vec<usize>,
    width: u8,
    data: Vec<f32>,
}

fn input(shape: &[usize], width: u8, salt: f32) -> Input {
    let len: usize = shape.iter().product::<usize>() * width as usize;
    Input {
        shape: shape.to_vec(),
        width,
        data: (0..len).map(|i| (i as f32 * 0.731 + salt).sin() * 4.0).collect(),
    }
}

/// Runs `src` over `range` of `domain` on engine `engine` (0 scalar, 1
/// lanes, 2 Tier-2 forced scalar, 3 Tier-2 at the host SIMD level,
/// which `BROOK_SIMD` can pin lower).
/// Streams bind in parameter order from `inputs`; every output has
/// width `out_w` and starts from a recognisable non-zero fill, so
/// preload and conditional writes are checked too.
fn run(
    kernel: &IrKernel,
    inputs: &[Input],
    out_w: usize,
    domain: &[usize],
    range: Range<usize>,
    engine: u8,
) -> Result<Vec<Vec<f32>>, ExecError> {
    let lane = lanes::plan(kernel).expect("lane plan");
    let level = if engine == 2 {
        SimdLevel::Scalar
    } else {
        simd::auto()
    };
    let tk = tier::compile_simd(&lane, kernel, None, level).expect("tier compile");
    let mut bindings = Vec::new();
    let mut next_input = inputs.iter();
    let mut n_outs = 0;
    for p in &kernel.params {
        match p.kind {
            ParamKind::Stream => {
                let i = next_input.next().expect("one input per stream parameter");
                bindings.push(Binding::Elem {
                    data: &i.data,
                    shape: &i.shape,
                    width: i.width,
                });
            }
            ParamKind::OutStream => {
                bindings.push(Binding::Out(n_outs));
                n_outs += 1;
            }
            _ => panic!("stream parameters only"),
        }
    }
    let mut bufs: Vec<Vec<f32>> = (0..n_outs)
        .map(|o| {
            (0..range.len() * out_w)
                .map(|i| -7.0 - i as f32 - o as f32 * 0.5)
                .collect()
        })
        .collect();
    {
        let mut outs: Vec<&mut [f32]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        match engine {
            0 => interp::run_kernel_range(kernel, &bindings, &mut outs, domain, range)?,
            1 => lanes::run_kernel_range(&lane, kernel, &bindings, &mut outs, domain, range)?,
            _ => tier::run_kernel_range(&tk, &lane, kernel, &bindings, &mut outs, domain, range)?,
        }
    }
    Ok(bufs)
}

/// The full range plus sub-ranges starting at lane and row offsets.
fn ranges(total: usize) -> Vec<Range<usize>> {
    let subs = [1, 5, LANES - 1, LANES + 3]
        .into_iter()
        .flat_map(|start| [start..total, start..total.saturating_sub(3)]);
    std::iter::once(0..total)
        .chain(subs)
        .filter(|r| !r.is_empty())
        .collect()
}

fn assert_engines_agree(src: &str, inputs: &[Input], out_w: usize, domain: &[usize]) {
    let kernel = lower(src);
    let total: usize = domain.iter().product();
    for range in ranges(total) {
        let want = run(&kernel, inputs, out_w, domain, range.clone(), 0).expect("scalar");
        for engine in 1..=3 {
            let got = run(&kernel, inputs, out_w, domain, range.clone(), engine).expect("engine");
            for (o, (w, g)) in want.iter().zip(&got).enumerate() {
                for (i, (a, b)) in w.iter().zip(g).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "engine {engine} domain {domain:?} range {range:?} output {o} value {i}: \
                         scalar {a} vs {b}\n{src}"
                    );
                }
            }
        }
    }
}

const SCALE: &str = "kernel void k(float a<>, out float o<>) { o = a * 2.5 + 1.0; }";
const SCALE3: &str = "kernel void k(float3 a<>, out float3 o<>) { o = a * 2.5 + a; }";
const WHERE: &str = "kernel void k(float a<>, out float2 o<>) {
    float2 p = indexof(a);
    float2 q = indexof(o);
    o = float2(p.x + q.y * 1000.0 + a, p.y + q.x * 1000.0);
}";

#[test]
fn stream_larger_than_domain_is_resampled() {
    let domain = [6, 21];
    for src in [SCALE, WHERE] {
        assert_engines_agree(
            src,
            &[input(&[13, 47], 1, 0.1)],
            if src == WHERE { 2 } else { 1 },
            &domain,
        );
    }
    assert_engines_agree(SCALE3, &[input(&[13, 47], 3, 0.2)], 3, &domain);
}

#[test]
fn stream_smaller_than_domain_is_resampled() {
    let domain = [6, 21];
    for src in [SCALE, WHERE] {
        assert_engines_agree(
            src,
            &[input(&[3, 5], 1, 0.3)],
            if src == WHERE { 2 } else { 1 },
            &domain,
        );
    }
    assert_engines_agree(SCALE3, &[input(&[3, 5], 3, 0.4)], 3, &domain);
}

#[test]
fn short_one_d_input_clamps_to_its_last_element() {
    for n in [7, 40, 50] {
        assert_engines_agree(SCALE, &[input(&[n - 3], 1, 0.5)], 1, &[n]);
        assert_engines_agree(WHERE, &[input(&[n - 3], 1, 0.6)], 2, &[n]);
        assert_engines_agree(SCALE3, &[input(&[n - 3], 3, 0.7)], 3, &[n]);
    }
    // A 1-D input bound in a 2-D domain addresses by the linear position.
    assert_engines_agree(SCALE, &[input(&[50], 1, 0.8)], 1, &[5, 13]);
    assert_engines_agree(WHERE, &[input(&[50], 1, 0.9)], 2, &[5, 13]);
}

#[test]
fn two_d_stream_in_a_linear_domain() {
    for n in [20, 37, 64] {
        assert_engines_agree(SCALE, &[input(&[4, 9], 1, 1.0)], 1, &[n]);
        assert_engines_agree(WHERE, &[input(&[4, 9], 1, 1.1)], 2, &[n]);
        assert_engines_agree(SCALE3, &[input(&[4, 9], 3, 1.2)], 3, &[n]);
    }
}

#[test]
fn every_block_remainder() {
    for r in 1..=LANES {
        let n = 2 * LANES + r;
        // Identity (contiguous) and clamped inputs, both widths.
        assert_engines_agree(SCALE, &[input(&[n], 1, 1.3)], 1, &[n]);
        assert_engines_agree(SCALE3, &[input(&[n], 3, 1.4)], 3, &[n]);
        assert_engines_agree(SCALE, &[input(&[n / 2], 1, 1.5)], 1, &[n]);
        assert_engines_agree(WHERE, &[input(&[n], 1, 1.6)], 2, &[n]);
        // A 2-D domain whose rows end mid-block.
        assert_engines_agree(SCALE, &[input(&[3, r], 1, 1.7)], 1, &[3, r]);
        assert_engines_agree(WHERE, &[input(&[2, r + 1], 1, 1.8)], 2, &[3, r]);
    }
}

#[test]
fn element_reads_under_a_divergent_if() {
    let src = "kernel void k(float a<>, float3 b<>, out float3 o<>) {
        if (a > 0.5) {
            o = b * 2.0 + b;
        } else if (a < -2.0) {
            o = b - float3(1.0, 2.0, 3.0);
        }
    }";
    for n in [LANES, 3 * LANES + 5] {
        // Contiguous and resampled second input.
        assert_engines_agree(src, &[input(&[n], 1, 1.9), input(&[n], 3, 2.0)], 3, &[n]);
        assert_engines_agree(src, &[input(&[n], 1, 2.1), input(&[n / 3], 3, 2.2)], 3, &[n]);
    }
    assert_engines_agree(
        src,
        &[input(&[6, 21], 1, 2.3), input(&[6, 21], 3, 2.4)],
        3,
        &[6, 21],
    );
    assert_engines_agree(
        src,
        &[input(&[6, 21], 1, 2.5), input(&[13, 4], 3, 2.6)],
        3,
        &[6, 21],
    );
    // Scalar-width reads, one feeding a live-out local: a read under a
    // partial mask must leave the inactive lanes' values alone.
    for src in [
        "kernel void k(float a<>, float b<>, out float o<>) {
            if (a > 0.5) { o = b * 3.0 + 0.5; }
        }",
        "kernel void k(float a<>, float b<>, out float o<>) {
            float t = 9.0;
            if (a > 0.5) { t = b; }
            o = t * 2.0;
        }",
    ] {
        assert_engines_agree(src, &[input(&[45], 1, 2.7), input(&[45], 1, 2.8)], 1, &[45]);
        assert_engines_agree(src, &[input(&[45], 1, 2.9), input(&[17], 1, 3.0)], 1, &[45]);
    }
}
