//! The `compile` workload: `BrookContext::compile` alone, over a corpus
//! of the paper apps' kernels, seeded generated kernels and about 10%
//! programs the certification gate must refuse. The `lang`, `cert` and
//! `ir` planning layers do all the work; no kernel is executed.

use crate::phases::{self, Verdict, PHASES};
use crate::report::{self, Budget, EndToEnd, Run, Samples};
use crate::stats;
use brook_auto::brook_ir::simd::SimdMode;
use brook_auto::{BrookContext, BrookError, CertConfig};
use brook_cert::RuleId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Generated kernels per corpus; plus 11 app kernels, 4 sgemm
/// variants and [`REJECTED`] refused programs.
const GENERATED: u32 = 200;
/// Non-compliant programs per corpus (about 10% of it).
const REJECTED: u32 = 24;
/// Percentile of each program's repeated compile times that
/// `compile_p99_us` reports. Beyond the 90th, one program's compile
/// times swung several-fold between runs on a shared 2-vCPU host.
const TAIL_PCT: f64 = 90.0;
/// The share of the corpus `tail_ratio` covers: the programs whose
/// compile is slowest against their reference. Compiling one program is
/// the same work every time, so the tail over repetitions measures the
/// host; the tail over programs measures the compiler.
const TAIL_SHARE: f64 = 0.1;

/// The known answer for a corpus program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Certifiable: must compile.
    Accept,
    /// Must be refused with this rule among the violations.
    Reject(RuleId),
}

/// One corpus program.
#[derive(Debug, Clone)]
pub struct Item {
    /// Stable name for reports.
    pub name: String,
    /// Brook source text.
    pub source: String,
    /// Known verdict.
    pub expect: Expect,
}

/// The compile corpus for `seed`, in a seeded order.
pub fn corpus(seed: u64) -> Vec<Item> {
    let accept = |name: String, source: String| Item {
        name,
        source,
        expect: Expect::Accept,
    };
    let mut items: Vec<Item> = brook_bench::analysis::app_sources()
        .into_iter()
        .map(|(app, src)| accept(app.to_string(), src))
        .collect();
    for n in [16, 32, 64, 128] {
        items.push(accept(format!("sgemm_{n}"), brook_apps::sgemm::kernel_source(n)));
    }
    let cfg = brook_fuzz::GenConfig::default();
    for i in 0..GENERATED {
        let case = brook_fuzz::gen_case(seed, i, &cfg);
        items.push(accept(case.name, case.source));
    }
    let cert = CertConfig::default();
    for i in 0..REJECTED {
        let (_, source, rule) = brook_fuzz::gen_noncompliant(seed, i, &cert);
        items.push(Item {
            name: format!("reject_{seed}_{i}_{}", rule.code()),
            source,
            expect: Expect::Reject(rule),
        });
    }
    // Seeded Fisher-Yates so accepted and rejected programs interleave.
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
    items
}

/// Checks one `compile` result against the known answer.
fn check(item: &Item, result: &Result<brook_auto::BrookModule, BrookError>) -> Result<(), String> {
    match (item.expect, result) {
        (Expect::Accept, Ok(_)) => Ok(()),
        (Expect::Reject(rule), Err(BrookError::Certification(r))) if brook_cert::violates(r, rule) => Ok(()),
        (expect, Err(e)) => Err(format!("{}: expected {expect:?}, got error: {e}", item.name)),
        (expect, Ok(_)) => Err(format!("{}: expected {expect:?}, but it compiled", item.name)),
    }
}

/// The set-up a sub-window starts from: compile and check every program
/// once on a fresh context.
fn setup(items: &[Item]) -> Result<BrookContext, String> {
    let mut ctx = BrookContext::cpu();
    for item in items {
        check(item, &ctx.compile(&item.source))?;
    }
    Ok(ctx)
}

/// The reference `ref_ratio` divides by: a fixed hand-written pass over
/// the source text that splits it into identifier, number and
/// punctuation tokens, interns the identifiers and tracks bracket
/// depth. It calls no toolchain code, so a change in the toolchain
/// cannot move it; it moves with the host, as compiling does.
fn text_pass(source: &str) -> u64 {
    let bytes = source.as_bytes();
    let mut names: HashMap<&str, u64> = HashMap::new();
    let mut tokens: Vec<u64> = Vec::new();
    let (mut i, mut depth) = (0usize, 0u64);
    while i < bytes.len() {
        let b = bytes[i];
        let start = i;
        i += 1;
        if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let next = names.len() as u64;
            tokens.push(*names.entry(&source[start..i]).or_insert(next));
        } else if b.is_ascii_digit() {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'.') {
                i += 1;
            }
            tokens.push(u64::MAX);
        } else if !b.is_ascii_whitespace() {
            match b {
                b'(' | b'{' | b'[' | b'<' => depth += 1,
                b')' | b'}' | b']' | b'>' => depth = depth.saturating_sub(1),
                _ => {}
            }
            tokens.push((u64::from(b) << 32) | depth);
        }
    }
    tokens
        .iter()
        .fold(names.len() as u64, |h, t| (h ^ t).wrapping_mul(0x0100_0000_01b3))
}

/// Runs the workload for `window`, split into `batches` sub-windows that
/// each start from a fresh, timed set-up. A traced run also replays the
/// first pass phase by phase for the per-layer figures.
pub fn run(seed: u64, window: Duration, traced: bool, batches: u32) -> Run {
    let mut run = Run::default();
    let mut setups = Vec::new();
    let items = corpus(seed);
    // Per corpus program: `compile` and reference pass times.
    let mut compile: Vec<Samples> = vec![Samples::default(); items.len()];
    let mut reference: Vec<Samples> = vec![Samples::default(); items.len()];
    let mut replicas = Vec::new();
    let mut adopt_us = Vec::new();
    let mut passes = 0usize;
    for _ in 0..batches {
        let t0 = Instant::now();
        let mut ctx = match setup(&items) {
            Ok(s) => s,
            Err(e) => {
                run.gate(e);
                return run;
            }
        };
        setups.push(t0.elapsed().as_secs_f64());
        let budget = Budget::start(window / batches);
        let first = passes;
        while passes == first || !budget.spent() {
            for (i, item) in items.iter().enumerate() {
                crate::trace::set_request(i as u64 + 1);
                run.attempted += 1;
                let t0 = Instant::now();
                let result = crate::trace::span("core.compile", || ctx.compile(&item.source));
                compile[i].0.push(report::ms_since(t0));
                if let Err(e) = check(item, &result) {
                    run.failed += 1;
                    run.gate(e);
                }
                let t0 = Instant::now();
                std::hint::black_box(text_pass(std::hint::black_box(&item.source)));
                reference[i].0.push(report::ms_since(t0));
                if traced && passes == 0 {
                    replicas.push(replay(&mut ctx, item, &mut adopt_us, &mut run));
                }
            }
            passes += 1;
        }
    }
    let kinds: Vec<&Samples> = compile.iter().collect();
    let sum = report::summarize(&kinds, TAIL_PCT);
    let low = |s: &Samples| stats::percentile(&stats::sorted(&s.0), report::LOW_PCT);
    let ratios: Vec<f64> = compile
        .iter()
        .zip(&reference)
        .map(|(c, r)| low(c) / low(r))
        .collect();
    run.e2e = EndToEnd {
        setup_s: stats::median(&setups),
        ref_ratio: stats::geomean(&ratios),
        tail_ratio: stats::top_geomean(&ratios, TAIL_SHARE),
        tail_pct: (100.0 * (1.0 - TAIL_SHARE)).round(),
    };
    run.named.push("compile_p50_us", sum.p50_ms * 1e3, "us");
    run.named.push("compile_p99_us", sum.tail_ms * 1e3, "us");
    if traced {
        layers(&mut run, &replicas, &adopt_us);
    }
    run
}

/// Replays one program phase by phase, checks the replica agrees with
/// the real pipeline, and times adopting its artifact.
fn replay(ctx: &mut BrookContext, item: &Item, adopt_us: &mut Vec<f64>, run: &mut Run) -> phases::Replica {
    let simd = SimdMode::Auto.resolve();
    let replica = phases::compile(&item.source, ctx.cert_config(), simd);
    let accepted = matches!(replica.verdict, Verdict::Accept(_));
    if accepted != (item.expect == Expect::Accept) {
        run.gate(format!(
            "{}: phase replica verdict {:?}",
            item.name, replica.verdict
        ));
    }
    if let Ok(artifact) = ctx.compile_artifact(&item.source) {
        let t0 = Instant::now();
        let adopted = crate::trace::span("core.adopt", || ctx.adopt_artifact(&artifact));
        adopt_us.push(report::ms_since(t0) * 1e3);
        if let Err(e) = adopted {
            run.gate(format!("{}: adopt_artifact failed: {e}", item.name));
        }
    }
    replica
}

fn layers(run: &mut Run, replicas: &[phases::Replica], adopt_us: &[f64]) {
    let accepted: Vec<&phases::Replica> = replicas
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Accept(_)))
        .collect();
    for (i, phase) in PHASES.iter().enumerate() {
        let us: Vec<f64> = accepted
            .iter()
            .filter_map(|r| r.phase_ns[i])
            .map(|ns| ns as f64 / 1e3)
            .collect();
        run.layers.push(format!("{phase}_us"), stats::median(&us), "us");
    }
    run.layers.push("core.adopt_us", stats::median(adopt_us), "us");
    let rejected: Vec<f64> = replicas
        .iter()
        .filter(|r| !matches!(r.verdict, Verdict::Accept(_)))
        .map(|r| r.total_ns as f64 / 1e3)
        .collect();
    run.layers.push("cert.reject_us", stats::median(&rejected), "us");
    let sum = |f: fn(&phases::Replica) -> usize| accepted.iter().map(|r| f(r)).sum::<usize>() as f64;
    run.layers
        .push("ir.insts_lowered", sum(|r| r.insts_lowered), "count");
    run.layers
        .push("ir.insts_optimized", sum(|r| r.insts_optimized), "count");
    run.layers
        .push("cert.passes_applied", sum(|r| r.passes_applied), "count");
    let ratio = |f: fn(&phases::Replica) -> (usize, usize)| {
        let (a, b) = accepted.iter().fold((0, 0), |(a, b), r| {
            let (x, y) = f(r);
            (a + x, b + y)
        });
        a as f64 / b as f64
    };
    run.layers
        .push("cert.gather_elided_ratio", ratio(|r| r.gathers), "ratio");
    run.layers
        .push("ir.lane_admit_ratio", ratio(|r| r.lanes), "ratio");
    run.layers
        .push("ir.tier_admit_ratio", ratio(|r| r.tiers), "ratio");
}
