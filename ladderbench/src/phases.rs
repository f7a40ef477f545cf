//! Phase-by-phase replica of `BrookContext::compile_artifact`.
//!
//! The traced compile run needs the time of each compile phase, and the
//! toolchain does not time its phases itself. This module calls the
//! same public phase functions in the same order, with the same
//! verdict logic, and times each one from outside. The test at the end
//! compares its verdict and pretty-printed IR with the real
//! `BrookContext::compile` over the benchmark's whole compile corpus,
//! so the replica cannot drift from the pipeline it measures.

use crate::trace;
use brook_auto::brook_ir::{self, simd::SimdLevel, Inst, IrProgram};
use brook_auto::{CertConfig, PassAction};
use brook_cert::RuleId;
use std::collections::BTreeSet;
use std::time::Instant;

/// How a compile ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Accepted; carries the pretty-printed final IR.
    Accept(String),
    /// Lexical, syntactic or type error.
    FrontEnd(String),
    /// Refused by the certification gate; the violated rules.
    Cert(BTreeSet<RuleId>),
    /// Internal lowering or re-check failure.
    Internal(String),
}

/// Compile phases in pipeline order; [`Replica::phase_ns`] is indexed
/// the same way.
pub const PHASES: [&str; 10] = [
    "lang.parse",
    "lang.typeck",
    "cert.certify",
    "ir.lower",
    "cert.ir_check",
    "cert.passes",
    "cert.absint",
    "ir.lanes_plan",
    "ir.tier_compile",
    "ir.simd_plan",
];

/// What one replicated compile did and how long each phase took.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The verdict the real pipeline would return.
    pub verdict: Verdict,
    /// Nanoseconds per phase, in [`PHASES`] order; phases after the
    /// verdict was reached stay `None`.
    pub phase_ns: [Option<u64>; 10],
    /// Nanoseconds from the start until the verdict.
    pub total_ns: u64,
    /// Live IR instructions right after lowering.
    pub insts_lowered: usize,
    /// Live IR instructions after the pass pipeline.
    pub insts_optimized: usize,
    /// Passes that changed the IR and survived the re-check.
    pub passes_applied: usize,
    /// `(proven, total)` gathers after abstract interpretation.
    pub gathers: (usize, usize),
    /// `(admitted, planned)` kernels of the lane planner.
    pub lanes: (usize, usize),
    /// `(admitted, planned)` kernels of the Tier-2 compiler.
    pub tiers: (usize, usize),
    /// The final IR of an accepted program.
    pub ir: Option<IrProgram>,
}

struct Clock {
    start: Instant,
    phase_ns: [Option<u64>; 10],
}

impl Clock {
    fn phase<T>(&mut self, i: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = trace::span(PHASES[i], f);
        self.phase_ns[i] = Some(t0.elapsed().as_nanos() as u64);
        out
    }
}

/// Live (non-`Nop`) instructions: the passes replace dead code with
/// `Nop` rather than removing it.
fn insts(ir: &IrProgram) -> usize {
    ir.kernels
        .iter()
        .flat_map(|k| &k.insts)
        .filter(|i| !matches!(i, Inst::Nop))
        .count()
}

fn admitted<T>(kernels: &[(String, Result<T, String>)]) -> (usize, usize) {
    (kernels.iter().filter(|(_, r)| r.is_ok()).count(), kernels.len())
}

/// Compiles `source` phase by phase under the default context settings
/// (certification enforced, optimization, lanes, tiers and clamp
/// elision on) at SIMD level `simd`.
pub fn compile(source: &str, cfg: &CertConfig, simd: SimdLevel) -> Replica {
    let mut clock = Clock {
        start: Instant::now(),
        phase_ns: [None; 10],
    };
    let mut r = Replica {
        verdict: Verdict::Internal(String::new()),
        phase_ns: [None; 10],
        total_ns: 0,
        insts_lowered: 0,
        insts_optimized: 0,
        passes_applied: 0,
        gathers: (0, 0),
        lanes: (0, 0),
        tiers: (0, 0),
        ir: None,
    };
    r.verdict = run(source, cfg, simd, &mut clock, &mut r);
    r.phase_ns = clock.phase_ns;
    r.total_ns = clock.start.elapsed().as_nanos() as u64;
    r
}

fn run(source: &str, cfg: &CertConfig, simd: SimdLevel, clock: &mut Clock, r: &mut Replica) -> Verdict {
    let program = match clock.phase(0, || brook_lang::parser::parse(source)) {
        Ok(p) => p,
        Err(e) => return Verdict::FrontEnd(e.to_string()),
    };
    let checked = match clock.phase(1, || brook_lang::typeck::check(program)) {
        Ok(c) => c,
        Err(e) => return Verdict::FrontEnd(e.to_string()),
    };
    let mut report = clock.phase(2, || brook_cert::certify(&checked, cfg));
    if !report.is_compliant() {
        return Verdict::Cert(brook_cert::violated_rules(&report));
    }
    let (mut ir, lower_errors) = clock.phase(3, || brook_ir::lower::lower_program(&checked));
    r.insts_lowered = insts(&ir);
    if let Some(e) = lower_errors.first() {
        return Verdict::Internal(format!("internal lowering failure: {e}"));
    }
    let (_, ok) = clock.phase(4, || brook_cert::ir_check::check_program(&ir, cfg));
    if !ok {
        return Verdict::Internal("internal: lowering broke certifiability".into());
    }
    let passes = clock.phase(5, || {
        brook_cert::ir_check::optimize_program(&mut ir, cfg, &brook_ir::passes::default_passes())
    });
    r.passes_applied = passes
        .iter()
        .filter(|p| p.action == PassAction::Applied { changed: true })
        .count();
    r.insts_optimized = insts(&ir);
    let (analysis, facts) = clock.phase(6, || {
        brook_cert::absint::analyze_and_annotate_program(&mut ir, true)
    });
    r.gathers = analysis
        .kernels
        .iter()
        .fold((0, 0), |(p, t), k| (p + k.proven_gathers, t + k.total_gathers));
    for ka in &analysis.kernels {
        if let Some(kr) = report.kernels.iter_mut().find(|kr| kr.kernel == ka.kernel) {
            kr.findings.extend(ka.faults.iter().cloned());
        }
    }
    if !report.is_compliant() {
        return Verdict::Cert(brook_cert::violated_rules(&report));
    }
    let lanes = clock.phase(7, || brook_ir::lanes::LaneProgram::plan_program_with(&ir, &facts));
    r.lanes = admitted(&lanes.kernels);
    let tiers = clock.phase(8, || {
        brook_ir::tier::TierProgram::compile_program_simd(&ir, &lanes, &facts, simd)
    });
    r.tiers = admitted(&tiers.kernels);
    if simd != SimdLevel::Scalar {
        clock.phase(9, || {
            brook_ir::simd::ReduceProgram::plan_program_with(&ir, &facts, simd)
        });
    }
    let text = brook_ir::pretty::print_program(&ir);
    r.ir = Some(ir);
    Verdict::Accept(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_auto::{BrookContext, BrookError};

    /// The verdict `BrookContext::compile` returns for `source`.
    fn of_context(ctx: &mut BrookContext, source: &str) -> Verdict {
        match ctx.compile(source) {
            Ok(m) => Verdict::Accept(ctx.emit_ir(&m).unwrap_or_else(|e| format!("emit_ir failed: {e}"))),
            Err(BrookError::FrontEnd(e)) => Verdict::FrontEnd(e.to_string()),
            Err(BrookError::Certification(r)) => Verdict::Cert(brook_cert::violated_rules(&r)),
            Err(other) => Verdict::Internal(other.to_string()),
        }
    }

    #[test]
    fn replica_matches_compile_artifact_on_the_whole_corpus() {
        let simd = brook_ir::simd::SimdMode::Auto.resolve();
        let cfg = CertConfig::default();
        for seed in [1, 0x5eed] {
            let corpus = crate::compile::corpus(seed);
            let mut ctx = BrookContext::cpu();
            let (mut accepted, mut rejected) = (0, 0);
            for item in &corpus {
                let replica = compile(&item.source, &cfg, simd);
                let real = of_context(&mut ctx, &item.source);
                assert_eq!(replica.verdict, real, "{}:\n{}", item.name, item.source);
                match real {
                    Verdict::Accept(_) => accepted += 1,
                    Verdict::Cert(_) => rejected += 1,
                    other => panic!("{}: unexpected verdict {other:?}", item.name),
                }
            }
            assert!(
                accepted > 0 && rejected > 0,
                "corpus must hold accepted and rejected programs"
            );
        }
    }
}
