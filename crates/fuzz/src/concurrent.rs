//! Concurrent differential campaign: generated cases executed by many
//! threads × many contexts drawing compiled artifacts from one shared
//! [`ModuleCache`], cross-checked bitwise against the serial CPU
//! reference.
//!
//! The property under test is the service substrate's core claim:
//! sharing a compiled [`brook_auto::ModuleArtifact`] across tenants
//! (contexts) and threads is *semantically invisible* — every context
//! adopting the cached artifact computes exactly what a fresh
//! single-context compile-and-run computes, under real scheduling
//! nondeterminism. CPU-family backends must agree bit for bit.

use crate::differential::run_with_module;
use crate::gen::{gen_case, GenConfig};
use brook_auto::{registered_backends, BrookContext};
use brook_serve::{hash_source, CacheKey, ModuleCache};
use std::sync::Arc;

/// Summary of a completed concurrent campaign.
#[derive(Debug, Clone, Default)]
pub struct ConcurrentStats {
    /// Cases generated and cross-checked.
    pub cases: u32,
    /// Worker threads racing per case.
    pub threads: usize,
    /// Total elements compared against the reference.
    pub elements_checked: u64,
    /// Shared-cache hits (every adoption past the first per case).
    pub cache_hits: u64,
    /// Shared-cache misses (one compile per case).
    pub cache_misses: u64,
}

fn cpu_matrix_names() -> Vec<&'static str> {
    registered_backends()
        .iter()
        .map(|s| s.name)
        .filter(|n| n.starts_with("cpu"))
        .collect()
}

fn make_ctx(name: &str) -> BrookContext {
    let spec = registered_backends()
        .into_iter()
        .find(|b| b.name == name)
        .expect("registered backend");
    (spec.make)()
}

/// Runs `cases` generated kernels, each executed concurrently by
/// `threads` contexts (cycling through the CPU-family backends) that
/// all adopt one cached artifact, and compares every thread's outputs
/// bitwise against a serial CPU reference run of the same case.
///
/// # Errors
/// A rendered report naming the case, thread and first diverging
/// element, or any setup failure.
pub fn run_concurrent_campaign(
    seed: u64,
    cases: u32,
    threads: usize,
    gen: &GenConfig,
) -> Result<ConcurrentStats, String> {
    assert!(threads >= 2, "a concurrency campaign needs ≥ 2 threads");
    let backends = cpu_matrix_names();
    let cache = Arc::new(ModuleCache::new());
    let mut stats = ConcurrentStats {
        threads,
        ..ConcurrentStats::default()
    };

    for i in 0..cases {
        let case = Arc::new(gen_case(seed, i, gen));

        // Serial reference: its compile is the case's single cache miss.
        let mut ref_ctx = BrookContext::cpu();
        let key = |ctx: &BrookContext, backend: &'static str| CacheKey {
            source_hash: hash_source(&case.source),
            cert_fingerprint: ctx.cert_config().fingerprint(),
            backend,
        };
        let ref_key = key(&ref_ctx, "cpu");
        let artifact = cache
            .get_or_compile(ref_key, &case.source, || ref_ctx.compile_artifact(&case.source))
            .map_err(|e| format!("case {}: compile: {e}", case.name))?;
        let ref_module = ref_ctx
            .adopt_artifact(&artifact)
            .map_err(|e| format!("case {}: adopt: {e}", case.name))?;
        let reference = run_with_module(&mut ref_ctx, &ref_module, &case)
            .map_err(|e| format!("case {}: reference run: {e}", case.name))?;

        // The concurrent phase: every thread adopts from the cache.
        // CPU-family artifacts are backend-independent up to the cache
        // key, so all CPU backends share the reference's entry.
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let case = Arc::clone(&case);
                let cache = Arc::clone(&cache);
                let backend = backends[t % backends.len()];
                std::thread::spawn(move || -> Result<Vec<Vec<f32>>, String> {
                    let mut ctx = make_ctx(backend);
                    let k = CacheKey {
                        source_hash: hash_source(&case.source),
                        cert_fingerprint: ctx.cert_config().fingerprint(),
                        backend: "cpu",
                    };
                    let artifact = cache
                        .get_or_compile(k, &case.source, || ctx.compile_artifact(&case.source))
                        .map_err(|e| format!("compile: {e}"))?;
                    let module = ctx.adopt_artifact(&artifact).map_err(|e| format!("adopt: {e}"))?;
                    run_with_module(&mut ctx, &module, &case)
                })
            })
            .collect();

        for (t, w) in workers.into_iter().enumerate() {
            let outputs = w
                .join()
                .map_err(|_| format!("case {}: thread {t} panicked", case.name))?
                .map_err(|e| format!("case {}: thread {t}: {e}", case.name))?;
            if outputs.len() != reference.len() {
                return Err(format!(
                    "case {}: thread {t}: {} outputs vs reference {}",
                    case.name,
                    outputs.len(),
                    reference.len()
                ));
            }
            for (oi, (got, want)) in outputs.iter().zip(&reference).enumerate() {
                if got.len() != want.len() {
                    return Err(format!(
                        "case {}: thread {t}: output {oi} length {} vs reference {}",
                        case.name,
                        got.len(),
                        want.len()
                    ));
                }
                for (ei, (g, r)) in got.iter().zip(want).enumerate() {
                    if g.to_bits() != r.to_bits() {
                        return Err(format!(
                            "case {}: thread {t}: output {oi} element {ei}: {g} vs reference {r} \
                             (concurrent shared-artifact execution diverged)",
                            case.name
                        ));
                    }
                    stats.elements_checked += 1;
                }
            }
        }
        stats.cases += 1;
    }

    let (hits, misses) = cache.stats();
    stats.cache_hits = hits;
    stats.cache_misses = misses;
    // One miss per case (the reference compile won the race by
    // construction: it ran before any worker thread existed).
    if misses != u64::from(cases) {
        return Err(format!(
            "cache accounting: expected {cases} misses (one per case), saw {misses}"
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_concurrent_campaign_is_bitwise_clean() {
        let stats = run_concurrent_campaign(0xC0FF_EE00, 6, 4, &GenConfig::default())
            .unwrap_or_else(|e| panic!("concurrent campaign failed:\n{e}"));
        assert_eq!(stats.cases, 6);
        assert!(stats.elements_checked > 100);
        assert_eq!(stats.cache_misses, 6);
        assert_eq!(stats.cache_hits, 6 * 4);
    }
}
