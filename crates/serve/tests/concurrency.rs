//! Cross-tenant concurrency at the library level: N threads × M
//! contexts drawing the same compiled artifact from one shared
//! [`ModuleCache`], asserted bit-exact against serial single-context
//! execution — and the PR 3 foreign-module guarantee surviving cache
//! hits.

use brook_auto::{Arg, BrookContext};
use brook_serve::{hash_source, CacheKey, ModuleCache};
use std::sync::Arc;

const SOURCE: &str = "kernel void fma(float x<>, float y<>, float a, out float r<>) \
                      { r = a * x + y; }\n\
                      reduce void sum(float a<>, reduce float r<>) { r += a; }";

fn key_for(ctx: &BrookContext, backend: &'static str) -> CacheKey {
    CacheKey {
        source_hash: hash_source(SOURCE),
        cert_fingerprint: ctx.cert_config().fingerprint(),
        backend,
    }
}

fn make_ctx(backend: &str) -> BrookContext {
    let spec = brook_auto::registered_backends()
        .into_iter()
        .find(|b| b.name == backend)
        .expect("backend");
    (spec.make)()
}

/// What one worker computes, given its private inputs.
fn serial_oracle(xs: &[f32], ys: &[f32], a: f32) -> (Vec<f32>, f32) {
    let mut ctx = BrookContext::cpu();
    let m = ctx.compile(SOURCE).expect("compile");
    let x = ctx.stream(&[xs.len()]).expect("x");
    let y = ctx.stream(&[ys.len()]).expect("y");
    let r = ctx.stream(&[xs.len()]).expect("r");
    ctx.write(&x, xs).expect("write");
    ctx.write(&y, ys).expect("write");
    ctx.run(
        &m,
        "fma",
        &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(a), Arg::Stream(&r)],
    )
    .expect("run");
    let out = ctx.read(&r).expect("read");
    let total = ctx.reduce(&m, "sum", &r).expect("reduce");
    (out, total)
}

#[test]
fn n_threads_m_contexts_share_one_cache_bit_exactly() {
    const THREADS: usize = 8;
    const CONTEXTS_PER_THREAD: usize = 2;
    const N: usize = 512;
    let cache = Arc::new(ModuleCache::new());
    // Warm both keys so the threaded phase deterministically exercises
    // the concurrent-hit path (racing first-misses are legal — first
    // insert wins — but make the counters nondeterministic).
    for backend in ["cpu", "cpu-parallel"] {
        let mut ctx = make_ctx(backend);
        let key = key_for(&ctx, if backend == "cpu" { "cpu" } else { "cpu-parallel" });
        cache
            .get_or_compile(key, SOURCE, || ctx.compile_artifact(SOURCE))
            .expect("warm");
    }

    let workers: Vec<_> = (0..THREADS)
        .map(|ti| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for ci in 0..CONTEXTS_PER_THREAD {
                    // Alternate backends so the cache serves several
                    // keys concurrently, not just one hot entry.
                    let backend = if (ti + ci) % 2 == 0 { "cpu" } else { "cpu-parallel" };
                    let mut ctx = make_ctx(backend);
                    let artifact = cache
                        .get_or_compile(
                            key_for(&ctx, if (ti + ci) % 2 == 0 { "cpu" } else { "cpu-parallel" }),
                            SOURCE,
                            || ctx.compile_artifact(SOURCE),
                        )
                        .expect("compile");
                    let m = ctx.adopt_artifact(&artifact).expect("adopt");
                    let xs: Vec<f32> = (0..N).map(|i| (ti * 31 + ci * 7 + i) as f32 * 0.125).collect();
                    let ys: Vec<f32> = (0..N).map(|i| 1.0 + i as f32 * 0.5).collect();
                    let a = 1.0 + (ti * CONTEXTS_PER_THREAD + ci) as f32;
                    let x = ctx.stream(&[N]).expect("x");
                    let y = ctx.stream(&[N]).expect("y");
                    let r = ctx.stream(&[N]).expect("r");
                    ctx.write(&x, &xs).expect("write");
                    ctx.write(&y, &ys).expect("write");
                    ctx.run(
                        &m,
                        "fma",
                        &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(a), Arg::Stream(&r)],
                    )
                    .expect("run");
                    let out = ctx.read(&r).expect("read");
                    let total = ctx.reduce(&m, "sum", &r).expect("reduce");
                    results.push((xs, ys, a, out, total));
                }
                results
            })
        })
        .collect();

    for w in workers {
        for (xs, ys, a, out, total) in w.join().expect("worker") {
            let (want_out, want_total) = serial_oracle(&xs, &ys, a);
            assert_eq!(out, want_out, "concurrent context diverged from serial");
            assert_eq!(total.to_bits(), want_total.to_bits(), "reduction diverged");
        }
    }
    // Two backends → exactly two cache entries no matter how many
    // contexts raced, and every threaded lookup hit the warm cache.
    assert_eq!(cache.len(), 2);
    let (hits, misses) = cache.stats();
    assert_eq!(misses, 2);
    assert_eq!(hits, (THREADS * CONTEXTS_PER_THREAD) as u64);
}

#[test]
fn cache_hits_do_not_bypass_foreign_module_rejection() {
    let cache = ModuleCache::new();
    let mut a = BrookContext::cpu();
    let mut b = BrookContext::cpu();
    let artifact = cache
        .get_or_compile(key_for(&a, "cpu"), SOURCE, || a.compile_artifact(SOURCE))
        .expect("compile");
    let m_a = a.adopt_artifact(&artifact).expect("adopt into a");
    // Context B takes the same artifact from the cache (a hit) and gets
    // its own stamped module...
    let hit = cache
        .get_or_compile(key_for(&b, "cpu"), SOURCE, || b.compile_artifact(SOURCE))
        .expect("hit");
    assert!(Arc::ptr_eq(&artifact, &hit), "second lookup must be a hit");
    let m_b = b.adopt_artifact(&hit).expect("adopt into b");
    let s_b = b.stream(&[4]).expect("stream");
    b.write(&s_b, &[1.0, 2.0, 3.0, 4.0]).expect("write");
    let r_b = b.stream(&[4]).expect("stream");
    b.run(
        &m_b,
        "fma",
        &[
            Arg::Stream(&s_b),
            Arg::Stream(&s_b),
            Arg::Float(1.0),
            Arg::Stream(&r_b),
        ],
    )
    .expect("b runs its own module");
    // ...but context A's module handle is still rejected in B, cache
    // hit or not: adoption re-stamps, it does not share identity.
    let err = b
        .run(
            &m_a,
            "fma",
            &[
                Arg::Stream(&s_b),
                Arg::Stream(&s_b),
                Arg::Float(1.0),
                Arg::Stream(&r_b),
            ],
        )
        .unwrap_err();
    assert!(
        matches!(err, brook_auto::BrookError::Usage(_)),
        "foreign module must be a usage error, got {err:?}"
    );
    // And A cannot use B's streams either.
    let err = a.read(&s_b).unwrap_err();
    assert!(matches!(err, brook_auto::BrookError::Usage(_)));
}

#[test]
fn cert_config_divergence_partitions_the_cache() {
    // Two tenants with different certification configs must never share
    // an artifact, even for identical source on the same backend.
    let cache = ModuleCache::new();
    let mut a = BrookContext::cpu();
    let mut strict = BrookContext::with_backend(
        Box::new(brook_auto::CpuBackend::new()),
        brook_auto::CertConfig {
            max_loop_trips: 64,
            ..brook_auto::CertConfig::default()
        },
    );
    let k_a = key_for(&a, "cpu");
    let k_b = key_for(&strict, "cpu");
    assert_ne!(k_a, k_b, "diverged configs must produce different keys");
    let art_a = cache
        .get_or_compile(k_a, SOURCE, || a.compile_artifact(SOURCE))
        .expect("compile a");
    let art_b = cache
        .get_or_compile(k_b, SOURCE, || strict.compile_artifact(SOURCE))
        .expect("compile b");
    assert!(!Arc::ptr_eq(&art_a, &art_b));
    assert_eq!(cache.len(), 2);
}
