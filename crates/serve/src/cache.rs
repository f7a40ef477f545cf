//! The shared compiled-module cache: compile once, adopt per tenant.
//!
//! The cache stores context-neutral [`ModuleArtifact`]s keyed by
//! `(source hash, cert-config fingerprint, backend name)`. A hit hands
//! back an `Arc` to the artifact; the requesting tenant's context then
//! *adopts* it ([`brook_auto::BrookContext::adopt_artifact`]), which
//! re-stamps a fresh module id and the adopting context's identity —
//! the foreign-module rejection of PR 3 keeps holding on cache hits
//! because no stamped module ever crosses tenants, only artifacts do.

use brook_auto::ModuleArtifact;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key: what must agree for two tenants to share a compilation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 64-bit hash of the Brook source text. It only picks the bucket:
    /// a hit also compares the full source, so two sources that collide
    /// here never share an artifact.
    pub source_hash: u64,
    /// [`brook_cert::CertConfig::fingerprint`] of the compiling context.
    pub cert_fingerprint: u64,
    /// Backend name (`cpu`, `gles2-packed`, ...): GLSL storage modes and
    /// lane/tier admission differ per backend family, so artifacts are
    /// not shared across them.
    pub backend: &'static str,
}

/// Stable hash of Brook source text (the `source_hash` key component).
pub fn hash_source(source: &str) -> u64 {
    let mut h = DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// One cached compilation and the exact source it was compiled from.
struct Entry {
    source: Box<str>,
    artifact: Arc<ModuleArtifact>,
}

/// Everything behind the cache's one lock.
#[derive(Default)]
struct Inner {
    /// Per key, every source that hashed there (almost always one).
    entries: HashMap<CacheKey, Vec<Entry>>,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn find(&self, key: &CacheKey, source: &str) -> Option<&Arc<ModuleArtifact>> {
        self.entries
            .get(key)?
            .iter()
            .find(|e| &*e.source == source)
            .map(|e| &e.artifact)
    }
}

/// A thread-safe compiled-module cache shared by every shard.
#[derive(Default)]
pub struct ModuleCache {
    inner: Mutex<Inner>,
}

impl ModuleCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache state. A panic while the lock was held cannot leave
    /// it inconsistent (every update is a single insert or counter
    /// bump), so a poisoned lock is recovered, not propagated.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the artifact compiled from exactly `source` under
    /// `key`, or compiles it with `compile` and caches the result. Only
    /// successful compilations are inserted — a failed compile leaves
    /// no entry, so a later corrected submission (or a retry after a
    /// transient internal error) starts clean.
    ///
    /// The compile closure runs *outside* the cache lock: a slow
    /// compilation must not stall unrelated tenants. Two tenants racing
    /// to compile the same source may both do the work; the first
    /// insert wins and both get a shared artifact.
    ///
    /// # Errors
    /// Whatever `compile` returns, passed through untouched.
    pub fn get_or_compile<E>(
        &self,
        key: CacheKey,
        source: &str,
        compile: impl FnOnce() -> Result<ModuleArtifact, E>,
    ) -> Result<Arc<ModuleArtifact>, E> {
        {
            let mut inner = self.lock();
            if let Some(hit) = inner.find(&key, source).cloned() {
                inner.hits += 1;
                return Ok(hit);
            }
        }
        let artifact = Arc::new(compile()?);
        let mut inner = self.lock();
        inner.misses += 1;
        if let Some(raced) = inner.find(&key, source) {
            return Ok(Arc::clone(raced));
        }
        inner.entries.entry(key).or_default().push(Entry {
            source: source.into(),
            artifact: Arc::clone(&artifact),
        });
        Ok(artifact)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.lock().entries.values().map(Vec::len).sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_auto::BrookContext;

    const SRC: &str = "kernel void id(float a<>, out float o<>) { o = a; }";

    fn key(source: &str, backend: &'static str) -> CacheKey {
        CacheKey {
            source_hash: hash_source(source),
            cert_fingerprint: BrookContext::cpu().cert_config().fingerprint(),
            backend,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ModuleCache::new();
        let mut ctx = BrookContext::cpu();
        let a = cache
            .get_or_compile(key(SRC, "cpu"), SRC, || ctx.compile_artifact(SRC))
            .expect("compile");
        let b = cache
            .get_or_compile(key(SRC, "cpu"), SRC, || -> Result<_, brook_auto::BrookError> {
                panic!("must not recompile on a hit")
            })
            .expect("hit");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_compile_leaves_no_entry() {
        let cache = ModuleCache::new();
        let mut ctx = BrookContext::cpu();
        let bad = "kernel void broken(float a<> { }";
        let err = cache.get_or_compile(key(bad, "cpu"), bad, || ctx.compile_artifact(bad));
        assert!(err.is_err());
        assert!(cache.is_empty(), "failure must not be cached");
        // Same key, corrected behaviour (e.g. a transient failure
        // cleared): compiles fresh.
        let ok = cache.get_or_compile(key(bad, "cpu"), bad, || ctx.compile_artifact(SRC));
        assert!(ok.is_ok());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_partition_by_source_config_and_backend() {
        let other_src = "kernel void id2(float a<>, out float o<>) { o = a + 0.0; }";
        let k1 = key(SRC, "cpu");
        assert_ne!(k1, key(other_src, "cpu"));
        assert_ne!(k1, key(SRC, "gles2-packed"));
        let strict = brook_cert::CertConfig {
            max_instructions: 1,
            ..brook_cert::CertConfig::default()
        };
        assert_ne!(
            strict.fingerprint(),
            brook_cert::CertConfig::default().fingerprint()
        );
    }

    #[test]
    fn adopted_artifacts_keep_foreign_module_rejection() {
        let cache = ModuleCache::new();
        let mut t0 = BrookContext::cpu();
        let mut t1 = BrookContext::cpu();
        let artifact = cache
            .get_or_compile(key(SRC, "cpu"), SRC, || t0.compile_artifact(SRC))
            .expect("compile");
        let m0 = t0.adopt_artifact(&artifact).expect("adopt t0");
        let m1 = t1.adopt_artifact(&artifact).expect("adopt t1");
        let a0 = t0.stream(&[2]).expect("stream");
        let o0 = t0.stream(&[2]).expect("stream");
        t0.write(&a0, &[1.0, 2.0]).expect("write");
        // Own adoption runs...
        t0.run(
            &m0,
            "id",
            &[brook_auto::Arg::Stream(&a0), brook_auto::Arg::Stream(&o0)],
        )
        .expect("t0 runs its adoption");
        // ...the other tenant's adoption of the *same artifact* does not.
        let err = t0
            .run(
                &m1,
                "id",
                &[brook_auto::Arg::Stream(&a0), brook_auto::Arg::Stream(&o0)],
            )
            .unwrap_err();
        assert!(matches!(err, brook_auto::BrookError::Usage(_)));
    }

    #[test]
    fn colliding_hash_with_different_source_misses() {
        let other = "kernel void twice(float a<>, out float o<>) { o = a * 2.0; }";
        let forced = |source: &str| CacheKey {
            source_hash: 42,
            ..key(source, "cpu")
        };
        assert_eq!(forced(SRC), forced(other), "keys must collide for this test");
        let cache = ModuleCache::new();
        let mut ctx = BrookContext::cpu();
        let a = cache
            .get_or_compile(forced(SRC), SRC, || ctx.compile_artifact(SRC))
            .expect("compile");
        let mut compiled = false;
        let b = cache
            .get_or_compile(forced(other), other, || {
                compiled = true;
                ctx.compile_artifact(other)
            })
            .expect("compile");
        assert!(compiled, "a colliding source must compile, not hit");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.kernels(), vec!["twice".to_string()]);
        assert_eq!(cache.stats(), (0, 2));
        assert_eq!(cache.len(), 2);
        // Both sources now hit their own artifact.
        let a2 = cache
            .get_or_compile(forced(SRC), SRC, || -> Result<_, brook_auto::BrookError> {
                panic!("must hit")
            })
            .expect("hit");
        let b2 = cache
            .get_or_compile(forced(other), other, || -> Result<_, brook_auto::BrookError> {
                panic!("must hit")
            })
            .expect("hit");
        assert!(Arc::ptr_eq(&a, &a2) && Arc::ptr_eq(&b, &b2));
    }

    #[test]
    fn poisoned_lock_still_serves_lookups() {
        let cache = Arc::new(ModuleCache::new());
        let mut ctx = BrookContext::cpu();
        let a = cache
            .get_or_compile(key(SRC, "cpu"), SRC, || ctx.compile_artifact(SRC))
            .expect("compile");
        let holder = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.inner.lock();
            panic!("holder panics with the cache lock held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        let b = cache
            .get_or_compile(key(SRC, "cpu"), SRC, || -> Result<_, brook_auto::BrookError> {
                panic!("must hit")
            })
            .expect("hit through a poisoned lock");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}
