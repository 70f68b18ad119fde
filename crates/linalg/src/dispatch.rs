//! Runtime selection between the portable scalar kernels and the packed-panel
//! SIMD micro-kernels.
//!
//! Every blocked kernel in this crate funnels through one dispatch point,
//! [`simd_active`], refined by [`avx512_active`] for the AVX-512F tier.  The
//! decision combines three inputs:
//!
//! 1. **Hardware** — `is_x86_feature_detected!("avx2")` + `fma` (and
//!    `avx512f` for the third tier), probed once per process and cached.  On
//!    non-x86_64 targets both are always `false`.
//! 2. **Environment** — setting `NNBO_PORTABLE_KERNELS=1` (read once) forces
//!    the portable path on every thread regardless of hardware, which is how
//!    CI exercises the fallback kernels on AVX2-capable runners.
//! 3. **Scope** — [`with_portable_kernels`] forces the portable path for one
//!    closure on the calling thread and on every pool task and job it
//!    submits, which is how benchmarks and tests run the scalar and SIMD
//!    paths against each other inside one process.  The scope lives in bit 0
//!    of the pool's per-thread context word ([`nnbo_pool::context`]), which
//!    the pool carries to its workers, so no other thread sees it.
//!
//! [`kernel_isa`] reports the tier the calling thread runs.  The dispatch
//! never changes *what* is computed, only which instruction sequence
//! computes it; both paths satisfy the same tolerance-based equivalence
//! properties against the naive reference kernels.

use std::sync::OnceLock;

/// Name of the environment variable that forces the portable kernels.
const PORTABLE_ENV: &str = "NNBO_PORTABLE_KERNELS";

/// The bit of the pool's context word that [`with_portable_kernels`] sets.
const PORTABLE_BIT: u64 = 1;

/// Process-wide facts probed once.
#[derive(Clone, Copy)]
struct Probed {
    /// `NNBO_PORTABLE_KERNELS` forces the portable path.
    env_portable: bool,
    /// The CPU has AVX2 and FMA.
    avx2_fma: bool,
    /// The CPU additionally has AVX-512F.
    avx512f: bool,
}

static PROBED: OnceLock<Probed> = OnceLock::new();

fn probe() -> Probed {
    *PROBED.get_or_init(|| {
        let env_portable = std::env::var(PORTABLE_ENV).is_ok_and(|v| v != "0" && !v.is_empty());
        #[cfg(target_arch = "x86_64")]
        let (avx2_fma, avx512f) = {
            let avx2_fma = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            (
                avx2_fma,
                avx2_fma && std::arch::is_x86_feature_detected!("avx512f"),
            )
        };
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2_fma, avx512f) = (false, false);
        Probed {
            env_portable,
            avx2_fma,
            avx512f,
        }
    })
}

/// Runs `f` with the portable scalar kernels forced on the calling thread
/// and in every [`nnbo_pool`] batch task and detached job that `f` submits,
/// directly or through nested work.  The previous state returns when `f`
/// returns or unwinds; other threads are not affected.
///
/// Intended for benchmarks and tests that compare both code paths in one
/// process; production code should leave the automatic dispatch alone.
/// `NNBO_PORTABLE_KERNELS=1` forces the portable kernels on every thread,
/// with or without a scope.
pub fn with_portable_kernels<R>(f: impl FnOnce() -> R) -> R {
    nnbo_pool::with_context(nnbo_pool::context() | PORTABLE_BIT, f)
}

/// `true` when the packed-panel AVX2+FMA micro-kernels are in use on the
/// calling thread.
pub(crate) fn simd_active() -> bool {
    let p = probe();
    p.avx2_fma && !p.env_portable && nnbo_pool::context() & PORTABLE_BIT == 0
}

/// `true` when the CPU has AVX-512F (and AVX2+FMA), whatever the forcing.
pub(crate) fn avx512_supported() -> bool {
    probe().avx512f
}

/// `true` when the AVX-512F tier is in use: the SIMD path is active and the
/// CPU has AVX-512F.  Implies [`simd_active`], so every AVX-512F kernel may
/// also assume AVX2+FMA; forcing the portable kernels turns this off too.
pub(crate) fn avx512_active() -> bool {
    avx512_supported() && simd_active()
}

/// Human-readable name of the kernel path the dispatch selects on the
/// calling thread: `"avx512f"`, `"avx2+fma"` or `"portable"`.  Benchmark
/// emitters record this alongside their timings so results from
/// differently-equipped machines are distinguishable.
pub fn kernel_isa() -> &'static str {
    if avx512_active() {
        "avx512f"
    } else if simd_active() {
        "avx2+fma"
    } else {
        "portable"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnbo_pool::WorkerPool;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// `kernel_isa()` in two bands of a `map_bands` that wait for each
    /// other, so that the caller runs one and the pool's worker the other,
    /// with the thread each band ran on.
    fn isa_per_band(pool: &WorkerPool) -> Vec<(ThreadId, &'static str)> {
        let started = AtomicUsize::new(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        pool.map_bands(&[0, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            (std::thread::current().id(), kernel_isa())
        })
    }

    #[test]
    fn the_portable_scope_reaches_every_band_and_ends_with_the_scope() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let native = kernel_isa();
        let inside = with_portable_kernels(|| isa_per_band(&pool));
        assert!(
            inside.iter().any(|(id, _)| *id != caller),
            "no band ran on the worker"
        );
        assert!(
            inside.iter().all(|(_, isa)| *isa == "portable"),
            "{inside:?}"
        );
        let outside = isa_per_band(&pool);
        assert!(
            outside.iter().any(|(id, _)| *id != caller),
            "no band ran on the worker"
        );
        assert!(outside.iter().all(|(_, isa)| *isa == native), "{outside:?}");
        assert_eq!(kernel_isa(), native);
    }
}
