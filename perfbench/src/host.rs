//! Host ceilings measured in the traced run: stream-copy bandwidth on
//! arrays at least four times the last-level cache, and the FMA peak at one
//! thread and at every core.

use std::hint::black_box;
use std::time::Instant;

/// Host ceilings.
pub struct Ceilings {
    pub llc_mib: f64,
    pub array_mib: f64,
    pub mem_gbps: f64,
    pub fma_gflops_1t: f64,
    pub fma_gflops_nt: f64,
}

/// Largest cache size in MiB reported by sysfs for cpu0 (0 when unknown).
fn llc_mib() -> f64 {
    let mut best = 0.0f64;
    for i in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
        let Ok(raw) = std::fs::read_to_string(path) else {
            continue;
        };
        let raw = raw.trim();
        let (num, scale) = match raw.chars().last() {
            Some('K') => (&raw[..raw.len() - 1], 1.0 / 1024.0),
            Some('M') => (&raw[..raw.len() - 1], 1.0),
            Some('G') => (&raw[..raw.len() - 1], 1024.0),
            _ => (raw, 1.0 / (1024.0 * 1024.0)),
        };
        if let Ok(v) = num.parse::<f64>() {
            best = best.max(v * scale);
        }
    }
    best
}

/// Copy bandwidth in GB/s counting the bytes read plus the bytes written
/// (computed from the array size), best of `reps`, split over `threads`.
fn copy_gbps(src: &[f64], dst: &mut [f64], threads: usize, reps: usize) -> f64 {
    let chunk = src.len().div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for (s, d) in src.chunks(chunk).zip(dst.chunks_mut(chunk)) {
                scope.spawn(move || d.copy_from_slice(s));
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&dst[dst.len() / 2]);
    }
    (2 * std::mem::size_of_val(src)) as f64 / best / 1e9
}

const FMA_LANES: usize = 32;
const FMA_ITERS: usize = 4_000_000;

/// `FMA_ITERS` rounds of `FMA_LANES` independent fused multiply-adds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(seed: f64) -> f64 {
    fma_chains_portable(seed)
}

#[inline(always)]
fn fma_chains_portable(seed: f64) -> f64 {
    let mut acc = [0.0f64; FMA_LANES];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = seed + i as f64 * 1e-3;
    }
    let (m, c) = (black_box(0.999_999_9), black_box(1e-7));
    for _ in 0..FMA_ITERS {
        for a in acc.iter_mut() {
            *a = a.mul_add(m, c);
        }
    }
    acc.iter().sum()
}

fn fma_chains(seed: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports AVX2 and FMA, checked just above, which
        // is all `fma_chains_avx2` requires.
        return unsafe { fma_chains_avx2(seed) };
    }
    fma_chains_portable(seed)
}

/// FMA rate in GFLOP/s (two flops per FMA) with `threads` threads, best of
/// three.
fn fma_gflops(threads: usize) -> f64 {
    let flops = (2 * FMA_LANES * FMA_ITERS * threads) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || black_box(fma_chains(black_box(t as f64))));
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Measures every ceiling. The copy arrays are at least four times the
/// last-level cache and at least 420 MiB each; they are freed on return.
pub fn measure(threads: usize) -> Ceilings {
    let llc = llc_mib();
    let array_mib = (4.0 * llc).max(420.0).ceil();
    let n = (array_mib * 1024.0 * 1024.0 / 8.0) as usize;
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; n];
    let mem_gbps = copy_gbps(&src, &mut dst, threads, 3);
    drop((src, dst));
    Ceilings {
        llc_mib: llc,
        array_mib,
        mem_gbps,
        fma_gflops_1t: fma_gflops(1),
        fma_gflops_nt: fma_gflops(threads),
    }
}
