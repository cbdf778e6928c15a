//! Deterministic scoped parallel-execution layer shared by every hot kernel.
//!
//! The attack's cost is dominated by a handful of dense kernels — group-matrix
//! Gram products, thin-SVD, correlation connectomes, t-SNE passes, and the
//! cross-dataset similarity matrix. This module gives them one dependency-free
//! way to use multiple cores, built on [`std::thread::scope`], under a hard
//! **determinism contract**:
//!
//! 1. **Fixed tile boundaries.** Work is split into tiles whose boundaries
//!    depend only on the problem shape (and compile-time tile constants),
//!    never on the number of threads. Threads pick up whole tiles round-robin.
//! 2. **Sequential accumulation within a tile.** Every floating-point
//!    accumulation happens inside exactly one tile, in a fixed order.
//! 3. **Fixed merge order across tiles.** When tiles contribute to a shared
//!    reduction ([`par_reduce_tiles`]), per-tile partials are folded in tile
//!    index order regardless of which thread produced them — and the
//!    single-threaded path runs the *same* tile/fold structure.
//!
//! Together these guarantee that every kernel built on this module returns
//! **bit-identical** results at any thread count, which is what lets the
//! property suites assert `parallel ≡ sequential` exactly and lets CI run the
//! whole test suite under `NEURODEANON_THREADS=1` and the default without a
//! golden-file split.
//!
//! Thread count resolution order: [`with_thread_count`] override (used by
//! tests and benches) → the `NEURODEANON_THREADS` environment variable,
//! clamped to `[1, cores]` → `available_parallelism()` capped at
//! [`DEFAULT_THREAD_CAP`].
//!
//! Each kernel keeps its own work threshold (tuned to its arithmetic
//! intensity) below which it runs the tiles inline on the calling thread;
//! [`DEFAULT_PAR_THRESHOLD`] is the starting point used by `matmul`.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::OnceLock;
use std::time::Instant;

/// Default minimum number of scalar operations before a kernel spawns
/// threads; below this the spawn overhead dominates. Kernels with lower
/// per-element cost (pure streaming) should use larger thresholds, kernels
/// that are called in tight loops (Jacobi rounds) smaller ones.
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 22;

/// Default cap on worker threads when neither an override nor
/// `NEURODEANON_THREADS` is present: beyond this the streaming kernels are
/// memory-bound and extra threads only add merge traffic.
pub const DEFAULT_THREAD_CAP: usize = 8;

/// Hard ceiling for [`with_thread_count`] overrides. Unlike the environment
/// variable this is *not* clamped to the core count, so determinism tests can
/// oversubscribe a small CI host and still exercise the multi-threaded paths.
const MAX_THREAD_OVERRIDE: usize = 64;

thread_local! {
    /// 0 = no override; otherwise the forced thread count for this thread.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

// Every dispatched closure — inline, calling-thread, or worker — runs under
// `obs::span::detached`, so spans a kernel opens inside a parallel region
// always root at top level. That keeps the recorded span-tree *shape* a pure
// function of the workload, never of the thread count or of which thread
// happened to execute a tile.

/// Cached handles of the scheduler's observability metrics.
///
/// `par.calls` / `par.tiles` count dispatches and tiles — both are pure
/// functions of the problem shapes, so they are part of the determinism
/// fingerprint and must match at any thread count. `rt.par.busy_ns`
/// (cumulative per-worker busy wall time) and `rt.par.imbalance`
/// (slowest-worker / mean-worker busy ratio of the latest parallel
/// dispatch) are runtime telemetry, only sampled while tracing is enabled.
struct ParMetrics {
    calls: &'static neurodeanon_obs::Counter,
    tiles: &'static neurodeanon_obs::Counter,
    busy_ns: &'static neurodeanon_obs::Counter,
    imbalance: &'static neurodeanon_obs::Gauge,
}

fn metrics() -> &'static ParMetrics {
    static HANDLES: OnceLock<ParMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| ParMetrics {
        calls: neurodeanon_obs::counter("par.calls"),
        tiles: neurodeanon_obs::counter("par.tiles"),
        busy_ns: neurodeanon_obs::counter("rt.par.busy_ns"),
        imbalance: neurodeanon_obs::gauge("rt.par.imbalance"),
    })
}

/// Folds one parallel dispatch's per-worker busy nanoseconds into the
/// runtime telemetry (no-op on an empty sample, i.e. untraced dispatches).
fn record_busy(busy: &[u64]) {
    if busy.is_empty() {
        return;
    }
    let m = metrics();
    let total: u64 = busy.iter().sum();
    m.busy_ns.add(total);
    let max = busy.iter().copied().max().unwrap_or(0);
    let mean = total as f64 / busy.len() as f64;
    if mean > 0.0 {
        m.imbalance.set(max as f64 / mean);
    }
}

/// Number of logical cores reported by the OS (at least 1).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `NEURODEANON_THREADS` value, clamping to `[1, cores]`; malformed
/// values fall back to the capped core count.
fn parse_env_threads(raw: &str, cores: usize) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) => n.clamp(1, cores),
        Err(_) => cores.min(DEFAULT_THREAD_CAP),
    }
}

/// Number of worker threads parallel kernels will use on this thread.
///
/// Resolution order: a [`with_thread_count`] override on the calling thread,
/// then the `NEURODEANON_THREADS` environment variable clamped to
/// `[1, cores]`, then `available_parallelism()` capped at
/// [`DEFAULT_THREAD_CAP`]. Thanks to the determinism contract the returned
/// value only affects wall-clock time, never results.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced;
    }
    let cores = available_cores();
    match std::env::var("NEURODEANON_THREADS") {
        Ok(raw) => parse_env_threads(&raw, cores),
        Err(_) => cores.min(DEFAULT_THREAD_CAP),
    }
}

/// Runs `f` with [`num_threads`] forced to `n` on the calling thread.
///
/// This is the structured override used by the determinism property suites
/// and the bench thread sweep: unlike setting `NEURODEANON_THREADS` it is
/// race-free under the multi-threaded test runner, restores the previous
/// value on unwind, and may oversubscribe the machine (clamped to
/// `[1, 64]`) so the parallel code paths are exercised even on single-core
/// CI hosts.
pub fn with_thread_count<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| c.replace(n.clamp(1, MAX_THREAD_OVERRIDE)));
    let _restore = Restore(prev);
    f()
}

/// One fixed tile of a partitioned index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Tile index (0-based, dense).
    pub index: usize,
    /// First item covered by this tile.
    pub start: usize,
    /// One past the last item covered by this tile.
    pub end: usize,
}

impl Tile {
    /// The item range covered by this tile.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Number of items in the tile.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the tile covers no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

#[inline]
fn make_tile(index: usize, tile_len: usize, n_items: usize) -> Tile {
    let start = index * tile_len;
    Tile {
        index,
        start,
        end: (start + tile_len).min(n_items),
    }
}

/// Runs `f` once per fixed-size tile of `0..n_items`.
///
/// Tiles are `tile_len` items each (the last may be short); boundaries depend
/// only on `n_items` and `tile_len`. When `n_items * work_per_item` is below
/// `threshold`, or only one thread is available, every tile runs inline on
/// the calling thread in index order; otherwise worker `w` of `threads`
/// scoped threads runs tiles `w, w + threads, …`, the calling thread being
/// worker 0. `f` must confine its effects to data owned by its tile (use
/// [`DisjointMut`] for shared output buffers) so the execution order of
/// distinct tiles cannot influence results.
///
/// This is the one dispatcher of the layer: [`par_chunks_mut`] and
/// [`par_reduce_tiles`] are adapters over it.
pub fn par_tiles<F>(n_items: usize, tile_len: usize, work_per_item: usize, threshold: usize, f: F)
where
    F: Fn(Tile) + Sync,
{
    if n_items == 0 {
        return;
    }
    let tile_len = tile_len.max(1);
    let tiles = n_items.div_ceil(tile_len);
    let m = metrics();
    m.calls.incr();
    m.tiles.add(tiles as u64);
    let threads = num_threads().min(tiles);
    if threads <= 1 || n_items.saturating_mul(work_per_item) < threshold {
        neurodeanon_obs::span::detached(|| {
            for t in 0..tiles {
                f(make_tile(t, tile_len, n_items));
            }
        });
        return;
    }
    let traced = neurodeanon_obs::enabled();
    let mut busy = vec![0u64; if traced { threads } else { 0 }];
    {
        let bshare = DisjointMut::new(&mut busy);
        let worker = |w: usize| {
            let t0 = traced.then(Instant::now);
            for t in (w..tiles).step_by(threads) {
                f(make_tile(t, tile_len, n_items));
            }
            if let Some(t0) = t0 {
                // SAFETY: worker `w` is the only writer of slot `w`.
                unsafe { *bshare.get(w) = t0.elapsed().as_nanos() as u64 };
            }
        };
        std::thread::scope(|s| {
            let worker = &worker;
            for w in 1..threads {
                s.spawn(move || worker(w));
            }
            neurodeanon_obs::span::detached(|| worker(0));
        });
    }
    record_busy(&busy);
}

/// Splits `data` into fixed `chunk_len`-element chunks and runs
/// `f(chunk_index, chunk)` once per chunk: [`par_tiles`] over `data`, chunk
/// `i` being tile `i`.
///
/// Chunk boundaries depend only on `data.len()` and `chunk_len`, so a kernel
/// whose chunk result depends only on `(chunk_index, chunk)` is bit-identical
/// at any thread count. This is the workhorse for row-partitioned outputs
/// (matmul row panels, z-scoring, per-point t-SNE gradient rows, one
/// connectome per subject at cohort ingest).
pub fn par_chunks_mut<T, F>(
    data: &mut [T],
    chunk_len: usize,
    work_per_item: usize,
    threshold: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let share = DisjointMut::new(data);
    par_tiles(share.len(), chunk_len, work_per_item, threshold, |tile| {
        // SAFETY: tiles partition `0..data.len()`, so tile `i` alone owns
        // chunk `i`.
        f(tile.index, unsafe { share.slice(tile.start, tile.len()) })
    });
}

/// Deterministic tiled reduction.
///
/// Computes one partial per fixed tile of `0..n_items` through [`par_tiles`]
/// (each tile writes its own slot), then folds `init` with the partials **in
/// tile index order** on the calling thread. The fold never depends on
/// which thread produced a partial, so the result is bit-identical at any
/// thread count — the floating-point merge tree is part of the kernel's
/// definition, not an execution accident.
pub fn par_reduce_tiles<R, F, G>(
    n_items: usize,
    tile_len: usize,
    work_per_item: usize,
    threshold: usize,
    init: R,
    tile_fn: F,
    mut fold: G,
) -> R
where
    R: Send,
    F: Fn(Tile) -> R + Sync,
    G: FnMut(R, R) -> R,
{
    let mut partials: Vec<Option<R>> = (0..n_items.div_ceil(tile_len.max(1)))
        .map(|_| None)
        .collect();
    let slots = DisjointMut::new(&mut partials);
    par_tiles(n_items, tile_len, work_per_item, threshold, |tile| {
        // SAFETY: tile `i` is the only writer of slot `i`.
        unsafe { *slots.get(tile.index) = Some(tile_fn(tile)) };
    });
    partials
        .into_iter()
        .fold(init, |acc, p| fold(acc, p.expect("every tile ran")))
}

/// A copyable, `Sync` view of a mutable slice for kernels that hand
/// **disjoint** index sets to different threads (Jacobi column pairs,
/// upper-triangle tile outputs, condensed-distance row segments).
///
/// Safe-Rust chunking ([`par_chunks_mut`]) cannot express "tile `(bi, bj)`
/// owns rows `bi` columns `bj`" or "this pair owns columns `p` and `q`";
/// this wrapper shifts the aliasing proof to the caller. All accessors are
/// `unsafe` and take `self` by value (the struct is `Copy`).
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

impl<T> Clone for DisjointMut<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DisjointMut<'_, T> {}

// SAFETY: the wrapper only hands out mutable access through `unsafe`
// methods whose contract requires disjointness; moving/sharing the handle
// itself is no more capable than sharing `&mut [T]` split into parts.
unsafe impl<T: Send> Send for DisjointMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    /// Wraps a mutable slice. The borrow lasts for `'a`, so the compiler
    /// still prevents use of `data` while handles are alive.
    pub fn new(data: &'a mut [T]) -> Self {
        DisjointMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _borrow: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    /// `true` if the underlying slice is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Mutable subslice `[start, start + len)`.
    ///
    /// # Safety
    /// No other thread (or handle copy) may access an overlapping range for
    /// the lifetime of the returned slice, and the range must be in bounds.
    #[inline]
    pub unsafe fn slice(self, start: usize, len: usize) -> &'a mut [T] {
        debug_assert!(start.checked_add(len).is_some_and(|end| end <= self.len));
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Mutable reference to element `index`.
    ///
    /// # Safety
    /// No other thread (or handle copy) may access `index` concurrently, and
    /// `index` must be in bounds.
    #[inline]
    pub unsafe fn get(self, index: usize) -> &'a mut T {
        debug_assert!(index < self.len);
        &mut *self.ptr.add(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn env_parse_clamps_to_cores() {
        assert_eq!(parse_env_threads("1", 4), 1);
        assert_eq!(parse_env_threads("3", 4), 3);
        assert_eq!(parse_env_threads("100", 4), 4);
        assert_eq!(parse_env_threads("0", 4), 1);
        assert_eq!(parse_env_threads(" 2 ", 4), 2);
        // Malformed values fall back to the capped core count.
        assert_eq!(parse_env_threads("many", 4), 4);
        assert_eq!(parse_env_threads("", 32), DEFAULT_THREAD_CAP);
    }

    #[test]
    fn with_thread_count_sets_and_restores() {
        let outer = num_threads();
        let inner = with_thread_count(3, || {
            // Nested overrides shadow and restore.
            let nested = with_thread_count(5, num_threads);
            assert_eq!(nested, 5);
            num_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(num_threads(), outer);
    }

    #[test]
    fn with_thread_count_clamps() {
        assert_eq!(with_thread_count(0, num_threads), 1);
        assert_eq!(with_thread_count(10_000, num_threads), MAX_THREAD_OVERRIDE);
    }

    #[test]
    fn tile_boundaries_cover_range_exactly_once() {
        for n in [1usize, 5, 16, 17, 100] {
            for tl in [1usize, 4, 7, 100] {
                let tiles = n.div_ceil(tl);
                let mut seen = vec![0usize; n];
                for t in 0..tiles {
                    let tile = make_tile(t, tl, n);
                    assert!(!tile.is_empty());
                    assert!(tile.len() <= tl);
                    for i in tile.range() {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "n={n} tl={tl}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_with_its_index() {
        for threads in [1usize, 2, 8] {
            with_thread_count(threads, || {
                let mut data = vec![0usize; 103];
                // Threshold 0 forces the parallel path whenever threads > 1.
                par_chunks_mut(&mut data, 10, 1, 0, |i, chunk| {
                    for v in chunk {
                        *v = i + 1;
                    }
                });
                for (k, &v) in data.iter().enumerate() {
                    assert_eq!(v, k / 10 + 1);
                }
            });
        }
    }

    #[test]
    fn par_tiles_with_disjoint_output_matches_sequential() {
        let expect: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for threads in [1usize, 2, 8] {
            with_thread_count(threads, || {
                let mut out = vec![0usize; 97];
                {
                    let share = DisjointMut::new(&mut out);
                    par_tiles(97, 8, 1, 0, |tile| {
                        for i in tile.range() {
                            // SAFETY: tiles partition 0..97 disjointly.
                            unsafe { *share.get(i) = i * 3 };
                        }
                    });
                }
                assert_eq!(out, expect);
            });
        }
    }

    #[test]
    fn par_reduce_tiles_folds_in_tile_order() {
        // A non-commutative fold (sequence concatenation) exposes any
        // thread-dependent merge order.
        let reduce = || {
            par_reduce_tiles(
                23,
                4,
                1,
                0,
                Vec::new(),
                |tile| tile.range().collect::<Vec<usize>>(),
                |mut acc: Vec<usize>, part| {
                    acc.extend(part);
                    acc
                },
            )
        };
        let seq = with_thread_count(1, reduce);
        assert_eq!(seq, (0..23).collect::<Vec<_>>());
        for threads in [2usize, 3, 8] {
            assert_eq!(with_thread_count(threads, reduce), seq);
        }
    }

    #[test]
    fn below_threshold_runs_inline() {
        // With an enormous threshold the parallel path must not spawn; we
        // can't observe threads directly, but inline execution preserves
        // strict tile order, which this asserts via an order log.
        with_thread_count(8, || {
            let mut order = Vec::new();
            let log = std::sync::Mutex::new(&mut order);
            par_tiles(40, 4, 1, usize::MAX, |tile| {
                log.lock().unwrap().push(tile.index);
            });
            assert_eq!(order, (0..10).collect::<Vec<_>>());
        });
    }
}
