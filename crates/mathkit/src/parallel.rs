//! Deterministic data-parallel helpers for the hot batch kernels.
//!
//! The `rayon` cargo feature gates the actual threading (the offline build
//! container has no rayon crate, so the implementation uses `std::thread`
//! scoped threads with a work-stealing-free chunk queue). The helpers are
//! **bit-deterministic**: work is split into fixed-size chunks and results
//! are merged in chunk-index order, so the output is identical whatever the
//! thread count — including one. With the feature disabled the same chunked
//! algorithm runs sequentially, producing the same bits.
//!
//! Thread count comes from `std::thread::available_parallelism`, clamped by
//! the `GHSOM_THREADS` environment variable when set (handy for
//! single-thread baselines in benchmarks). An outer orchestration layer —
//! the sharded serving plane — can additionally pin the *calling thread* to
//! a fixed budget with [`with_thread_cap`], which takes precedence over the
//! environment and keeps shard workers from spawning nested worker pools.
//!
//! The budget is resolved only when there is a choice to make. A call of
//! zero or one chunk runs inline on the calling thread without resolving
//! it, and a cap of 1 resolves to 1 without reading the hardware count:
//! `available_parallelism` reads cgroup files on Linux and costs tens of
//! microseconds, more than a whole small-batch kernel call. Calls of two or
//! more chunks resolve it every time; they spawn scoped threads, which cost
//! more than the probe.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Per-thread override consulted before the environment. `None` means
    /// "no override"; `Some(n)` caps this thread's helpers at `n` workers.
    static THREAD_CAP: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's parallel helpers capped at `cap` workers
/// (clamped to at least 1), restoring the previous cap afterwards — also on
/// panic.
///
/// The cap applies to the calling thread only and takes precedence over
/// `GHSOM_THREADS`. Its purpose is nested-parallelism suppression: when an
/// outer layer (e.g. a sharded engine) has already split the work across N
/// OS threads, each worker runs the inner kernels under
/// `with_thread_cap(1, ..)` so the per-shard walk stays sequential instead
/// of oversubscribing the machine with N nested pools.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_CAP.with(|c| c.replace(Some(cap.max(1)))));
    f()
}

/// Pure thread-count resolution, split out from [`max_threads`] so the
/// parse/clamp policy is unit-testable without touching the process
/// environment.
///
/// Policy:
/// - `raw == None` (variable unset) → `hardware`.
/// - Unparsable values (empty, garbage, negative) → `hardware`; a malformed
///   knob must never change behaviour, only an explicit one.
/// - `0` → `hardware` ("auto": use everything), the conventional meaning of
///   a zero thread-count knob.
/// - `n >= 1` → `min(n, hardware)`. These kernels are CPU-bound with no
///   blocking, so threads beyond the core count only add contention; more
///   importantly an accidental `GHSOM_THREADS=1000000` must not try to
///   spawn a million scoped threads.
///
/// The result is always at least 1, even if `hardware` is reported as 0.
pub fn resolve_threads(raw: Option<&str>, hardware: usize) -> usize {
    let hardware = hardware.max(1);
    match raw.and_then(|v| v.trim().parse::<usize>().ok()) {
        None | Some(0) => hardware,
        Some(n) => n.min(hardware),
    }
}

/// The number of worker threads parallel helpers may use on this thread.
///
/// Resolution order: the calling thread's [`with_thread_cap`] override (if
/// any), then the `GHSOM_THREADS` environment variable, then the machine's
/// available parallelism. `GHSOM_THREADS=1` forces sequential execution;
/// `0`, unset, or invalid values mean "auto" (all available cores); values
/// above the core count are clamped down to it (see [`resolve_threads`] for
/// the full policy).
///
/// The hardware count is read only when the answer depends on it: a cap of
/// 1 returns 1 without asking. `available_parallelism` is not free — on
/// Linux it reads the cgroup CPU quota files, tens of microseconds per call
/// — and it is deliberately not cached, so a runtime change of
/// `GHSOM_THREADS` or of the cgroup quota is seen by the next call.
pub fn max_threads() -> usize {
    let cap = THREAD_CAP.with(|c| c.get());
    if cap == Some(1) {
        return 1;
    }
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(cap) = cap {
        return cap.min(hardware).max(1);
    }
    let raw = std::env::var("GHSOM_THREADS").ok();
    resolve_threads(raw.as_deref(), hardware)
}

/// Splits `0..total` into `chunk`-sized ranges, maps each through `f`, and
/// returns the results in chunk order.
///
/// Deterministic: the chunk partition depends only on `total` and `chunk`,
/// never on the thread count. Panics in workers propagate.
pub fn par_map_chunks<R, F>(total: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let nchunks = total.div_ceil(chunk);
    let range_of = |i: usize| i * chunk..((i + 1) * chunk).min(total);
    run_indexed(nchunks, move |i| f(range_of(i)))
}

/// Maps `f` over `items`, returning results in item order; parallel when the
/// `rayon` feature is enabled and the machine has more than one thread.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_indexed(items.len(), move |i| f(&items[i]))
}

#[cfg(feature = "rayon")]
fn run_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    // One chunk never spawns, so it must not pay for the thread-budget
    // probe either (see `max_threads`): small batches dispatch for free.
    if n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = max_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|o| o.expect("all chunks completed")) // LINT-ALLOW(no-panic): the scoped workers send every index exactly once before the channel closes
        .collect()
}

#[cfg(not(feature = "rayon"))]
fn run_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    (0..n).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_in_order() {
        let sums = par_map_chunks(10, 3, |r| r.clone().sum::<usize>());
        assert_eq!(sums, vec![3, 12, 21, 9]);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map_chunks(0, 4, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn single_chunk_runs_inline() {
        let caller = std::thread::current().id();
        let run = || par_map_chunks(3, 100, |r| (r.len(), std::thread::current().id()));
        for out in [run(), with_thread_cap(1, run), with_thread_cap(4, run)] {
            assert_eq!(out, vec![(3, caller)], "one chunk must run on the caller");
        }
        assert_eq!(with_thread_cap(1, max_threads), 1);
    }

    #[test]
    fn resolve_unset_uses_hardware() {
        assert_eq!(resolve_threads(None, 8), 8);
        assert_eq!(resolve_threads(None, 1), 1);
    }

    #[test]
    fn resolve_zero_means_auto() {
        assert_eq!(resolve_threads(Some("0"), 8), 8);
        assert_eq!(resolve_threads(Some(" 0 "), 3), 3);
    }

    #[test]
    fn resolve_clamps_above_hardware() {
        assert_eq!(resolve_threads(Some("64"), 8), 8);
        assert_eq!(resolve_threads(Some("1000000"), 4), 4);
        assert_eq!(resolve_threads(Some("2"), 8), 2);
        assert_eq!(resolve_threads(Some("8"), 8), 8);
    }

    #[test]
    fn resolve_rejects_garbage() {
        assert_eq!(resolve_threads(Some(""), 6), 6);
        assert_eq!(resolve_threads(Some("abc"), 6), 6);
        assert_eq!(resolve_threads(Some("-3"), 6), 6);
        assert_eq!(resolve_threads(Some("2.5"), 6), 6);
    }

    #[test]
    fn resolve_survives_zero_hardware() {
        // `available_parallelism` can in principle report an error upstream;
        // the resolver itself must still never return 0.
        assert_eq!(resolve_threads(None, 0), 1);
        assert_eq!(resolve_threads(Some("4"), 0), 1);
    }

    #[test]
    fn thread_cap_overrides_and_restores() {
        let outer = max_threads();
        let inner = with_thread_cap(1, max_threads);
        assert_eq!(inner, 1);
        assert_eq!(max_threads(), outer, "cap must be restored on exit");
        // Nested caps restore the *previous* cap, not clear it.
        with_thread_cap(1, || {
            with_thread_cap(4, || assert!(max_threads() >= 1));
            assert_eq!(max_threads(), 1);
        });
    }

    #[test]
    fn thread_cap_restored_on_panic() {
        let before = max_threads();
        let result = std::panic::catch_unwind(|| {
            with_thread_cap(1, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn capped_helpers_still_produce_identical_results() {
        let seq = with_thread_cap(1, || par_map_chunks(100, 7, |r| r.sum::<usize>()));
        let par = par_map_chunks(100, 7, |r| r.sum::<usize>());
        assert_eq!(seq, par);
    }
}
