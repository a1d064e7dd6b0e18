//! The sharded multi-core serving plane.
//!
//! One [`Engine`] already serves batches allocation-free, but on exactly
//! one thread of control per call: `score_records` walks the whole batch
//! on the calling thread (chunk-parallel *inside* the walk under the
//! `rayon` feature, but with one shared frontier). [`ShardedEngine`]
//! scales the other axis — it splits each incoming batch into contiguous
//! per-shard chunks and scores the chunks on independent OS threads, each
//! with its own thread-local `FeatureMatrix` scratch (the zero-alloc
//! transform path makes shard workers fully independent: no shared
//! mutable state anywhere on the stateless scoring path).
//!
//! # Exactness
//!
//! The sharded plane is **bit-identical** to the single-engine path, by
//! construction rather than by tolerance:
//!
//! * **Stateless scoring** (`score_records`): each record's verdict
//!   depends only on that record and the frozen artifact, so chunking is
//!   pure partitioning. Chunks are contiguous and results are merged in
//!   chunk-index order — the output vector equals the unsharded one
//!   verdict for verdict.
//! * **Streaming** (`observe_records`): the adaptive `mean + k·σ`
//!   threshold is a feedback loop — record *i*'s verdict depends on which
//!   earlier records fed the baseline — so the fold is inherently
//!   sequential. The sharded path therefore parallelizes exactly the
//!   stateless part (scoring), concatenates the per-chunk verdicts back
//!   into arrival order, and folds them through the **single** engine's
//!   streaming state (`Engine::observe_prescored`, one lock acquisition).
//!   Verdicts, `StreamStats` counters and the exported
//!   [`StreamState`] come out bit-identical
//!   to [`Engine::observe_records`] — any shard count, any chunk split.
//!
//! Per-shard *independent* baselines (K detectors each folding its own
//! sub-stream) are deliberately **not** what this module does: merging K
//! independently-thresholded Welford states cannot reproduce the
//! single-stream feedback loop bit-for-bit (the threshold each record saw
//! would differ). `detect`'s `StreamState::merge`/`merge_all` exist for
//! that *approximate* topology; the serving plane keeps the exact one.
//!
//! # Nested parallelism
//!
//! Shard workers run the inner engine call under
//! [`mathkit::parallel::with_thread_cap`]`(1, ..)`, so the per-chunk
//! arena walk stays sequential instead of every worker spawning its own
//! nested pool. The shard count is the only parallelism knob on this
//! path; `GHSOM_THREADS` keeps governing unsharded calls.
//!
//! # Hot reload
//!
//! A `ShardedEngine` is a thin view over an `Arc<Engine>`: tenants served
//! through [`EngineRegistry::sharded`](crate::EngineRegistry::sharded)
//! re-resolve the live engine per batch, so `swap`/`swap_carrying` (and
//! the `SpoolWatcher` on top) work unchanged — in-flight batches finish
//! on the engine they started with, the next batch serves from the new
//! one, and a carried baseline keeps updating through the same
//! `StreamingDetector` the swap transplanted it into.

use std::sync::Arc;

use detect::online::StreamState;
use detect::prelude::{HybridVerdict, StreamStats, StreamVerdict};
use mathkit::parallel::with_thread_cap;
use traffic::ConnectionRecord;

use crate::engine::Engine;
use crate::ServeError;

/// Smallest chunk [`chunk_len`] splits off: at ~600k rec/s a chunk this
/// size costs ~100µs of walk time, comfortably above thread-spawn
/// overhead, so tiny batches never pay for workers they cannot amortize.
/// The fleet router applies the same floor per node.
pub const MIN_SHARD_CHUNK: usize = 64;

/// Contiguous chunk width for `n` records over at most `workers`
/// workers: width = ceil(n / w), where `w` is as many workers as keep
/// every chunk at [`MIN_SHARD_CHUNK`] records or more (at least one). A
/// width of `n` or more means a single chunk.
pub fn chunk_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.min(n / MIN_SHARD_CHUNK).max(1))
}

/// A fixed-width multi-core serving view over one [`Engine`].
///
/// Construction is cheap (an `Arc` clone and an integer); the engine
/// itself is shared, not duplicated — per-thread scratch buffers are
/// thread-local inside the engine's fused transform→walk path, so shard
/// workers need no per-shard state of their own. See the [module
/// docs](self) for the exactness and hot-reload contracts.
///
/// # Example
///
/// ```
/// use ghsom_serve::{Engine, EngineConfig, ShardedEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (train, test) = traffic::synth::kdd_train_test(600, 100, 42)?;
/// let engine = Engine::fit(&EngineConfig::default(), &train)?;
/// let single = engine.score_records(test.records())?;
///
/// let sharded = ShardedEngine::new(engine, 4);
/// let parallel = sharded.score_records(test.records())?;
/// assert_eq!(single, parallel); // bit-identical, not "close"
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    engine: Arc<Engine>,
    shards: usize,
}

impl ShardedEngine {
    /// Wraps `engine` for service across `shards` worker threads
    /// (clamped to at least 1; `1` behaves exactly like the engine
    /// itself, with no threads spawned).
    pub fn new(engine: Engine, shards: usize) -> Self {
        Self::from_shared(Arc::new(engine), shards)
    }

    /// [`ShardedEngine::new`] over an engine that is already shared —
    /// the registry integration point, but also useful to serve one
    /// artifact at several widths without cloning it.
    pub fn from_shared(engine: Arc<Engine>, shards: usize) -> Self {
        Self {
            engine,
            shards: shards.max(1),
        }
    }

    /// The shared engine this view serves from.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The configured shard width (worker-thread budget per batch).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The scatter/merge core shared by both batched entry points: score
    /// contiguous chunks on scoped worker threads (each capped to one
    /// inner thread), then splice the results back in chunk order.
    ///
    /// Deterministic by construction: the chunk partition depends only on
    /// the record count and the shard width, results merge in chunk-index
    /// order, and when several chunks fail the error of the **earliest**
    /// chunk wins — the same error the unsharded call would have hit
    /// first.
    fn scatter_score(
        &self,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, ServeError> {
        // One chunk is served inline, with no workers.
        let chunk = chunk_len(records.len(), self.shards);
        if chunk >= records.len() {
            return self.engine.score_records(records);
        }
        let parts: Vec<Result<Vec<HybridVerdict>, ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = records
                .chunks(chunk)
                .map(|part| {
                    let engine = &self.engine;
                    scope.spawn(move || with_thread_cap(1, || engine.score_records(part)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        });
        let mut out = Vec::with_capacity(records.len());
        for part in parts {
            out.extend(part?);
        }
        Ok(out)
    }

    /// Stateless batch scoring across the shard workers — output is
    /// bit-identical to [`Engine::score_records`] on the same slice
    /// (same order, same scores, same flags, same categories).
    ///
    /// # Errors
    ///
    /// Pipeline and scoring errors propagate as typed [`ServeError`]s;
    /// with multiple failing chunks, the earliest chunk's error is
    /// reported (the one the unsharded call would have hit first).
    pub fn score_records(
        &self,
        records: &[ConnectionRecord],
    ) -> Result<Vec<HybridVerdict>, ServeError> {
        self.scatter_score(records)
    }

    /// Streams a burst through the adaptive threshold using the shard
    /// workers for the stateless scoring half, then folding the verdicts
    /// through the engine's **single** streaming state in arrival order —
    /// verdicts and stream state are bit-identical to
    /// [`Engine::observe_records`] (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Pipeline and scoring errors propagate; the streaming state is not
    /// updated in that case (the fold only runs once every chunk has
    /// scored successfully).
    pub fn observe_records(
        &self,
        records: &[ConnectionRecord],
    ) -> Result<Vec<StreamVerdict>, ServeError> {
        let scored = self.scatter_score(records)?;
        Ok(self.engine.observe_prescored(&scored))
    }

    /// Single-record scoring — delegates to [`Engine::score_record`]
    /// (one record cannot amortize a worker thread).
    ///
    /// # Errors
    ///
    /// See [`Engine::score_record`].
    pub fn score_record(&self, record: &ConnectionRecord) -> Result<HybridVerdict, ServeError> {
        self.engine.score_record(record)
    }

    /// Single-record streaming — delegates to [`Engine::observe`].
    ///
    /// # Errors
    ///
    /// See [`Engine::observe`].
    pub fn observe(&self, record: &ConnectionRecord) -> Result<StreamVerdict, ServeError> {
        self.engine.observe(record)
    }

    /// Session counters of the shared engine — see
    /// [`Engine::stream_stats`].
    pub fn stream_stats(&self) -> StreamStats {
        self.engine.stream_stats()
    }

    /// Exports the shared engine's complete adaptive streaming state —
    /// see [`Engine::stream_state`]. Because sharded observation folds
    /// through that single state, the export is bit-compatible with the
    /// unsharded engine's (same counters, same Welford moments), and
    /// STREAM-section bundles / `swap_carrying` work unchanged.
    pub fn stream_state(&self) -> StreamState {
        self.engine.stream_state()
    }

    /// Restores an exported streaming state into the shared engine — see
    /// [`Engine::restore_stream`].
    ///
    /// # Errors
    ///
    /// See [`Engine::restore_stream`].
    pub fn restore_stream(&self, state: StreamState) -> Result<(), ServeError> {
        self.engine.restore_stream(state)
    }

    /// Resets the shared engine's adaptive streaming state.
    pub fn reset_stream(&self) {
        self.engine.reset_stream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn fitted() -> (Engine, Vec<ConnectionRecord>) {
        let (train, test) = traffic::synth::kdd_train_test(400, 600, 7).expect("synth dataset");
        let engine = Engine::fit(
            &EngineConfig {
                warmup: 32,
                ..EngineConfig::default()
            },
            &train,
        )
        .expect("fit engine");
        (engine, test.records().to_vec())
    }

    #[test]
    fn chunk_len_respects_floor_and_width() {
        // (records, workers, width): the ShardedEngine cases, where a
        // width >= records means "serve inline", then the FleetClient
        // cases over healthy nodes.
        let cases = [
            // Below the floor, or width 1: one chunk.
            (0, 4, 0),
            (MIN_SHARD_CHUNK * 2 - 1, 4, MIN_SHARD_CHUNK * 2 - 1),
            (1_000_000, 1, 1_000_000),
            // Enough records for two workers but not four.
            (MIN_SHARD_CHUNK * 2, 4, MIN_SHARD_CHUNK),
            // Plenty of records: all four workers, balanced split.
            (1000, 4, 250),
            // Below the per-node floor everything stays on one node.
            (63, 3, 63),
            (127, 3, 127),
            // At 3×64 the batch splits three ways.
            (192, 3, 64),
            // More nodes than useful chunks: width respects the floor.
            (130, 16, 65),
            (1, 8, 1),
        ];
        for (n, workers, width) in cases {
            assert_eq!(chunk_len(n, workers), width, "n={n} workers={workers}");
        }
        // Shard width clamps to at least 1.
        let (engine, _) = fitted();
        assert_eq!(ShardedEngine::new(engine, 0).shards(), 1);
    }

    #[test]
    fn sharded_scoring_is_bit_identical_across_widths() {
        let (engine, records) = fitted();
        let baseline = engine.score_records(&records).expect("unsharded");
        let shared = Arc::new(engine);
        for shards in [1, 2, 3, 4, 8] {
            let sharded = ShardedEngine::from_shared(shared.clone(), shards);
            let got = sharded.score_records(&records).expect("sharded");
            assert_eq!(got.len(), baseline.len());
            for (g, b) in got.iter().zip(&baseline) {
                assert_eq!(g.score.to_bits(), b.score.to_bits());
                assert_eq!(g.anomalous, b.anomalous);
                assert_eq!(g.category, b.category);
            }
        }
    }

    #[test]
    fn sharded_observe_matches_single_engine_verdicts_and_state() {
        let (reference, records) = fitted();
        let expected = reference.observe_records(&records).expect("unsharded");

        let (engine, _) = fitted();
        let sharded = ShardedEngine::new(engine, 4);
        let got = sharded.observe_records(&records).expect("sharded");

        // Bitwise, not PartialEq: warmup verdicts carry a NaN threshold,
        // and NaN != NaN would fail an equality that is in fact exact.
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.score.to_bits(), e.score.to_bits());
            assert_eq!(g.anomalous, e.anomalous);
            assert_eq!(g.threshold.to_bits(), e.threshold.to_bits());
        }
        let a = reference.stream_state();
        let b = sharded.stream_state();
        assert_eq!(a, b, "merged stream state must be bit-compatible");
    }

    #[test]
    fn tiny_batches_and_empty_input_serve_inline() {
        let (engine, records) = fitted();
        let sharded = ShardedEngine::new(engine, 8);
        assert!(sharded.score_records(&[]).expect("empty").is_empty());
        let few = &records[..3];
        let got = sharded.score_records(few).expect("tiny");
        assert_eq!(got.len(), 3);
        let single = sharded.score_record(&records[0]).expect("one");
        assert_eq!(single, got[0]);
    }
}
