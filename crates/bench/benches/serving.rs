//! Serving-plane benchmarks: the compiled flat-arena walker vs the
//! training-time node tree, on the paths a deployed detector actually
//! runs.
//!
//! Three scenarios:
//!
//! * `batch_scoring` — the acceptance case: leaf-QE scoring of 10k
//!   dim-41 samples on a single 32×32 map (the BENCH_1 shape), tree
//!   (`GhsomModel::score_matrix`) vs compiled (`CompiledGhsom::score_all`)
//!   vs the zero-copy `SnapshotView`, all pinned to one thread. The
//!   acceptance bar is compiled ≥ 1.3× tree.
//! * `hierarchy_scoring` — the same comparison on a real trained
//!   hierarchy (many maps, frontier routing), where the tree walker also
//!   pays per-map submatrix materialization.
//! * `streaming` — end-to-end records/s through
//!   `StreamingDetector::observe_batch` over synthetic flow windows with
//!   the full hybrid detector (labels + QE threshold), tree vs compiled
//!   plane.
//!
//! Numbers land in `target/shim-criterion/serving.json`; the tracked
//! trajectory is `BENCH_2.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use detect::prelude::*;
use ghsom_bench::harness::{self, prepare, RunConfig};
use ghsom_bench::pin::PinnedThreads;
use ghsom_core::{GhsomConfig, GhsomModel, MapNode};
use ghsom_serve::{Compile, SnapshotView};
use mathkit::distance;
use som::map::Som;

/// Records per streaming window (a ~5 s flow window at typical rates).
const WINDOW: usize = 512;

/// Builds the acceptance-case model: one 32×32 map over the KDD-style
/// feature space, assembled directly so the shape is exact.
fn single_map_model(x: &mathkit::Matrix) -> GhsomModel {
    let som = Som::from_data_sample(32, 32, x, 9).unwrap();
    let units = som.len();
    let mean = x.col_means();
    let mqe0 = x
        .iter_rows()
        .map(|r| distance::euclidean(r, &mean))
        .sum::<f64>()
        / x.rows() as f64;
    let node = MapNode::new(
        som,
        1,
        None,
        vec![None; units],
        vec![0; units],
        vec![0.0; units],
    )
    .unwrap();
    GhsomModel::from_parts(GhsomConfig::default(), mean, mqe0, vec![node]).unwrap()
}

fn bench_batch_scoring(c: &mut Criterion) {
    let data = prepare(&RunConfig {
        n_train: 10_000,
        n_test: 10,
        seed: 5,
    })
    .expect("data generation");
    let x = &data.x_train;
    let model = single_map_model(x);
    let compiled = model.compile().unwrap();
    let snapshot = compiled.to_bytes();
    // Copy to a provably 8-byte-aligned position (a bare Vec<u8> has no
    // alignment guarantee).
    let mut aligned = vec![0u8; snapshot.len() + 8];
    let off = aligned.as_ptr().align_offset(8);
    aligned[off..off + snapshot.len()].copy_from_slice(&snapshot);
    let view = SnapshotView::parse(&aligned[off..off + snapshot.len()]).expect("valid snapshot");

    // Sanity: the three planes agree bit-for-bit before we time them.
    let tree_scores = model.score_matrix(x).unwrap();
    let flat_scores = compiled.score_all(x).unwrap();
    for (a, b) in tree_scores.iter().zip(&flat_scores) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let mut group = c.benchmark_group("serving_batch_scoring");
    group.throughput(Throughput::Elements(x.rows() as u64));
    let _pin = PinnedThreads::single();
    group.bench_with_input(BenchmarkId::new("tree", "1024u"), &model, |b, model| {
        b.iter(|| black_box(model.score_matrix(x).unwrap()));
    });
    group.bench_with_input(
        BenchmarkId::new("compiled", "1024u"),
        &compiled,
        |b, compiled| {
            b.iter(|| black_box(compiled.score_all(x).unwrap()));
        },
    );
    group.bench_with_input(BenchmarkId::new("view", "1024u"), &view, |b, view| {
        b.iter(|| black_box(view.score_all(x).unwrap()));
    });
    group.finish();
}

fn bench_hierarchy_scoring(c: &mut Criterion) {
    let data = prepare(&RunConfig {
        n_train: 8_000,
        n_test: 6_000,
        seed: 42,
    })
    .expect("data generation");
    let model = harness::train_default_model(&data, 42).expect("training");
    let compiled = model.compile().unwrap();
    let x = &data.x_test;

    let mut group = c.benchmark_group("serving_hierarchy_scoring");
    group.throughput(Throughput::Elements(x.rows() as u64));
    let maps = format!("{}maps", model.map_count());
    let _pin = PinnedThreads::single();
    group.bench_with_input(BenchmarkId::new("tree", &maps), &model, |b, model| {
        b.iter(|| black_box(model.score_matrix(x).unwrap()));
    });
    group.bench_with_input(
        BenchmarkId::new("compiled", &maps),
        &compiled,
        |b, compiled| {
            b.iter(|| black_box(compiled.score_all(x).unwrap()));
        },
    );
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let data = prepare(&RunConfig {
        n_train: 8_000,
        n_test: 6_000,
        seed: 42,
    })
    .expect("data generation");
    let model = harness::train_default_model(&data, 42).expect("training");
    let hybrid = HybridGhsomDetector::fit(
        model,
        &data.x_train,
        &data.train_categories,
        harness::CALIBRATION_PERCENTILE,
    )
    .expect("detector fit");
    let served = harness::compile_detector(&hybrid).expect("compile");
    let x = &data.x_test;
    let windows: Vec<mathkit::Matrix> = (0..x.rows())
        .step_by(WINDOW)
        .map(|start| {
            let end = (start + WINDOW).min(x.rows());
            mathkit::Matrix::from_rows((start..end).map(|i| x.row(i).to_vec()).collect()).unwrap()
        })
        .collect();

    let mut group = c.benchmark_group("serving_streaming");
    group.throughput(Throughput::Elements(x.rows() as u64));
    let _pin = PinnedThreads::single();
    group.bench_function("tree_observe_batch", |b| {
        let stream = StreamingDetector::new(hybrid.clone(), 4.0, 1_000);
        b.iter(|| {
            stream.reset();
            let mut flagged = 0usize;
            for w in &windows {
                flagged += stream
                    .observe_batch(w)
                    .unwrap()
                    .iter()
                    .filter(|v| v.anomalous)
                    .count();
            }
            black_box(flagged)
        });
    });
    group.bench_function("compiled_observe_batch", |b| {
        let stream = StreamingDetector::new(served.clone(), 4.0, 1_000);
        b.iter(|| {
            stream.reset();
            let mut flagged = 0usize;
            for w in &windows {
                flagged += stream
                    .observe_batch(w)
                    .unwrap()
                    .iter()
                    .filter(|v| v.anomalous)
                    .count();
            }
            black_box(flagged)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_scoring,
    bench_hierarchy_scoring,
    bench_streaming
);
criterion_main!(benches);
