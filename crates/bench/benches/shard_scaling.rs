//! The multi-core serving plane: `ShardedEngine` throughput at 1/2/4/8
//! shards, and the compiled walk on a deep hierarchy.
//!
//! Two groups:
//!
//! * `shard_scaling` — records/s through
//!   `ShardedEngine::score_records` on the acceptance corpus at shard
//!   widths 1, 2, 4 and 8, plus the streaming path (`observe_records`,
//!   whose threshold fold is sequential by design) at widths 1 and 4.
//!   The width-1 case runs inline on the calling thread — the
//!   single-core baseline every BENCH_*.json number is pinned to; wider
//!   cases spawn their own scoped workers (each internally capped to one
//!   kernel thread), so scaling is governed by the shard width alone,
//!   not `GHSOM_THREADS`. Per-core efficiency = speedup ÷ min(shards,
//!   cores); BENCH_5.json tracks both.
//! * `deep_hierarchy` — leaf scoring on a synthetic 49-map, depth-3
//!   hierarchy (one 4×4 root, a 3×3 child per root unit, two 2×2
//!   grandchildren per child map): exactly the many-tiny-sibling-maps
//!   regime where per-map norm-pruning has nothing to prune and the
//!   walk's fixed per-map cost shows. `walk` is the compiled arena walk
//!   (one kernel call per visited map), `tree` the training-side
//!   hierarchy. The CI smoke gate requires `walk` to stay at least 1.25×
//!   faster than `tree`.
//!
//! Set `SHARD_BENCH_QUICK=1` for the CI smoke mode (small train/test
//! split); full-size numbers are tracked in `BENCH_5.json`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ghsom_bench::harness::{prepare, RunConfig};
use ghsom_bench::pin::PinnedThreads;
use ghsom_core::{GhsomConfig, GhsomModel, MapNode};
use ghsom_serve::{Compile, Engine, EngineConfig, ShardedEngine};
use mathkit::{distance, Matrix};
use som::map::Som;
use traffic::Dataset;

/// `true` when the CI smoke job asks for the quick, small-split mode.
fn quick_mode() -> bool {
    std::env::var("SHARD_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// The acceptance-corpus engine (the `engine.rs` fixture, same seed and
/// GHSOM shape, so BENCH_4 and BENCH_5 numbers are host-comparable).
fn fit_engine() -> (Engine, Dataset) {
    let (n_train, n_test) = if quick_mode() {
        (1_500, 1_500)
    } else {
        (8_000, 6_000)
    };
    let (train, test) = traffic::synth::kdd_train_test(n_train, n_test, 42).expect("data");
    let config = EngineConfig::default()
        .with_ghsom(
            GhsomConfig::default()
                .with_tau1(0.3)
                .with_tau2(0.03)
                .with_max_depth(4)
                .with_epochs(3, 3)
                .with_max_growth_rounds(16)
                .with_max_map_units(256)
                .with_max_total_units(2_000)
                .with_min_unit_samples(10)
                .with_seed(42),
        )
        .with_stream(4.0, 1_000);
    (Engine::fit(&config, &train).expect("engine fit"), test)
}

/// Builds a deep many-small-maps hierarchy directly (no training): a 4×4
/// root where every unit expands into a 3×3 child map, and each child
/// map's first two units expand into 2×2 grandchildren — 49 maps, 288
/// units, depth 3, with 16 fusable siblings at depth 2 and 32 at depth 3.
fn deep_model(x: &Matrix) -> GhsomModel {
    let mean = x.col_means();
    let mqe0 = x
        .iter_rows()
        .map(|r| distance::euclidean(r, &mean))
        .sum::<f64>()
        / x.rows() as f64;

    // BFS layout: node 0 = root, nodes 1..=16 = children, 17.. = leaves.
    let mut nodes = Vec::with_capacity(49);
    let root_som = Som::from_data_sample(4, 4, x, 9).unwrap();
    let root_children: Vec<Option<usize>> = (1..=16).map(Some).collect();
    nodes.push(MapNode::new(root_som, 1, None, root_children, vec![0; 16], vec![0.0; 16]).unwrap());

    let mut next_leaf = 17usize;
    for parent_unit in 0..16 {
        let som = Som::from_data_sample(3, 3, x, 10 + parent_unit as u64).unwrap();
        let mut children = vec![None; 9];
        children[0] = Some(next_leaf);
        children[1] = Some(next_leaf + 1);
        next_leaf += 2;
        nodes.push(
            MapNode::new(
                som,
                2,
                Some((0, parent_unit)),
                children,
                vec![0; 9],
                vec![0.0; 9],
            )
            .unwrap(),
        );
    }
    for (i, parent_node) in (1..=16).flat_map(|n| [n, n]).enumerate() {
        let som = Som::from_data_sample(2, 2, x, 100 + i as u64).unwrap();
        nodes.push(
            MapNode::new(
                som,
                3,
                Some((parent_node, i % 2)),
                vec![None; 4],
                vec![0; 4],
                vec![0.0; 4],
            )
            .unwrap(),
        );
    }
    GhsomModel::from_parts(GhsomConfig::default(), mean, mqe0, nodes).unwrap()
}

fn bench_shard_scaling(c: &mut Criterion) {
    let (engine, test) = fit_engine();
    let records = test.records().to_vec();
    let sharded = ShardedEngine::new(engine, 1);

    // Sanity before timing: every width serves bit-identical verdicts.
    let baseline = sharded.score_records(&records).unwrap();
    for shards in [2usize, 4, 8] {
        let wide = ShardedEngine::from_shared(sharded.engine().clone(), shards);
        let got = wide.score_records(&records).unwrap();
        assert_eq!(got.len(), baseline.len());
        for (g, b) in got.iter().zip(&baseline) {
            assert_eq!(g.score.to_bits(), b.score.to_bits());
            assert_eq!(g.anomalous, b.anomalous);
        }
    }

    let mut group = c.benchmark_group("shard_scaling");
    group.throughput(Throughput::Elements(records.len() as u64));
    // Pin the *kernel* thread count so the width-1 inline case is the
    // single-core baseline; sharded widths spawn their own workers and
    // are unaffected (each worker is capped to one kernel thread).
    let _pin = PinnedThreads::single();
    for shards in [1usize, 2, 4, 8] {
        let view = ShardedEngine::from_shared(sharded.engine().clone(), shards);
        group.bench_with_input(
            BenchmarkId::new("score_records", shards),
            &view,
            |b, view| {
                b.iter(|| black_box(view.score_records(&records).unwrap()));
            },
        );
    }
    for shards in [1usize, 4] {
        let view = ShardedEngine::from_shared(sharded.engine().clone(), shards);
        group.bench_with_input(
            BenchmarkId::new("observe_records", shards),
            &view,
            |b, view| {
                b.iter(|| {
                    view.reset_stream();
                    black_box(view.observe_records(&records).unwrap())
                });
            },
        );
    }
    group.finish();
}

fn bench_deep_hierarchy(c: &mut Criterion) {
    let n_train = if quick_mode() { 2_000 } else { 8_000 };
    let data = prepare(&RunConfig {
        n_train,
        n_test: 10,
        seed: 5,
    })
    .expect("data generation");
    let x = &data.x_train;
    let model = deep_model(x);
    let compiled = model.compile().unwrap();

    // Sanity before timing: both walks agree bit-for-bit.
    let tree = model.score_matrix(x).unwrap();
    let walk = compiled.score_all_view(x.view()).unwrap();
    for (a, b) in tree.iter().zip(&walk) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    let mut group = c.benchmark_group("deep_hierarchy");
    group.throughput(Throughput::Elements(x.rows() as u64));
    let _pin = PinnedThreads::single();
    group.bench_with_input(BenchmarkId::new("tree", "49maps"), &model, |b, model| {
        b.iter(|| black_box(model.score_matrix(x).unwrap()));
    });
    group.bench_with_input(
        BenchmarkId::new("walk", "49maps"),
        &compiled,
        |b, compiled| {
            b.iter(|| black_box(compiled.score_all_view(x.view()).unwrap()));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_shard_scaling, bench_deep_hierarchy);
criterion_main!(benches);
