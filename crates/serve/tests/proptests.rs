//! Property tests of the serving plane: compiled-vs-tree equivalence on
//! random hierarchies (including duplicate-weight ties), batched-walk vs
//! tree and per-sample bit-identity across the kernels' batch-size
//! boundaries, sharded-vs-single-engine bit-identity, snapshot
//! roundtrips, and typed errors on truncated/corrupted/wrong-version
//! bytes.

use std::sync::OnceLock;

use ghsom_core::{GhsomConfig, GhsomModel, MapNode};
use ghsom_serve::{
    Compile, CompiledGhsom, Engine, EngineConfig, ServeError, ShardedEngine, SnapshotView,
};
use mathkit::{Matrix, Metric};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use som::map::Som;
use som::topology::GridTopology;
use traffic::ConnectionRecord;

/// Builds a random multi-level hierarchy directly through
/// `GhsomModel::from_parts` — unlike trained models this covers arbitrary
/// shapes, duplicate codebook rows (tie cases) and ragged child fan-out.
fn random_model(seed: u64, dim: usize, with_ties: bool) -> GhsomModel {
    let mut rng = StdRng::seed_from_u64(seed);
    struct Pending {
        parent: Option<(usize, usize)>,
        depth: usize,
    }
    let mut specs = vec![Pending {
        parent: None,
        depth: 1,
    }];
    let mut nodes: Vec<MapNode> = Vec::new();
    let mut i = 0;
    while i < specs.len() {
        let spec = &specs[i];
        let rows = rng.gen_range(1..4usize);
        let cols = rng.gen_range(if rows == 1 { 2..4usize } else { 1..4usize });
        let units = rows * cols;
        let mut w: Vec<f64> = (0..units * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        if with_ties && units >= 2 {
            // Duplicate unit 0's weights onto the last unit: BMU ties must
            // resolve to the lower index on both planes.
            let (head, tail) = w.split_at_mut((units - 1) * dim);
            tail.copy_from_slice(&head[..dim]);
        }
        let som = Som::from_parts(
            GridTopology::rectangular(rows, cols).unwrap(),
            Matrix::from_flat(units, dim, w).unwrap(),
            Metric::Euclidean,
        )
        .unwrap();
        let mut children = vec![None; units];
        let depth = spec.depth;
        let parent = spec.parent;
        if depth < 3 && specs.len() < 7 {
            for (u, slot) in children.iter_mut().enumerate() {
                if specs.len() < 7 && rng.gen_range(0..100) < 35 {
                    *slot = Some(specs.len());
                    specs.push(Pending {
                        parent: Some((i, u)),
                        depth: depth + 1,
                    });
                }
            }
        }
        let hits: Vec<usize> = (0..units).map(|_| rng.gen_range(0..50usize)).collect();
        let mqe: Vec<f64> = (0..units).map(|_| rng.gen_range(0.0..1.0)).collect();
        nodes.push(MapNode::new(som, depth, parent, children, hits, mqe).unwrap());
        i += 1;
    }
    let mean: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    GhsomModel::from_parts(GhsomConfig::default(), mean, rng.gen_range(0.0..3.0), nodes).unwrap()
}

/// Like [`random_model`], but map sizes mix tiny maps (≤ 9 units, the
/// pruned kernel's exhaustive fast path) with occasional large ones
/// (72..120 units, where norm pruning actually skips groups), so one
/// frontier level spreads over maps served by both kernel routes.
fn random_model_mixed(seed: u64, dim: usize) -> GhsomModel {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517E_D0D0);
    struct Pending {
        parent: Option<(usize, usize)>,
        depth: usize,
    }
    let mut specs = vec![Pending {
        parent: None,
        depth: 1,
    }];
    let mut nodes: Vec<MapNode> = Vec::new();
    let mut i = 0;
    while i < specs.len() {
        let spec = &specs[i];
        let (rows, cols) = if rng.gen_range(0..100) < 30 {
            // Enough groups for norm pruning: 72..120 units.
            (rng.gen_range(9..13usize), rng.gen_range(8..10usize))
        } else {
            let r = rng.gen_range(1..4usize);
            (r, rng.gen_range(if r == 1 { 2..4usize } else { 1..4usize }))
        };
        let units = rows * cols;
        let w: Vec<f64> = (0..units * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let som = Som::from_parts(
            GridTopology::rectangular(rows, cols).unwrap(),
            Matrix::from_flat(units, dim, w).unwrap(),
            Metric::Euclidean,
        )
        .unwrap();
        let mut children = vec![None; units];
        let depth = spec.depth;
        let parent = spec.parent;
        if depth < 4 && specs.len() < 9 {
            for (u, slot) in children.iter_mut().enumerate() {
                if specs.len() < 9 && rng.gen_range(0..100) < 30 {
                    *slot = Some(specs.len());
                    specs.push(Pending {
                        parent: Some((i, u)),
                        depth: depth + 1,
                    });
                }
            }
        }
        let hits: Vec<usize> = (0..units).map(|_| rng.gen_range(0..50usize)).collect();
        let mqe: Vec<f64> = (0..units).map(|_| rng.gen_range(0.0..1.0)).collect();
        nodes.push(MapNode::new(som, depth, parent, children, hits, mqe).unwrap());
        i += 1;
    }
    let mean: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    GhsomModel::from_parts(GhsomConfig::default(), mean, rng.gen_range(0.0..3.0), nodes).unwrap()
}

/// Random inputs, biased onto codebook rows so exact-hit ties are
/// exercised.
fn random_inputs(model: &GhsomModel, seed: u64, n: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let dim = model.dim();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            if rng.gen_range(0..100) < 30 {
                // Exactly on a random unit's weights (distance 0, tie with
                // any duplicate row).
                let node = rng.gen_range(0..model.map_count());
                let som = model.nodes()[node].som();
                let unit = rng.gen_range(0..som.len());
                som.unit_weight(unit).to_vec()
            } else {
                (0..dim).map(|_| rng.gen_range(-2.5..2.5)).collect()
            }
        })
        .collect();
    Matrix::from_rows(rows).unwrap()
}

/// Copies `raw` to an 8-byte-aligned position inside a padded buffer.
fn aligned_copy(raw: &[u8]) -> (Vec<u8>, usize) {
    let mut buf = vec![0u8; raw.len() + 8];
    let off = buf.as_ptr().align_offset(8);
    buf[off..off + raw.len()].copy_from_slice(raw);
    (buf, off)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled arena reproduces the tree's projections bit-for-bit:
    /// identical paths (same nodes, same units — ties included) and
    /// identical distances, on random hierarchies and random inputs.
    #[test]
    fn compiled_projections_match_the_tree(seed in 0u64..200, dim in 2usize..6) {
        let model = random_model(seed, dim, seed % 2 == 0);
        let compiled = model.compile().unwrap();
        let data = random_inputs(&model, seed, 40);
        let tree = model.project_batch(&data).unwrap();
        let flat = compiled.project_batch(&data).unwrap();
        prop_assert_eq!(tree.len(), flat.len());
        for (t, f) in tree.iter().zip(&flat) {
            prop_assert_eq!(t.steps().len(), f.steps().len());
            for (a, b) in t.steps().iter().zip(f.steps()) {
                prop_assert_eq!(a.node, b.node);
                prop_assert_eq!(a.unit, b.unit);
                prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
        }
        // The single-sample walk agrees with the batched walk.
        for x in data.iter_rows().take(8) {
            let single = compiled.project(x).unwrap();
            let tree_single = model.project(x).unwrap();
            prop_assert_eq!(single.leaf_key(), tree_single.leaf_key());
            prop_assert_eq!(
                single.leaf_qe().to_bits(),
                tree_single.leaf_qe().to_bits()
            );
        }
        // And the leaf-only scorer matches the full projections.
        let scores = compiled.score_all(&data).unwrap();
        for (p, s) in flat.iter().zip(&scores) {
            prop_assert_eq!(p.leaf_qe().to_bits(), s.to_bits());
        }
    }

    /// Snapshot encode→decode is the identity, both through the owned
    /// decoder and the zero-copy view.
    #[test]
    fn snapshot_roundtrips_exactly(seed in 0u64..200, dim in 2usize..6) {
        let model = random_model(seed, dim, seed % 3 == 0);
        let compiled = model.compile().unwrap();
        let raw = compiled.to_bytes();
        let back = CompiledGhsom::from_bytes(&raw).unwrap();
        prop_assert_eq!(&back, &compiled);
        let (buf, off) = aligned_copy(&raw);
        let view = SnapshotView::parse(&buf[off..off + raw.len()]).unwrap();
        prop_assert_eq!(view.to_owned(), compiled);
        // The reloaded arena scores identically to the source tree.
        let data = random_inputs(&model, seed, 12);
        let tree = model.score_matrix(&data).unwrap();
        let served = back.score_all(&data).unwrap();
        let viewed = view.score_all(&data).unwrap();
        for ((a, b), c) in tree.iter().zip(&served).zip(&viewed) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    /// Truncating a snapshot anywhere yields a typed error — never a
    /// panic, never a model.
    #[test]
    fn truncation_always_errors_typed(seed in 0u64..60, frac in 0usize..100) {
        let model = random_model(seed, 3, false);
        let raw = model.compile().unwrap().to_bytes();
        let cut = raw.len() * frac / 100;
        let err = CompiledGhsom::from_bytes(&raw[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, ServeError::Truncated { .. }),
            "cut at {} gave {:?}", cut, err
        );
        let (buf, off) = aligned_copy(&raw[..cut]);
        prop_assert!(SnapshotView::parse(&buf[off..off + cut]).is_err());
    }

    /// Flipping any single byte yields a typed error — the checksum (or a
    /// header check) always catches it.
    #[test]
    fn corruption_always_errors_typed(seed in 0u64..60, at_frac in 0usize..100, bit in 0u8..8) {
        let model = random_model(seed, 3, false);
        let raw = model.compile().unwrap().to_bytes();
        let at = (raw.len() - 1) * at_frac / 100;
        let mut bad = raw.clone();
        bad[at] ^= 1 << bit;
        prop_assert!(
            CompiledGhsom::from_bytes(&bad).is_err(),
            "flip at {} bit {} was not detected", at, bit
        );
    }

    /// Unknown versions are rejected with the version error specifically;
    /// the bundle version (2) is *known* but demands the bundle sections,
    /// so a relabelled model-only snapshot errors as malformed instead.
    #[test]
    fn unknown_versions_error_typed(seed in 0u64..20, version in 2u32..1000) {
        let model = random_model(seed, 3, false);
        let mut raw = model.compile().unwrap().to_bytes();
        raw[8..12].copy_from_slice(&version.to_le_bytes());
        if version == ghsom_serve::snapshot::BUNDLE_VERSION {
            prop_assert!(matches!(
                CompiledGhsom::from_bytes(&raw).unwrap_err(),
                ServeError::Malformed(_)
            ));
        } else {
            prop_assert_eq!(
                CompiledGhsom::from_bytes(&raw).unwrap_err(),
                ServeError::UnsupportedVersion {
                    found: version,
                    supported: ghsom_serve::snapshot::BUNDLE_VERSION,
                }
            );
        }
    }

    /// The batched walk is **bit-identical** to the tree model and to the
    /// per-sample walk — full paths (nodes, units, distances) and leaf
    /// scores — on hierarchies that mix tiny and large maps, ties
    /// included. Batch sizes straddle the pruned kernel's scalar/oct-block
    /// boundary (7, 8, 9 samples) and the walk's two-chunk case (513).
    #[test]
    fn batched_walk_matches_tree_and_single_bitwise(seed in 0u64..160, dim in 2usize..6) {
        let model = if seed % 2 == 0 {
            random_model_mixed(seed, dim)
        } else {
            // Small-maps-only hierarchies with duplicate-row ties.
            random_model(seed, dim, true)
        };
        let compiled = model.compile().unwrap();
        for n in [1usize, 7, 8, 9, 513] {
            let data = random_inputs(&model, seed ^ n as u64, n);
            let tree = model.project_batch(&data).unwrap();
            let flat = compiled.project_batch_view(data.view()).unwrap();
            prop_assert_eq!(tree.len(), flat.len());
            for ((t, f), x) in tree.iter().zip(&flat).zip(data.iter_rows()) {
                let single = compiled.project(x).unwrap();
                for other in [t, &single] {
                    prop_assert_eq!(f.steps().len(), other.steps().len());
                    for (a, b) in f.steps().iter().zip(other.steps()) {
                        prop_assert_eq!(a.node, b.node);
                        prop_assert_eq!(a.unit, b.unit);
                        prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                    }
                }
            }
            let scores = compiled.score_all_view(data.view()).unwrap();
            let tree_scores = model.score_matrix(&data).unwrap();
            prop_assert_eq!(scores.len(), n);
            for ((s, t), p) in scores.iter().zip(&tree_scores).zip(&flat) {
                prop_assert_eq!(s.to_bits(), t.to_bits());
                prop_assert_eq!(s.to_bits(), p.leaf_qe().to_bits());
            }
        }
    }
}

/// One fitted engine, shared across sharding property cases as bundle
/// bytes — `Engine::from_bytes` clones it bit-identically per case, so
/// each case gets private streaming state without refitting.
fn serving_fixture() -> &'static (Vec<u8>, Vec<ConnectionRecord>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<ConnectionRecord>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (train, test) = traffic::synth::kdd_train_test(400, 512, 11).expect("synth dataset");
        let engine =
            Engine::fit(&EngineConfig::default().with_stream(3.0, 64), &train).expect("fit engine");
        (engine.to_bytes(), test.records().to_vec())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded serving plane is **bit-identical** to the single
    /// engine for any shard width and batch window: same verdict order,
    /// same scores and flags from `score_records`, same stream verdicts
    /// from `observe_records`, and the same exported `StreamState` —
    /// including widths far above the record count (mostly-empty shards).
    #[test]
    fn sharded_serving_is_bit_identical(
        shards in 1usize..10,
        start in 0usize..256,
        len in 0usize..512,
    ) {
        let (bundle, records) = serving_fixture();
        let window = &records[start.min(records.len())..(start + len).min(records.len())];

        let reference = Engine::from_bytes(bundle).unwrap();
        let expected_scores = reference.score_records(window).unwrap();
        let expected_stream = reference.observe_records(window).unwrap();

        let sharded = ShardedEngine::new(Engine::from_bytes(bundle).unwrap(), shards);
        let scores = sharded.score_records(window).unwrap();
        let stream = sharded.observe_records(window).unwrap();

        prop_assert_eq!(scores.len(), expected_scores.len());
        for (g, e) in scores.iter().zip(&expected_scores) {
            prop_assert_eq!(g.score.to_bits(), e.score.to_bits());
            prop_assert_eq!(g.anomalous, e.anomalous);
            prop_assert_eq!(g.category, e.category);
        }
        prop_assert_eq!(stream.len(), expected_stream.len());
        for (g, e) in stream.iter().zip(&expected_stream) {
            prop_assert_eq!(g.score.to_bits(), e.score.to_bits());
            prop_assert_eq!(g.anomalous, e.anomalous);
            // NaN threshold during warmup compares bitwise, not by ==.
            prop_assert_eq!(g.threshold.to_bits(), e.threshold.to_bits());
        }

        let a = sharded.stream_state();
        let b = reference.stream_state();
        prop_assert_eq!(a.seen, b.seen);
        prop_assert_eq!(a.flagged, b.flagged);
        prop_assert_eq!(a.tracked, b.tracked);
        prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        prop_assert_eq!(a.m2.to_bits(), b.m2.to_bits());
    }
}
