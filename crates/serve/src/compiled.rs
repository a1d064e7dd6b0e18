//! The compiled inference arena: a flattened, immutable GHSOM.
//!
//! See the [crate-level docs](crate) for the full layout description. In
//! short: every map's codebook is packed into **one** contiguous
//! group-tiled transposed arena (`wt`, the exact [`mathkit::batch::pack_codebook`]
//! layout, concatenated map after map), the proxy half-norms
//! `‖w‖²/2` are baked in at compile time (`wn_half`), and all tree
//! metadata — shapes, depths, parent/child links, per-unit training stats —
//! lives in flat index tables addressed by `(node, unit)` through two
//! prefix-sum offset tables. Projection is a pure arena walk: no node
//! structs, no pointer chasing, no lazy norm-cache checks.
//!
//! There is one walk, written against the borrowed `ArenaRef` tables:
//! level by level, one norm-pruned kernel call per visited map. The owned
//! [`CompiledGhsom`] and the zero-copy [`crate::snapshot::SnapshotView`]
//! run the very same code, so they agree bit for bit by construction and
//! neither keeps derived walk tables beyond the snapshot's own.

use std::borrow::Cow;
use std::collections::BTreeMap;

use ghsom_core::{GhsomError, GhsomModel, PathStep, Projection, Scorer};
use mathkit::{batch, parallel, Matrix, MatrixView, Metric};

use crate::ServeError;

/// Sentinel for "no link" in the `u32` parent/child tables.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// Samples per parallel work chunk in the batched walk — matches the tree
/// engine's chunking so thread counts never change results (they cannot
/// anyway: per-sample results are independent).
const WALK_CHUNK: usize = 512;

/// One hop of the batched walk as the kernels report it: the clamped
/// **squared** distance, before [`PathStep`]'s `sqrt` finalization. The
/// walk hands these to its visitor so bulk scoring can defer the root to
/// one per sample instead of paying it on every interior hop.
#[derive(Clone, Copy)]
struct RawHop {
    node: usize,
    unit: usize,
    d2: f64,
}

/// A trained GHSOM compiled for serving: immutable, flat, contiguous.
///
/// Construct with [`CompiledGhsom::from_model`] (or [`Compile::compile`]),
/// persist with the binary snapshot API in [`crate::snapshot`].
/// Projections are **bit-identical** to the training-time
/// [`GhsomModel`] the arena was compiled from — leaf keys and quantization
/// errors computed on either representation are interchangeable.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledGhsom {
    pub(crate) dim: usize,
    pub(crate) mqe0: f64,
    pub(crate) mean: Vec<f64>,
    /// Grid rows per map.
    pub(crate) rows: Vec<u32>,
    /// Grid columns per map.
    pub(crate) cols: Vec<u32>,
    /// Hierarchy depth per map (root = 1).
    pub(crate) depth: Vec<u32>,
    /// Parent node per map ([`NO_LINK`] for the root).
    pub(crate) parent_node: Vec<u32>,
    /// Parent unit per map ([`NO_LINK`] for the root).
    pub(crate) parent_unit: Vec<u32>,
    /// Global-unit prefix sums: map `m` owns global units
    /// `unit_off[m]..unit_off[m + 1]`.
    pub(crate) unit_off: Vec<u64>,
    /// Arena prefix sums (in `f64` elements): map `m`'s packed codebook is
    /// `wt[wt_off[m]..wt_off[m + 1]]`.
    pub(crate) wt_off: Vec<u64>,
    /// Child node per global unit ([`NO_LINK`] for leaf units).
    pub(crate) children: Vec<u32>,
    /// Training hits per global unit.
    pub(crate) unit_hits: Vec<u64>,
    /// Training mean quantization error per global unit.
    pub(crate) unit_mqe: Vec<f64>,
    /// Precomputed `‖w‖²/2` per global unit, **ascending within each
    /// map** (the arena stores codebooks norm-sorted for pruned search).
    pub(crate) wn_half: Vec<f64>,
    /// Packed position → original unit index within its map.
    pub(crate) perm: Vec<u32>,
    /// All codebooks, group-tiled transposed, concatenated in node order —
    /// each map's units reordered ascending by norm (see `perm`).
    pub(crate) wt: Vec<f64>,
    /// Lazily-gathered row-major weights (original unit order) for cold
    /// consumers that scan prototypes (nearest-labelled fallbacks,
    /// explanations). Not part of the snapshot; rebuilt on first use.
    pub(crate) row_cache: RowWeightsCache,
}

/// Interior-mutable holder for the row-major weights gather.
///
/// Invisible to value semantics: compares equal to everything (so derived
/// `PartialEq` on [`CompiledGhsom`] ignores it) and is skipped by the
/// snapshot encoder — a reloaded arena rebuilds it on first use.
#[derive(Debug, Default)]
pub(crate) struct RowWeightsCache(std::sync::OnceLock<Vec<f64>>);

impl Clone for RowWeightsCache {
    fn clone(&self) -> Self {
        match self.0.get() {
            Some(data) => {
                let lock = std::sync::OnceLock::new();
                let _ = lock.set(data.clone());
                RowWeightsCache(lock)
            }
            None => RowWeightsCache::default(),
        }
    }
}

impl PartialEq for RowWeightsCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// Borrowed view of the arena tables — the walk code is written once
/// against this, shared by [`CompiledGhsom`] (owned vectors) and
/// [`crate::snapshot::SnapshotView`] (zero-copy mapped bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaRef<'a> {
    pub dim: usize,
    pub mqe0: f64,
    pub mean: &'a [f64],
    pub rows: &'a [u32],
    pub cols: &'a [u32],
    pub depth: &'a [u32],
    pub parent_node: &'a [u32],
    pub parent_unit: &'a [u32],
    pub unit_off: &'a [u64],
    pub wt_off: &'a [u64],
    pub children: &'a [u32],
    pub unit_hits: &'a [u64],
    pub unit_mqe: &'a [f64],
    pub wn_half: &'a [f64],
    pub perm: &'a [u32],
    pub wt: &'a [f64],
}

impl<'a> ArenaRef<'a> {
    pub fn map_count(&self) -> usize {
        self.rows.len()
    }

    pub fn total_units(&self) -> usize {
        self.children.len()
    }

    /// Number of units in map `node`.
    pub fn units(&self, node: usize) -> usize {
        (self.unit_off[node + 1] - self.unit_off[node]) as usize
    }

    /// Proxy half-norms of map `node` (packed = norm-ascending order).
    fn wn_half_of(&self, node: usize) -> &'a [f64] {
        &self.wn_half[self.unit_off[node] as usize..self.unit_off[node + 1] as usize]
    }

    /// Packed-position → original-unit permutation of map `node`.
    fn perm_of(&self, node: usize) -> &'a [u32] {
        &self.perm[self.unit_off[node] as usize..self.unit_off[node + 1] as usize]
    }

    /// Packed codebook slab of map `node`.
    fn wt_of(&self, node: usize) -> &'a [f64] {
        &self.wt[self.wt_off[node] as usize..self.wt_off[node + 1] as usize]
    }

    pub fn child_of(&self, node: usize, unit: usize) -> Option<usize> {
        assert!(unit < self.units(node), "unit index out of bounds");
        match self.children[self.unit_off[node] as usize + unit] {
            NO_LINK => None,
            c => Some(c as usize),
        }
    }

    /// Gathers the row-major weight vector of `(node, unit)` back out of
    /// the norm-sorted group-tiled layout (`unit` is the original index;
    /// its packed position comes from the permutation table).
    pub fn prototype(&self, node: usize, unit: usize) -> Vec<f64> {
        assert!(unit < self.units(node), "unit index out of bounds");
        let packed = self
            .perm_of(node)
            .iter()
            .position(|&u| u as usize == unit)
            .expect("validated permutations are total"); // LINT-ALLOW(no-panic): perm_of is a validated permutation of 0..units(node) and unit is asserted in range above
        let slab = self.wt_of(node);
        let (g, k) = (packed / batch::GROUP, packed % batch::GROUP);
        (0..self.dim)
            .map(|j| slab[g * (self.dim * batch::GROUP) + j * batch::GROUP + k])
            .collect()
    }

    /// Gathers a whole map's codebook back to row-major **original** unit
    /// order in one pass — the bulk form of [`ArenaRef::prototype`].
    pub fn map_weights(&self, node: usize) -> Vec<f64> {
        let units = self.units(node);
        let dim = self.dim;
        let slab = self.wt_of(node);
        let perm = self.perm_of(node);
        let mut out = vec![0.0; units * dim];
        for (packed, &orig) in perm.iter().enumerate() {
            let (g, k) = (packed / batch::GROUP, packed % batch::GROUP);
            let row = &mut out[orig as usize * dim..(orig as usize + 1) * dim];
            for (j, v) in row.iter_mut().enumerate() {
                *v = slab[g * (dim * batch::GROUP) + j * batch::GROUP + k];
            }
        }
        out
    }

    fn check_dim(&self, found: usize) -> Result<(), ServeError> {
        if found != self.dim {
            return Err(ServeError::DimensionMismatch {
                expected: self.dim,
                found,
            });
        }
        Ok(())
    }

    /// Projects one sample root→leaf through the norm-pruned search.
    /// Winners, tie-breaking and distance bits are identical to the tree
    /// walker's exhaustive scan (see [`batch::gram_nearest_block_pruned`]).
    pub fn project_one(&self, x: &[f64]) -> Result<Projection, ServeError> {
        self.check_dim(x.len())?;
        let mut steps = Vec::new();
        let mut node = 0usize;
        let mut nearest = Vec::with_capacity(1);
        loop {
            nearest.clear();
            batch::gram_nearest_block_pruned(
                x,
                self.dim,
                self.wt_of(node),
                self.wn_half_of(node),
                self.perm_of(node),
                &mut nearest,
            );
            let n = nearest[0];
            steps.push(PathStep {
                node,
                unit: n.unit,
                // `Metric::Euclidean.finalize` on an already-clamped d².
                distance: n.d2.max(0.0).sqrt(),
            });
            match self.children[self.unit_off[node] as usize + n.unit] {
                NO_LINK => break,
                c => node = c as usize,
            }
        }
        Ok(Projection::from_steps(steps))
    }

    /// Level-by-level batched walk: per level, the frontier groups by map
    /// and each map's samples resolve in one norm-pruned pass
    /// ([`batch::gram_nearest_block_pruned`]), chunk-parallel under the
    /// `rayon` feature. `visit` sees every `(sample, hop)` pair, root first
    /// per sample, with the kernel's clamped **squared** distance — callers
    /// finalize the `sqrt` themselves, which lets the bulk-scoring path pay
    /// it once per sample instead of once per hop.
    ///
    /// Deep hierarchies split the frontier into many small per-map
    /// fragments, so the walk makes one kernel call per visited map. That
    /// is cheap because a fragment of at most [`WALK_CHUNK`] samples is a
    /// single chunk, which [`parallel::par_map_chunks`] runs inline without
    /// resolving a thread budget; tiny maps take the pruned kernel's
    /// exhaustive fast path.
    ///
    /// Unlike the tree walker there is no per-map `Matrix` materialization:
    /// the root level runs directly on the input's flat buffer, and deeper
    /// levels gather only their active rows into a reused scratch vector.
    /// The input is a **borrowed**
    /// [`MatrixView`], so callers that already hold samples contiguously
    /// (the reused feature-transform buffer of the fused serving path)
    /// never copy them into an owned matrix.
    fn walk<F: FnMut(usize, RawHop)>(
        &self,
        data: MatrixView<'_>,
        mut visit: F,
    ) -> Result<(), ServeError> {
        if data.rows() == 0 {
            return Ok(());
        }
        self.check_dim(data.cols())?;
        let dim = self.dim;
        let n = data.rows();

        // Root level: every row in order, straight off the input buffer.
        let (wt, wnh, perm) = (self.wt_of(0), self.wn_half_of(0), self.perm_of(0));
        let root = parallel::par_map_chunks(n, WALK_CHUNK, |r| {
            let mut out = Vec::with_capacity(r.len());
            batch::gram_nearest_block_pruned(
                &data.as_slice()[r.start * dim..r.end * dim],
                dim,
                wt,
                wnh,
                perm,
                &mut out,
            );
            out
        });
        // Active samples and the node each descends into — parallel
        // arrays, always in ascending sample order.
        let mut active: Vec<u32> = Vec::new();
        let mut nodes: Vec<u32> = Vec::new();
        let root_base = self.unit_off[0] as usize;
        for (s, m) in root.iter().flatten().enumerate() {
            visit(
                s,
                RawHop {
                    node: 0,
                    unit: m.unit,
                    d2: m.d2,
                },
            );
            match self.children[root_base + m.unit] {
                NO_LINK => {}
                c => {
                    active.push(s as u32);
                    nodes.push(c);
                }
            }
        }

        let mut gather: Vec<f64> = Vec::new();
        while !active.is_empty() {
            let mut results: Vec<batch::Nearest> = vec![
                batch::Nearest {
                    unit: 0,
                    d2: f64::INFINITY,
                };
                active.len()
            ];
            let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, &node) in nodes.iter().enumerate() {
                by_node.entry(node as usize).or_default().push(i);
            }
            for (&node, idxs) in &by_node {
                let rows: &[f64] = if idxs.len() == n {
                    // Every sample went to one child map: `active[i] == i`,
                    // serve straight from the input buffer again.
                    data.as_slice()
                } else {
                    gather.clear();
                    gather.reserve(idxs.len() * dim);
                    for &i in idxs {
                        gather.extend_from_slice(data.row(active[i] as usize));
                    }
                    &gather
                };
                let (wt, wnh, perm) = (self.wt_of(node), self.wn_half_of(node), self.perm_of(node));
                let chunks = parallel::par_map_chunks(idxs.len(), WALK_CHUNK, |r| {
                    let mut out = Vec::with_capacity(r.len());
                    batch::gram_nearest_block_pruned(
                        &rows[r.start * dim..r.end * dim],
                        dim,
                        wt,
                        wnh,
                        perm,
                        &mut out,
                    );
                    out
                });
                for (&i, m) in idxs.iter().zip(chunks.iter().flatten()) {
                    results[i] = *m;
                }
            }
            // Emit this level's hops and advance the frontier in place.
            let mut next_len = 0usize;
            for (i, m) in results.iter().enumerate() {
                let node = nodes[i] as usize;
                let s = active[i] as usize;
                visit(
                    s,
                    RawHop {
                        node,
                        unit: m.unit,
                        d2: m.d2,
                    },
                );
                match self.children[self.unit_off[node] as usize + m.unit] {
                    NO_LINK => {}
                    c => {
                        active[next_len] = s as u32;
                        nodes[next_len] = c;
                        next_len += 1;
                    }
                }
            }
            active.truncate(next_len);
            nodes.truncate(next_len);
        }
        Ok(())
    }

    pub fn project_batch(&self, data: MatrixView<'_>) -> Result<Vec<Projection>, ServeError> {
        if data.rows() == 0 {
            return Ok(Vec::new());
        }
        let mut steps: Vec<Vec<PathStep>> = vec![Vec::new(); data.rows()];
        self.walk(data, |sample, hop| {
            steps[sample].push(PathStep {
                node: hop.node,
                unit: hop.unit,
                // `Metric::Euclidean.finalize` on an already-clamped d².
                distance: hop.d2.max(0.0).sqrt(),
            })
        })?;
        Ok(steps.into_iter().map(Projection::from_steps).collect())
    }

    /// Leaf quantization error per row without materializing projections —
    /// the detectors' hot bulk-scoring path.
    pub fn score_all(&self, data: MatrixView<'_>) -> Result<Vec<f64>, ServeError> {
        let mut qe = vec![0.0; data.rows()];
        // Per sample the walk visits hops root→leaf, so the last write is
        // the leaf d²; finalize the square root once per sample rather
        // than per hop (the interior hops' roots would be thrown away).
        self.walk(data, |sample, hop| qe[sample] = hop.d2)?;
        for v in &mut qe {
            *v = v.max(0.0).sqrt();
        }
        Ok(qe)
    }

    /// Structural invariants every arena must satisfy before it is walked —
    /// enforced on compile *and* on snapshot decode, so corrupt or hostile
    /// bytes can never drive the walker out of bounds or into a cycle.
    pub fn validate(&self) -> Result<(), ServeError> {
        let n = self.map_count();
        if n == 0 {
            return Err(ServeError::Malformed("empty hierarchy"));
        }
        if self.dim == 0 || self.mean.len() != self.dim {
            return Err(ServeError::Malformed("mean length disagrees with dim"));
        }
        if !(self.mqe0.is_finite() && self.mqe0 >= 0.0) {
            return Err(ServeError::Malformed("mqe0 must be finite and >= 0"));
        }
        let same_len = self.cols.len() == n
            && self.depth.len() == n
            && self.parent_node.len() == n
            && self.parent_unit.len() == n
            && self.unit_off.len() == n + 1
            && self.wt_off.len() == n + 1;
        if !same_len {
            return Err(ServeError::Malformed("per-map tables disagree on length"));
        }
        let total = self.total_units();
        if self.unit_hits.len() != total
            || self.unit_mqe.len() != total
            || self.wn_half.len() != total
            || self.perm.len() != total
        {
            return Err(ServeError::Malformed("per-unit tables disagree on length"));
        }
        if self.unit_off[0] != 0 || self.wt_off[0] != 0 {
            return Err(ServeError::Malformed("offset tables must start at 0"));
        }
        if self.unit_off[n] as usize != total {
            return Err(ServeError::Malformed(
                "unit offsets disagree with the unit-table length",
            ));
        }
        if self.wt_off[n] as usize != self.wt.len() {
            return Err(ServeError::Malformed(
                "arena offsets disagree with the arena length",
            ));
        }
        if self.parent_node[0] != NO_LINK || self.depth[0] != 1 {
            return Err(ServeError::Malformed("node 0 must be the depth-1 root"));
        }
        for m in 0..n {
            if self.unit_off[m] > self.unit_off[m + 1] || self.wt_off[m] > self.wt_off[m + 1] {
                return Err(ServeError::Malformed("offset tables must be monotone"));
            }
            let units = self.units(m);
            if units == 0 {
                return Err(ServeError::Malformed("maps cannot be empty"));
            }
            if (self.rows[m] as u64).checked_mul(self.cols[m] as u64) != Some(units as u64) {
                return Err(ServeError::Malformed(
                    "grid shape disagrees with unit count",
                ));
            }
            let expect = batch::packed_len(units, self.dim) as u64;
            if self.wt_off[m + 1] - self.wt_off[m] != expect {
                return Err(ServeError::Malformed(
                    "packed slab length disagrees with unit count",
                ));
            }
            // The pruned search relies on ascending half-norms and a total
            // packed→original permutation per map; a snapshot violating
            // either would silently misroute records, so reject it here.
            let base = self.unit_off[m] as usize;
            let wnh = &self.wn_half[base..base + units];
            // NaN half-norms are caught by the finiteness check below.
            if wnh.windows(2).any(|w| w[0] > w[1]) {
                return Err(ServeError::Malformed(
                    "half-norms must ascend within each map",
                ));
            }
            let mut seen = vec![false; units];
            for &p in &self.perm[base..base + units] {
                if (p as usize) >= units || seen[p as usize] {
                    return Err(ServeError::Malformed(
                        "perm must be a permutation of the map's units",
                    ));
                }
                seen[p as usize] = true;
            }
            if m > 0 {
                let (p, pu) = (self.parent_node[m], self.parent_unit[m]);
                let parent_ok = (p as usize) < m
                    && (pu as usize) < self.units(p as usize)
                    && self.children[self.unit_off[p as usize] as usize + pu as usize] == m as u32
                    && self.depth[m] == self.depth[p as usize] + 1;
                if !parent_ok {
                    return Err(ServeError::Malformed(
                        "parent link must be mirrored by the parent at depth + 1",
                    ));
                }
            }
            for u in 0..units {
                let c = self.children[self.unit_off[m] as usize + u];
                if c == NO_LINK {
                    continue;
                }
                // Child links must point strictly forward — this is what
                // guarantees every walk terminates.
                let ok = (c as usize) > m
                    && (c as usize) < n
                    && self.parent_node[c as usize] == m as u32
                    && self.parent_unit[c as usize] == u as u32;
                if !ok {
                    return Err(ServeError::Malformed(
                        "child links must point forward to nodes that link back",
                    ));
                }
            }
        }
        for v in self.wt.iter().chain(self.wn_half).chain(self.unit_mqe) {
            if !v.is_finite() {
                return Err(ServeError::Malformed("arena values must be finite"));
            }
        }
        Ok(())
    }
}

impl CompiledGhsom {
    /// The borrowed-table view the walk code runs on.
    pub(crate) fn arena(&self) -> ArenaRef<'_> {
        ArenaRef {
            dim: self.dim,
            mqe0: self.mqe0,
            mean: &self.mean,
            rows: &self.rows,
            cols: &self.cols,
            depth: &self.depth,
            parent_node: &self.parent_node,
            parent_unit: &self.parent_unit,
            unit_off: &self.unit_off,
            wt_off: &self.wt_off,
            children: &self.children,
            unit_hits: &self.unit_hits,
            unit_mqe: &self.unit_mqe,
            wn_half: &self.wn_half,
            perm: &self.perm,
            wt: &self.wt,
        }
    }

    /// Compiles a trained tree model into the flat serving arena.
    ///
    /// The node numbering (breadth-first creation order, root = 0) and all
    /// `(node, unit)` keys are preserved, and projections are bit-identical
    /// to the source model's — detectors fitted against the tree serve
    /// unchanged on the arena.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsupportedMetric`] when any map's BMU metric is not
    /// Euclidean (the arena bakes in Gram-trick half-norms);
    /// [`ServeError::Malformed`] when the hierarchy exceeds the snapshot
    /// index width (`u32` nodes/units).
    pub fn from_model(model: &GhsomModel) -> Result<Self, ServeError> {
        let n = model.map_count();
        if n >= NO_LINK as usize {
            return Err(ServeError::Malformed("too many maps for u32 node indices"));
        }
        let dim = model.dim();
        let mut out = CompiledGhsom {
            dim,
            mqe0: model.mqe0(),
            mean: model.layer0_mean().to_vec(),
            rows: Vec::with_capacity(n),
            cols: Vec::with_capacity(n),
            depth: Vec::with_capacity(n),
            parent_node: Vec::with_capacity(n),
            parent_unit: Vec::with_capacity(n),
            unit_off: Vec::with_capacity(n + 1),
            wt_off: Vec::with_capacity(n + 1),
            children: Vec::new(),
            unit_hits: Vec::new(),
            unit_mqe: Vec::new(),
            wn_half: Vec::new(),
            perm: Vec::new(),
            wt: Vec::new(),
            row_cache: RowWeightsCache::default(),
        };
        out.unit_off.push(0);
        out.wt_off.push(0);
        for node in model.nodes() {
            let som = node.som();
            if som.metric() != Metric::Euclidean {
                return Err(ServeError::UnsupportedMetric {
                    metric: som.metric().to_string(),
                });
            }
            let t = som.topology();
            out.rows.push(t.rows() as u32);
            out.cols.push(t.cols() as u32);
            out.depth.push(node.depth() as u32);
            let (pn, pu) = node
                .parent()
                .map_or((NO_LINK, NO_LINK), |(a, b)| (a as u32, b as u32));
            out.parent_node.push(pn);
            out.parent_unit.push(pu);
            for unit in 0..som.len() {
                out.children
                    .push(node.child_of_unit(unit).map_or(NO_LINK, |c| c as u32));
            }
            out.unit_hits
                .extend(node.unit_hits().iter().map(|&h| h as u64));
            out.unit_mqe.extend_from_slice(node.unit_mqe());
            // Non-finite weights would poison the norm sort and every
            // distance downstream; surface the typed error the arena
            // validator would raise rather than panicking mid-sort.
            if !som.weights().as_slice().iter().all(|v| v.is_finite()) {
                return Err(ServeError::Malformed("codebook weights must be finite"));
            }
            // Norm-sort the map's units for the pruned search (stable on
            // the original index so duplicate-weight ties stay ordered)
            // and pack the codebook in that order.
            let wn = batch::half_row_norms_sq(som.weights());
            let mut order: Vec<usize> = (0..som.len()).collect();
            // Norms are validated finite above, so total_cmp orders them
            // exactly like partial_cmp — without an unwrap in the path.
            order.sort_by(|&a, &b| wn[a].total_cmp(&wn[b]).then(a.cmp(&b)));
            let sorted =
                Matrix::from_rows(order.iter().map(|&u| som.unit_weight(u).to_vec()).collect())
                    .expect("rows of a finite codebook are valid"); // LINT-ALLOW(no-panic): rows are unit_weight slices of one SOM, all dim-wide by construction
            out.wn_half.extend(order.iter().map(|&u| wn[u]));
            out.perm.extend(order.iter().map(|&u| u as u32));
            out.wt.extend(batch::pack_codebook(&sorted));
            out.unit_off.push(out.children.len() as u64);
            out.wt_off.push(out.wt.len() as u64);
        }
        if out.children.len() >= NO_LINK as usize {
            return Err(ServeError::Malformed("too many units for u32 indices"));
        }
        out.arena().validate()?;
        Ok(out)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of maps in the hierarchy.
    pub fn map_count(&self) -> usize {
        self.rows.len()
    }

    /// Total units across all maps.
    pub fn total_units(&self) -> usize {
        self.children.len()
    }

    /// The layer-0 virtual unit (training-data mean).
    pub fn layer0_mean(&self) -> &[f64] {
        &self.mean
    }

    /// The layer-0 mean quantization error mqe₀.
    pub fn mqe0(&self) -> f64 {
        self.mqe0
    }

    /// `(rows, cols)` grid shape of map `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn map_shape(&self, node: usize) -> (usize, usize) {
        (self.rows[node] as usize, self.cols[node] as usize)
    }

    /// Hierarchy depth of map `node` (root = 1).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn map_depth(&self, node: usize) -> usize {
        self.depth[node] as usize
    }

    /// `(parent node, parent unit)` of map `node`, `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn map_parent(&self, node: usize) -> Option<(usize, usize)> {
        if self.parent_node[node] == NO_LINK {
            None
        } else {
            Some((
                self.parent_node[node] as usize,
                self.parent_unit[node] as usize,
            ))
        }
    }

    /// Training hits of map `node`'s units.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn unit_hits(&self, node: usize) -> &[u64] {
        &self.unit_hits[self.unit_off[node] as usize..self.unit_off[node + 1] as usize]
    }

    /// Training mean quantization errors of map `node`'s units.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn unit_mqe(&self, node: usize) -> &[f64] {
        &self.unit_mqe[self.unit_off[node] as usize..self.unit_off[node + 1] as usize]
    }

    /// Projects one sample root→leaf (bit-identical to the source tree).
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on a sample of the wrong width.
    pub fn project(&self, x: &[f64]) -> Result<Projection, ServeError> {
        self.arena().project_one(x)
    }

    /// Projects every row of a matrix root→leaf — the bulk path, chunked
    /// and data-parallel under the `rayon` feature.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn project_batch(&self, data: &Matrix) -> Result<Vec<Projection>, ServeError> {
        self.arena().project_batch(data.view())
    }

    /// [`CompiledGhsom::project_batch`] over a **borrowed** matrix view —
    /// the fused serving path's entry point: the walk runs directly on
    /// the caller's flat buffer (e.g. a reused
    /// `featurize::FeatureMatrix`), no owned copy.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn project_batch_view(&self, data: MatrixView<'_>) -> Result<Vec<Projection>, ServeError> {
        self.arena().project_batch(data)
    }

    /// Leaf quantization error of every row without materializing
    /// projections — the hot detector scoring path.
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn score_all(&self, data: &Matrix) -> Result<Vec<f64>, ServeError> {
        self.arena().score_all(data.view())
    }

    /// [`CompiledGhsom::score_all`] over a borrowed matrix view (see
    /// [`CompiledGhsom::project_batch_view`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::DimensionMismatch`] on samples of the wrong width.
    pub fn score_all_view(&self, data: MatrixView<'_>) -> Result<Vec<f64>, ServeError> {
        self.arena().score_all(data)
    }
}

impl Scorer for CompiledGhsom {
    fn dim(&self) -> usize {
        self.dim
    }

    fn map_count(&self) -> usize {
        CompiledGhsom::map_count(self)
    }

    fn map_units(&self, node: usize) -> usize {
        self.arena().units(node)
    }

    fn child_of(&self, node: usize, unit: usize) -> Option<usize> {
        self.arena().child_of(node, unit)
    }

    fn unit_prototype(&self, node: usize, unit: usize) -> Cow<'_, [f64]> {
        Cow::Owned(self.arena().prototype(node, unit))
    }

    fn map_weights(&self, node: usize) -> Cow<'_, [f64]> {
        // Gather the whole arena back to row-major once, then serve
        // borrowed slices — prototype scans (dead-unit fallbacks) are as
        // cheap as on the tree after the first touch.
        let rows = self.row_cache.0.get_or_init(|| {
            let mut out = vec![0.0; self.total_units() * self.dim];
            for m in 0..CompiledGhsom::map_count(self) {
                let base = self.unit_off[m] as usize * self.dim;
                let gathered = self.arena().map_weights(m);
                out[base..base + gathered.len()].copy_from_slice(&gathered);
            }
            out
        });
        let lo = self.unit_off[node] as usize * self.dim;
        let hi = self.unit_off[node + 1] as usize * self.dim;
        Cow::Borrowed(&rows[lo..hi])
    }

    fn project(&self, x: &[f64]) -> Result<Projection, GhsomError> {
        Ok(CompiledGhsom::project(self, x)?)
    }

    fn project_batch(&self, data: &Matrix) -> Result<Vec<Projection>, GhsomError> {
        Ok(CompiledGhsom::project_batch(self, data)?)
    }

    /// Zero-copy override: the arena walk runs on the borrowed buffer
    /// directly (the trait default would copy into an owned matrix).
    fn project_batch_view(&self, data: MatrixView<'_>) -> Result<Vec<Projection>, GhsomError> {
        Ok(CompiledGhsom::project_batch_view(self, data)?)
    }

    fn score_matrix(&self, data: &Matrix) -> Result<Vec<f64>, GhsomError> {
        Ok(CompiledGhsom::score_all(self, data)?)
    }

    fn score_matrix_view(&self, data: MatrixView<'_>) -> Result<Vec<f64>, GhsomError> {
        Ok(CompiledGhsom::score_all_view(self, data)?)
    }
}

/// Compilation bridge: `model.compile()` with this trait in scope (it is
/// in the umbrella crate's prelude).
pub trait Compile {
    /// Compiles this trained model into a [`CompiledGhsom`] serving arena.
    ///
    /// # Errors
    ///
    /// See [`CompiledGhsom::from_model`].
    fn compile(&self) -> Result<CompiledGhsom, ServeError>;
}

impl Compile for GhsomModel {
    fn compile(&self) -> Result<CompiledGhsom, ServeError> {
        CompiledGhsom::from_model(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghsom_core::GhsomConfig;

    fn hierarchical_data() -> Matrix {
        // Two macro-clusters each with micro-structure, deterministic.
        let rows: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                let macro_c = if i % 2 == 0 { 0.0 } else { 10.0 };
                let micro = (i % 3) as f64 * 1.5;
                vec![
                    macro_c + micro + (i % 17) as f64 * 0.01,
                    macro_c + (i % 13) as f64 * 0.01,
                ]
            })
            .collect();
        Matrix::from_rows(rows).unwrap()
    }

    fn model() -> GhsomModel {
        GhsomModel::train(
            &GhsomConfig::default()
                .with_tau1(0.4)
                .with_tau2(0.05)
                .with_seed(3),
            &hierarchical_data(),
        )
        .unwrap()
    }

    #[test]
    fn compile_preserves_shape_metadata() {
        let m = model();
        let c = m.compile().unwrap();
        assert_eq!(c.dim(), m.dim());
        assert_eq!(c.map_count(), m.map_count());
        assert_eq!(c.total_units(), m.total_units());
        assert_eq!(c.mqe0(), m.mqe0());
        assert_eq!(c.layer0_mean(), m.layer0_mean());
        for (i, node) in m.nodes().iter().enumerate() {
            let t = node.som().topology();
            assert_eq!(c.map_shape(i), (t.rows(), t.cols()));
            assert_eq!(c.map_depth(i), node.depth());
            assert_eq!(c.map_parent(i), node.parent());
            assert_eq!(c.unit_mqe(i), node.unit_mqe());
            let hits: Vec<u64> = node.unit_hits().iter().map(|&h| h as u64).collect();
            assert_eq!(c.unit_hits(i), hits);
            for u in 0..node.som().len() {
                assert_eq!(
                    Scorer::child_of(&c, i, u),
                    node.child_of_unit(u),
                    "child link ({i}, {u})"
                );
                assert_eq!(
                    Scorer::unit_prototype(&c, i, u).as_ref(),
                    node.som().unit_weight(u),
                    "prototype ({i}, {u})"
                );
            }
        }
    }

    #[test]
    fn projections_are_bit_identical_to_the_tree() {
        let m = model();
        let c = m.compile().unwrap();
        let data = hierarchical_data();
        let tree = m.project_batch(&data).unwrap();
        let flat = c.project_batch(&data).unwrap();
        assert_eq!(tree.len(), flat.len());
        for (i, (t, f)) in tree.iter().zip(&flat).enumerate() {
            assert_eq!(t.steps().len(), f.steps().len(), "sample {i} path depth");
            for (a, b) in t.steps().iter().zip(f.steps()) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.unit, b.unit);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
        }
        // Single-sample path agrees with the batch path.
        for x in data.iter_rows().take(25) {
            let single = c.project(x).unwrap();
            let tree_single = m.project(x).unwrap();
            assert_eq!(single.leaf_key(), tree_single.leaf_key());
            assert_eq!(single.leaf_qe().to_bits(), tree_single.leaf_qe().to_bits());
        }
    }

    #[test]
    fn score_all_matches_score_matrix_bitwise() {
        let m = model();
        let c = m.compile().unwrap();
        let data = hierarchical_data();
        let tree = m.score_matrix(&data).unwrap();
        let flat = c.score_all(&data).unwrap();
        for (a, b) in tree.iter().zip(&flat) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dimension_mismatch_is_typed() {
        let c = model().compile().unwrap();
        assert_eq!(
            c.project(&[1.0]).unwrap_err(),
            ServeError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
        let wide = Matrix::zeros(2, 5);
        assert!(matches!(
            c.score_all(&wide).unwrap_err(),
            ServeError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn non_euclidean_models_are_rejected() {
        let data = hierarchical_data();
        let m = GhsomModel::train(&GhsomConfig::default(), &data).unwrap();
        // Rebuild the root map with a Manhattan metric.
        let root = &m.nodes()[0];
        let manhattan = som::map::Som::from_parts(
            *root.som().topology(),
            root.som().weights().clone(),
            Metric::Manhattan,
        )
        .unwrap();
        let node = ghsom_core::MapNode::new(
            manhattan,
            1,
            None,
            vec![None; root.som().len()],
            root.unit_hits().to_vec(),
            root.unit_mqe().to_vec(),
        )
        .unwrap();
        let rebuilt = GhsomModel::from_parts(
            m.config().clone(),
            m.layer0_mean().to_vec(),
            m.mqe0(),
            vec![node],
        )
        .unwrap();
        assert!(matches!(
            rebuilt.compile().unwrap_err(),
            ServeError::UnsupportedMetric { .. }
        ));
    }

    #[test]
    fn non_finite_weights_are_a_typed_error_not_a_panic() {
        // Matrix::from_flat does not validate finiteness, so a NaN can
        // reach a codebook; compile must refuse with a typed error.
        let m = model();
        let root = &m.nodes()[0];
        let units = root.som().len();
        let mut flat = root.som().weights().as_slice().to_vec();
        flat[3] = f64::NAN;
        let poisoned = som::map::Som::from_parts(
            *root.som().topology(),
            Matrix::from_flat(units, 2, flat).unwrap(),
            Metric::Euclidean,
        )
        .unwrap();
        let node = ghsom_core::MapNode::new(
            poisoned,
            1,
            None,
            vec![None; units],
            root.unit_hits().to_vec(),
            root.unit_mqe().to_vec(),
        )
        .unwrap();
        let rebuilt = GhsomModel::from_parts(
            m.config().clone(),
            m.layer0_mean().to_vec(),
            m.mqe0(),
            vec![node],
        )
        .unwrap();
        assert_eq!(
            rebuilt.compile().unwrap_err(),
            ServeError::Malformed("codebook weights must be finite")
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let c = model().compile().unwrap();
        let empty = Matrix::zeros(0, 2);
        assert!(c.project_batch(&empty).unwrap().is_empty());
        assert!(c.score_all(&empty).unwrap().is_empty());
    }

    #[test]
    fn scorer_trait_serves_the_arena() {
        let m = model();
        let c = m.compile().unwrap();
        let scorer: &dyn Scorer = &c;
        let data = hierarchical_data();
        let scores = scorer.score_matrix(&data).unwrap();
        let tree_scores = m.score_matrix(&data).unwrap();
        for (a, b) in scores.iter().zip(&tree_scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
