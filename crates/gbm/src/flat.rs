//! Flattened, branchless forest traversal — the *batched* scoring layout.
//!
//! [`Tree::predict`] walks 24-byte arena nodes behind an unpredictable
//! `if leaf / if left` pair per step. This module re-lays a fitted forest
//! out as structure-of-arrays node tables and removes both branches:
//!
//! - **No exit branch.** Leaves point at themselves (`kids[2i] ==
//!   kids[2i+1] == i`) and store their value in the `thr` slot, so
//!   traversal runs a *fixed* number of steps per tree (that tree's max
//!   leaf depth) and reads `thr` at whatever node it parked on. A leaf
//!   reached early just spins in place.
//! - **No direction branch.** `go_left` is computed as a bool and used as
//!   an index into the `kids` pair, so the step is pure data flow.
//! - **Lane blocking.** [`FlatForest::predict_block`] advances
//!   [`LANES`] independent rows through each tree level together; the
//!   dependent-load chains of the lanes overlap, which is where the
//!   throughput win on a single core comes from.
//!
//! Branchless only pays when lanes overlap. For a *single* row the step
//! chain is serial — each select waits on the loads it feeds — while the
//! branchy arena walk lets the predictor speculate the next level's loads
//! early, so one-row-at-a-time scoring (`Gbm::predict`, the cache's
//! per-request path) stays on [`Tree::predict`]; the `gbm_predict_paths`
//! bench group measures the gap. [`FlatForest::predict_row`] is the
//! branchless single-row form, kept as the oracle the blocked kernels are
//! tested against.
//!
//! The batched quantized path — scoring whole pre-binned datasets
//! set-at-a-time on `u8` codes — lives in [`crate::bitset`] and hangs off
//! [`FlatForest::bitset`].
//!
//! All paths accumulate leaf values in tree order with `f32` adds starting
//! from the base score — bit-identical to the reference per-row walk.

use crate::bitset::BitsetForest;
use crate::tree::Tree;

/// Rows advanced together by the blocked kernels.
pub(crate) const LANES: usize = 8;

/// Low 31 bits of `feat_dl`: the split feature index.
const FEAT_MASK: u32 = 0x7FFF_FFFF;

/// A fitted forest flattened into contiguous structure-of-arrays node
/// tables (one arena across all trees), plus the padded bitset layout for
/// batched scoring on pre-binned codes.
#[derive(Debug, Clone)]
pub(crate) struct FlatForest {
    n_features: usize,
    /// Per node: split feature in the low 31 bits, `default_left` in the
    /// top bit. Leaves store feature 0 (loaded but ignored).
    feat_dl: Vec<u32>,
    /// Per node: the split threshold — or, for a leaf, its *value*.
    thr: Vec<f32>,
    /// Child pairs: node `i` owns `kids[2i]` (left) and `kids[2i + 1]`
    /// (right). Leaves self-loop.
    kids: Vec<u32>,
    /// Arena index of each tree's root.
    roots: Vec<u32>,
    /// Fixed step count per tree: its maximum leaf depth.
    depths: Vec<u32>,
    /// Set-at-a-time layout for scoring on [`crate::dataset::Binned`]
    /// codes; `None` when the forest doesn't fit it (see
    /// [`BitsetForest::build`]).
    bitset: Option<BitsetForest>,
}

impl FlatForest {
    /// Flattens `trees` (arena layout, root at local index 0).
    pub(crate) fn build(trees: &[Tree], n_features: usize) -> FlatForest {
        let total: usize = trees.iter().map(|t| t.nodes.len()).sum();
        let mut forest = FlatForest {
            n_features,
            feat_dl: Vec::with_capacity(total),
            thr: Vec::with_capacity(total),
            kids: Vec::with_capacity(2 * total),
            roots: Vec::with_capacity(trees.len()),
            depths: Vec::with_capacity(trees.len()),
            bitset: None,
        };
        for tree in trees {
            let off = forest.feat_dl.len() as u32;
            forest.roots.push(off);
            forest.depths.push(tree_depth(tree));
            for (i, n) in tree.nodes.iter().enumerate() {
                if n.feature == u32::MAX {
                    forest.feat_dl.push(0);
                    forest.thr.push(n.value);
                    forest.kids.push(off + i as u32);
                    forest.kids.push(off + i as u32);
                } else {
                    forest
                        .feat_dl
                        .push((n.feature & FEAT_MASK) | ((n.default_left as u32) << 31));
                    forest.thr.push(n.threshold);
                    forest.kids.push(off + n.left);
                    forest.kids.push(off + n.right);
                }
            }
        }
        forest.bitset = BitsetForest::build(trees, n_features);
        forest
    }

    /// The set-at-a-time layout for pre-binned scoring, when built.
    pub(crate) fn bitset(&self) -> Option<&BitsetForest> {
        self.bitset.as_ref()
    }

    /// Raw score (pre-loss-transform) for one full-width row.
    ///
    /// The branchless single-row form. Serving scores single rows through
    /// the branchy [`Tree::predict`] walk instead (see the module docs);
    /// this is kept as the oracle the blocked kernels are tested against.
    #[allow(dead_code)]
    #[inline]
    pub(crate) fn predict_row(&self, row: &[f32], base: f32) -> f32 {
        debug_assert!(row.len() >= self.n_features, "row narrower than model");
        let mut acc = base;
        for (t, &root) in self.roots.iter().enumerate() {
            let mut i = root as usize;
            for _ in 0..self.depths[t] {
                let fd = self.feat_dl[i];
                let v = row[(fd & FEAT_MASK) as usize];
                let go_left = (v <= self.thr[i]) | (v.is_nan() & (fd >> 31 != 0));
                i = self.kids[2 * i + (!go_left) as usize] as usize;
            }
            acc += self.thr[i];
        }
        acc
    }

    /// Raw scores for [`LANES`] full-width rows at once, lane-blocked so
    /// the per-level loads of independent rows overlap.
    pub(crate) fn predict_block(&self, rows: &[&[f32]; LANES], out: &mut [f32], base: f32) {
        let mut acc = [base; LANES];
        let mut idx = [0usize; LANES];
        for (t, &root) in self.roots.iter().enumerate() {
            idx.fill(root as usize);
            for _ in 0..self.depths[t] {
                for l in 0..LANES {
                    let i = idx[l];
                    let fd = self.feat_dl[i];
                    let v = rows[l][(fd & FEAT_MASK) as usize];
                    let go_left = (v <= self.thr[i]) | (v.is_nan() & (fd >> 31 != 0));
                    idx[l] = self.kids[2 * i + (!go_left) as usize] as usize;
                }
            }
            for l in 0..LANES {
                acc[l] += self.thr[idx[l]];
            }
        }
        out[..LANES].copy_from_slice(&acc);
    }
}

/// Maximum leaf depth of one tree (0 for a bare-leaf root).
pub(crate) fn tree_depth(tree: &Tree) -> u32 {
    let mut max = 0u32;
    let mut stack = vec![(0u32, 0u32)];
    while let Some((i, d)) = stack.pop() {
        let n = &tree.nodes[i as usize];
        if n.feature == u32::MAX {
            max = max.max(d);
        } else {
            stack.push((n.left, d + 1));
            stack.push((n.right, d + 1));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::{Gbm, GbmParams};

    fn messy_model() -> (Gbm, Dataset) {
        let mut d = Dataset::new(3);
        for i in 0..800 {
            let x0 = if i % 7 == 0 {
                f32::NAN
            } else {
                (i % 31) as f32
            };
            let x1 = (i % 13) as f32 / 13.0;
            let x2 = (i % 5) as f32;
            let y = if x0.is_nan() || x0 > 15.0 { 1.0 } else { x1 };
            d.push_row(&[x0, x1, x2], y);
        }
        let model = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 12,
                ..GbmParams::default()
            },
        );
        (model, d)
    }

    #[test]
    fn trained_forest_builds_bitset_layout() {
        let (model, _) = messy_model();
        assert!(model.flat().bitset().is_some());
    }

    #[test]
    fn blocked_kernel_matches_single_row_on_extreme_values() {
        let (model, _) = messy_model();
        let flat = model.flat();
        let specials = [
            [f32::NAN, f32::NAN, f32::NAN],
            [f32::INFINITY, f32::NEG_INFINITY, 0.0],
            [f32::NEG_INFINITY, f32::INFINITY, f32::NAN],
            [0.0, -0.0, 1.0e9],
            [15.0, 0.5, 2.0],
            [-1.0e-9, 1.0, 3.0],
            [30.0, 0.0, 4.0],
            [f32::MAX, f32::MIN, f32::NAN],
        ];
        let refs: [&[f32]; LANES] = std::array::from_fn(|l| specials[l].as_slice());
        let mut raw = [0f32; LANES];
        flat.predict_block(&refs, &mut raw, 0.25);
        for l in 0..LANES {
            let single = flat.predict_row(&specials[l], 0.25);
            assert_eq!(raw[l].to_bits(), single.to_bits(), "raw lane {l}");
        }
    }

    #[test]
    fn bitset_kernel_matches_per_row_predict_on_the_training_set() {
        // Resolution against the model's own training binning always
        // succeeds (node thresholds are its bin edges), and block scoring
        // — AVX-512 superblocks where available, scalar blocks and the
        // partial tail everywhere — must equal the per-row walk bitwise.
        let (model, data) = messy_model();
        let bitset = model.flat().bitset().expect("depth-6 forest fits");
        let cache = data.binned_cache();
        assert!(!cache.has_infinite);
        let cuts = bitset
            .resolve(&cache.binned)
            .expect("training thresholds are bin edges");
        let mut out = vec![0f32; data.n_rows()];
        bitset.score_range(&cache.binned, &cuts, 0.25, 0, &mut out);
        for (r, scored) in out.iter().enumerate() {
            let single = model.flat().predict_row(data.row(r), 0.25);
            assert_eq!(scored.to_bits(), single.to_bits(), "row {r}");
        }
    }
}
