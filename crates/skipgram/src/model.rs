//! The skip-gram model: embedding matrices, proximity-weighted loss,
//! and per-example gradients.
//!
//! Following Fig. 1 of the paper, the model is two matrices: the input
//! (centre) embeddings `W_in ∈ R^{|V|×r}` and the output (context)
//! embeddings `W_out ∈ R^{|V|×r}`. For one subgraph
//! `S = {(v_i, v_j)} ∪ {(v_i, v_n)}_k` and proximity weight `p_ij`,
//! the objective (Eq. 5) is
//!
//! ```text
//! L_nov = -p_ij [ log σ(v_j·v_i) + Σ_n log σ(-v_n·v_i) ]
//! ```
//!
//! with gradients (Eq. 7, 8; `I[n]` = 1 for the positive, 0 otherwise)
//!
//! ```text
//! ∂L/∂v_i = p_ij Σ_n (σ(v_n·v_i) - I[n]) v_n      (one row of W_in)
//! ∂L/∂v_n = p_ij (σ(v_n·v_i) - I[n]) v_i          (k+1 rows of W_out)
//! ```
//!
//! The one-hot input layer is why only these rows are non-zero — the
//! observation behind the paper's non-zero perturbation mechanism.

use crate::subgraph::Subgraph;
use rand::Rng;
use sp_graph::NodeId;
use sp_linalg::{vector, DenseMatrix};

/// The two skip-gram embedding matrices.
#[derive(Clone, Debug)]
pub struct SkipGramModel {
    /// Centre embeddings (`W_in`); the published node vectors.
    pub w_in: DenseMatrix,
    /// Context embeddings (`W_out`).
    pub w_out: DenseMatrix,
}

impl SkipGramModel {
    /// Initialises both matrices uniformly in `[-1/√r, 1/√r)`, giving
    /// rows of expected norm `≈ 0.58` and inner products of order 1.
    ///
    /// word2vec's classic zero-`W_out` init relies on billions of
    /// updates to bootstrap; at the paper's scale (a few thousand
    /// batches) a zero `W_out` makes the `W_in` gradient — a weighted
    /// sum of `W_out` rows (Eq. 7) — vanish for many epochs. A
    /// symmetric `O(1/√r)` init puts gradients in a healthy range from
    /// step one while keeping initial inner products near zero in
    /// expectation.
    pub fn new<R: Rng + ?Sized>(num_nodes: usize, dim: usize, rng: &mut R) -> Self {
        assert!(dim >= 1, "embedding dimension must be >= 1");
        let half = 1.0 / (dim as f64).sqrt();
        Self {
            w_in: DenseMatrix::uniform(num_nodes, dim, -half, half, rng),
            w_out: DenseMatrix::uniform(num_nodes, dim, -half, half, rng),
        }
    }

    /// Embedding dimension `r`.
    pub fn dim(&self) -> usize {
        self.w_in.cols()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.w_in.rows()
    }

    /// Inner product `v_i · v_j` between a centre row of `W_in` and a
    /// context row of `W_out` — the `x_ij` of Theorem 3.
    #[inline]
    pub fn inner(&self, center: NodeId, context: NodeId) -> f64 {
        vector::dot(
            self.w_in.row(center as usize),
            self.w_out.row(context as usize),
        )
    }

    /// The proximity-weighted SGNS loss of one subgraph (Eq. 5).
    pub fn loss(&self, sg: &Subgraph, p: f64) -> f64 {
        let mut l = -p * vector::log_sigmoid(self.inner(sg.center, sg.positive));
        for &n in &sg.negatives {
            l -= p * vector::log_sigmoid(-self.inner(sg.center, n));
        }
        l
    }

    /// Computes the per-example gradient of Eq. 5 into `buf`.
    ///
    /// Duplicate negative rows (and a negative equal to the positive
    /// under degree-proportional sampling) are accumulated into a
    /// single context row, so `buf` holds the *true* sparse gradient
    /// and the joint clip in the trainer bounds the true sensitivity.
    /// `buf` also keeps the inner products, so [`GradBuffer::loss`] can
    /// give the example's loss without recomputing them.
    pub fn example_grad(&self, sg: &Subgraph, p: f64, buf: &mut GradBuffer) {
        let dim = self.dim();
        buf.reset(sg.center, p, dim);
        let vi = self.w_in.row(sg.center as usize);

        // Positive pair, label 1.
        let x = self.inner(sg.center, sg.positive);
        buf.inner.push(x);
        let err_pos = p * (vector::sigmoid(x) - 1.0);
        vector::axpy(
            err_pos,
            self.w_out.row(sg.positive as usize),
            &mut buf.grad_center,
        );
        buf.accumulate_ctx(sg.positive, err_pos, vi, dim);

        // Negatives, label 0.
        for &n in &sg.negatives {
            let x = self.inner(sg.center, n);
            buf.inner.push(x);
            let err = p * vector::sigmoid(x);
            vector::axpy(err, self.w_out.row(n as usize), &mut buf.grad_center);
            buf.accumulate_ctx(n, err, vi, dim);
        }
    }

    /// Applies a plain SGD update `row -= lr * grad` to a `W_in` row.
    pub fn sgd_update_in(&mut self, row: NodeId, lr: f64, grad: &[f64]) {
        vector::axpy(-lr, grad, self.w_in.row_mut(row as usize));
    }

    /// Applies a plain SGD update to a `W_out` row.
    pub fn sgd_update_out(&mut self, row: NodeId, lr: f64, grad: &[f64]) {
        vector::axpy(-lr, grad, self.w_out.row_mut(row as usize));
    }
}

/// Reusable per-example gradient buffer (one `W_in` row + up to `k+1`
/// unique `W_out` rows). Allocation-free across examples once the
/// capacity is warm.
#[derive(Clone, Debug, Default)]
pub struct GradBuffer {
    /// The centre row index (into `W_in`).
    pub center: NodeId,
    /// `∂L/∂v_center` (Eq. 7).
    pub grad_center: Vec<f64>,
    /// Unique `W_out` rows touched.
    ctx_rows: Vec<NodeId>,
    /// Parallel gradients (Eq. 8), accumulated over duplicates.
    ctx_grads: Vec<Vec<f64>>,
    used: usize,
    /// Proximity weight `p` of the example.
    weight: f64,
    /// Inner products `v_i·v_j`, then `v_i·v_n` for every negative in
    /// order (duplicates included): the terms of Eq. 5.
    inner: Vec<f64>,
}

impl GradBuffer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, center: NodeId, weight: f64, dim: usize) {
        self.center = center;
        self.weight = weight;
        self.inner.clear();
        self.grad_center.clear();
        self.grad_center.resize(dim, 0.0);
        self.used = 0;
    }

    fn accumulate_ctx(&mut self, row: NodeId, err: f64, vi: &[f64], dim: usize) {
        // Linear scan over ≤ k+1 entries beats a hash map at k ≈ 5.
        for idx in 0..self.used {
            if self.ctx_rows[idx] == row {
                vector::axpy(err, vi, &mut self.ctx_grads[idx]);
                return;
            }
        }
        if self.used == self.ctx_rows.len() {
            self.ctx_rows.push(row);
            self.ctx_grads.push(vec![0.0; dim]);
        } else {
            self.ctx_rows[self.used] = row;
            self.ctx_grads[self.used].clear();
            self.ctx_grads[self.used].resize(dim, 0.0);
        }
        vector::axpy(err, vi, &mut self.ctx_grads[self.used]);
        self.used += 1;
    }

    /// Touched `W_out` rows.
    pub fn ctx_rows(&self) -> &[NodeId] {
        &self.ctx_rows[..self.used]
    }

    /// Gradients parallel to [`GradBuffer::ctx_rows`].
    pub fn ctx_grads(&self) -> &[Vec<f64>] {
        &self.ctx_grads[..self.used]
    }

    /// The gradient of `W_out` row `row`, if this example touches it.
    pub(crate) fn ctx_grad(&self, row: NodeId) -> Option<&[f64]> {
        let idx = self.ctx_rows().iter().position(|&r| r == row)?;
        Some(&self.ctx_grads[idx])
    }

    /// The example's Eq. 5 loss, from the inner products
    /// [`SkipGramModel::example_grad`] computed — bit-identical to
    /// [`SkipGramModel::loss`] on the model the gradient was taken at.
    pub fn loss(&self) -> f64 {
        let (&pos, negs) = self
            .inner
            .split_first()
            .expect("example_grad fills the buffer first");
        let mut l = -self.weight * vector::log_sigmoid(pos);
        for &x in negs {
            l -= self.weight * vector::log_sigmoid(-x);
        }
        l
    }

    /// Joint ℓ2 norm of the whole per-example gradient.
    pub fn joint_norm(&self) -> f64 {
        let mut sq = vector::norm2_sq(&self.grad_center);
        for g in self.ctx_grads() {
            sq += vector::norm2_sq(g);
        }
        sq.sqrt()
    }

    /// Clips the whole per-example gradient to joint norm `c`
    /// (DPSGD's `Clip`, applied to the multi-row gradient). Returns
    /// the scale factor.
    pub fn clip(&mut self, c: f64) -> f64 {
        assert!(c > 0.0, "clip threshold must be positive");
        let norm = self.joint_norm();
        if norm > c {
            let f = c / norm;
            vector::scale(f, &mut self.grad_center);
            for idx in 0..self.used {
                vector::scale(f, &mut self.ctx_grads[idx]);
            }
            f
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::Subgraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SkipGramModel, Subgraph) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = SkipGramModel::new(6, 4, &mut rng);
        // Give W_out non-zero content so gradients flow both ways.
        for i in 0..6 {
            for d in 0..4 {
                m.w_out.set(i, d, 0.1 * (i as f64 + 1.0) * (d as f64 - 1.5));
            }
        }
        let sg = Subgraph {
            center: 0,
            positive: 1,
            negatives: vec![2, 3, 2], // duplicate on purpose
            edge_index: 0,
        };
        (m, sg)
    }

    #[test]
    fn init_is_symmetric_inv_sqrt_dim() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SkipGramModel::new(10, 8, &mut rng);
        let half = 1.0 / 8.0f64.sqrt();
        for mat in [&m.w_in, &m.w_out] {
            assert!(mat.as_slice().iter().all(|&v| (-half..half).contains(&v)));
        }
        // Both matrices are random (no zero init) and distinct.
        assert_ne!(m.w_in.as_slice(), m.w_out.as_slice());
        // Expected row norm ≈ sqrt(r · (2h)²/12) = sqrt(1/3) ≈ 0.577.
        let mean_norm = m.w_in.mean_row_norm();
        assert!(
            (0.4..0.75).contains(&mean_norm),
            "mean row norm {mean_norm}"
        );
        assert_eq!(m.dim(), 8);
        assert_eq!(m.num_nodes(), 10);
    }

    #[test]
    fn loss_is_positive_and_weighted_linearly() {
        let (m, sg) = setup();
        let l1 = m.loss(&sg, 1.0);
        let l2 = m.loss(&sg, 2.0);
        assert!(l1 > 0.0);
        assert!((l2 - 2.0 * l1).abs() < 1e-12);
        assert_eq!(m.loss(&sg, 0.0), 0.0);
    }

    #[test]
    fn buffer_loss_matches_model_loss_bitwise() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        for p in [0.0, 0.3, 1.0, 17.5] {
            m.example_grad(&sg, p, &mut buf);
            buf.clip(0.01);
            assert_eq!(buf.loss().to_bits(), m.loss(&sg, p).to_bits(), "p={p}");
        }
    }

    #[test]
    fn duplicate_negatives_merge_into_one_ctx_row() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 1.0, &mut buf);
        // Unique rows: positive 1, negatives {2, 3}.
        let mut rows = buf.ctx_rows().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn gradient_matches_finite_differences_on_w_in() {
        let (mut m, sg) = setup();
        let p = 1.7;
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, p, &mut buf);
        let h = 1e-6;
        for d in 0..m.dim() {
            let orig = m.w_in.get(0, d);
            m.w_in.set(0, d, orig + h);
            let lp = m.loss(&sg, p);
            m.w_in.set(0, d, orig - h);
            let lm = m.loss(&sg, p);
            m.w_in.set(0, d, orig);
            let fd = (lp - lm) / (2.0 * h);
            assert!(
                (fd - buf.grad_center[d]).abs() < 1e-6,
                "dim {d}: fd {fd} vs analytic {}",
                buf.grad_center[d]
            );
        }
    }

    #[test]
    fn gradient_matches_finite_differences_on_w_out() {
        let (mut m, sg) = setup();
        let p = 0.9;
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, p, &mut buf);
        let h = 1e-6;
        for (idx, &row) in buf.ctx_rows().iter().enumerate() {
            for d in 0..m.dim() {
                let orig = m.w_out.get(row as usize, d);
                m.w_out.set(row as usize, d, orig + h);
                let lp = m.loss(&sg, p);
                m.w_out.set(row as usize, d, orig - h);
                let lm = m.loss(&sg, p);
                m.w_out.set(row as usize, d, orig);
                let fd = (lp - lm) / (2.0 * h);
                let analytic = buf.ctx_grads()[idx][d];
                assert!(
                    (fd - analytic).abs() < 1e-6,
                    "row {row} dim {d}: fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn clip_bounds_joint_norm() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 50.0, &mut buf); // big p -> big gradient
        let before = buf.joint_norm();
        assert!(before > 0.1);
        let f = buf.clip(0.1);
        assert!(f < 1.0);
        assert!((buf.joint_norm() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn clip_noop_when_under_threshold() {
        let (m, sg) = setup();
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 1e-3, &mut buf);
        assert_eq!(buf.clip(100.0), 1.0);
    }

    #[test]
    fn sgd_step_decreases_loss() {
        let (mut m, sg) = setup();
        let p = 1.0;
        let before = m.loss(&sg, p);
        let mut buf = GradBuffer::new();
        for _ in 0..20 {
            m.example_grad(&sg, p, &mut buf);
            let center = buf.center;
            let grad_center = buf.grad_center.clone();
            let rows: Vec<_> = buf.ctx_rows().to_vec();
            let grads: Vec<_> = buf.ctx_grads().to_vec();
            m.sgd_update_in(center, 0.1, &grad_center);
            for (row, g) in rows.iter().zip(&grads) {
                m.sgd_update_out(*row, 0.1, g);
            }
        }
        let after = m.loss(&sg, p);
        assert!(
            after < before,
            "20 SGD steps should reduce the loss ({before} -> {after})"
        );
    }

    #[test]
    fn buffer_reuse_is_clean_across_examples() {
        let (m, sg) = setup();
        let sg2 = Subgraph {
            center: 4,
            positive: 5,
            negatives: vec![0],
            edge_index: 1,
        };
        let mut buf = GradBuffer::new();
        m.example_grad(&sg, 1.0, &mut buf);
        m.example_grad(&sg2, 1.0, &mut buf);
        assert_eq!(buf.center, 4);
        let mut rows = buf.ctx_rows().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 5]);
    }
}
