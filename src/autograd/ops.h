#ifndef OPENIMA_AUTOGRAD_OPS_H_
#define OPENIMA_AUTOGRAD_OPS_H_

#include <utility>
#include <vector>

#include "src/autograd/variable.h"
#include "src/exec/context.h"
#include "src/util/rng.h"

namespace openima::autograd::ops {

// ---------------------------------------------------------------------------
// Structural / element-wise operations
// ---------------------------------------------------------------------------

/// Element-wise sum (shapes must match).
Variable Add(const Variable& a, const Variable& b);

/// Element-wise difference.
Variable Sub(const Variable& a, const Variable& b);

/// Element-wise (Hadamard) product.
Variable Mul(const Variable& a, const Variable& b);

/// Multiplication by a scalar constant.
Variable Scale(const Variable& a, float s);

/// Adds a 1 x C bias row to every row of the N x C input.
Variable AddRowBroadcast(const Variable& x, const Variable& bias);

/// Dense matrix product a (MxK) * b (KxN). Forward and both backward
/// products route through `ctx` (nullptr = the process default context).
Variable Matmul(const Variable& a, const Variable& b,
                const exec::Context* ctx = nullptr);

/// max(x, slope * x), slope in [0, 1). slope=0 gives ReLU.
Variable LeakyRelu(const Variable& x, float slope);

/// ELU: x for x > 0, alpha * (exp(x) - 1) otherwise.
Variable Elu(const Variable& x, float alpha = 1.0f);

/// Fused elu(x + bias) with bias a 1 x C row broadcast over the N x C input.
/// One output buffer and one sweep instead of the AddRowBroadcast + Elu
/// chain's two intermediate nodes; the analytic backward branches on the
/// fused output (valid because alpha > 0 makes elu sign-preserving). `ctx`
/// only selects the kernel backend (la::backend::Resolve) — forward and
/// backward run on the calling thread; the captured backend is reused by
/// the backward so both sweeps share one instance.
Variable AddBiasElu(const Variable& x, const Variable& bias,
                    float alpha = 1.0f, const exec::Context* ctx = nullptr);

/// Element-wise exponential.
Variable Exp(const Variable& x);

/// Inverted dropout. In training mode zeroes entries with probability `rate`
/// and scales survivors by 1/(1-rate); identity in eval mode. The paper's
/// SimCSE-style positive pairs come from calling the encoder twice so that
/// two independent masks are drawn.
Variable Dropout(const Variable& x, float rate, bool training, Rng* rng);

/// Divides every row by its L2 norm (rows with norm <= eps pass through).
Variable RowL2Normalize(const Variable& x, float eps = 1e-12f);

/// Selects rows by index; backward scatter-adds into the source rows.
Variable GatherRows(const Variable& x, std::vector<int> rows);

/// Horizontal concatenation of equally tall blocks (multi-head outputs).
Variable ConcatCols(const std::vector<Variable>& parts);

/// Vertical concatenation of equally wide blocks (stacks the two SimCSE
/// views of a contrastive batch).
Variable ConcatRows(const std::vector<Variable>& parts);

/// Mean over every entry -> 1x1 scalar.
Variable MeanAll(const Variable& x);

/// Sum over every entry -> 1x1 scalar.
Variable SumAll(const Variable& x);

// ---------------------------------------------------------------------------
// Losses (each returns a 1x1 scalar)
// ---------------------------------------------------------------------------

/// Mean softmax cross-entropy over rows. `labels[i]` in [0, C).
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels);

/// Cross-entropy with a per-sample margin subtracted from the target logit
/// before the softmax (ORCA's uncertainty-adaptive margin mechanism).
Variable MarginSoftmaxCrossEntropy(const Variable& logits,
                                   const std::vector<int>& labels,
                                   const std::vector<float>& margins);

/// Mean cross-entropy against fixed soft targets (rows of `target_probs`
/// sum to 1): SimGCD-style self-distillation toward a sharpened teacher.
Variable SoftCrossEntropy(const Variable& logits,
                          const la::Matrix& target_probs);

/// The SupCon-family contrastive loss of the paper's Eq. 7/8:
///
///   L = -1/B sum_i 1/|P(i)| sum_{j in P(i)} log( exp(s_ij/tau)
///         / sum_{k != i} exp(s_ik/tau) ),   s = Z Z^T.
///
/// `z` must hold L2-normalized rows (compose with RowL2Normalize).
/// `positives[i]` lists the in-batch positive indices of anchor i and must
/// be non-empty and exclude i itself (a SimCSE dropout twin provides at
/// least one positive for every anchor). With |P(i)| == 1 for all i this is
/// exactly InfoNCE; with label-based positives it is SupCon; with pseudo
/// labels it is the paper's BPCL.
///
/// Streamed: the forward and the backward walk s in row tiles, so time
/// stays O(B^2 d) but memory is O(B d) — no B x B matrix is ever held, and
/// the backward recomputes each tile. The results are bit-identical to
/// materialising s (DESIGN.md §2.2). `ctx` runs both passes (threads,
/// scratch pool, kernel backend) and must outlive the backward.
Variable SupConLoss(const Variable& z,
                    const std::vector<std::vector<int>>& positives, float tau,
                    const exec::Context* ctx = nullptr);

/// Fused RowL2Normalize + SupConLoss: takes raw (unnormalized) embeddings
/// and computes the contrastive loss on their normalized rows in one node.
/// Skips the intermediate normalize node and its stored copy; the backward
/// computes d(loss)/d(normalized) analytically and projects it through the
/// normalization Jacobian (I - z z^T) / ||x|| per row. Rows with norm <= eps
/// pass gradients through untouched, matching RowL2Normalize. Streamed like
/// SupConLoss; the softmax shifts by the bound 1/tau instead of each row's
/// max.
Variable NormalizedSupCon(const Variable& x,
                          const std::vector<std::vector<int>>& positives,
                          float tau, float eps = 1e-12f,
                          const exec::Context* ctx = nullptr);

/// Pairwise BCE on softmax-prediction agreement: for each (i, j, target)
/// with u = p_i . p_j,  loss = -[target log u + (1-target) log(1-u)],
/// averaged over pairs (ORCA's pairwise objective; OpenLDN's similarity
/// loss). Targets are 0/1.
struct Pair {
  int i;
  int j;
  float target;
};
Variable PairwiseDotBce(const Variable& logits, const std::vector<Pair>& pairs);

/// Negative entropy of the batch-mean prediction, -H(mean_i softmax(l_i)).
/// Minimizing this maximizes the entropy of the average prediction and
/// prevents all samples collapsing onto the seen classes (ORCA / SimGCD
/// regularizer).
Variable NegMeanPredictionEntropy(const Variable& logits);

/// Mean Shannon entropy of softmax(logits) over the given rows (all rows
/// when `rows` is empty). Used with positive weight to sharpen predictions
/// and negative weight to diffuse them (OODGAT's entropy-separation loss).
Variable MeanRowEntropy(const Variable& logits, const std::vector<int>& rows);

/// Mean KL( N(mu, exp(logvar)) || N(0, I) ) over rows — OpenWGL's
/// variational regularizer.
Variable GaussianKl(const Variable& mu, const Variable& logvar);

/// Mean squared error against a constant target.
Variable MseLoss(const Variable& pred, const la::Matrix& target);

}  // namespace openima::autograd::ops

#endif  // OPENIMA_AUTOGRAD_OPS_H_
