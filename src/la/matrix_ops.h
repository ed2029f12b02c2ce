#ifndef OPENIMA_LA_MATRIX_OPS_H_
#define OPENIMA_LA_MATRIX_OPS_H_

#include <vector>

#include "src/exec/context.h"
// PairwiseSquaredDistances and the rest of the distance-kernel family moved
// to src/la/distance.h; included here so existing callers keep compiling.
#include "src/la/distance.h"
#include "src/la/matrix.h"

namespace openima::la {

// Every kernel takes a trailing execution context; nullptr routes through
// the process-wide exec::Default(). All kernels are deterministic for any
// thread count: row-parallel kernels write disjoint outputs, and the GEMM
// family accumulates over k in ascending order per output element — the
// blocked/parallel products are bit-identical to MatmulReference on the
// same (possibly transposed) operands.

/// C = A * B. Cache-blocked, row-parallel kernel.
Matrix Matmul(const Matrix& a, const Matrix& b,
              const exec::Context* ctx = nullptr);

/// C = A^T * B (A is KxM, B is KxN, result MxN). A is transposed into a
/// packed buffer so the blocked kernel streams contiguous rows.
Matrix MatmulTN(const Matrix& a, const Matrix& b,
                const exec::Context* ctx = nullptr);

/// C = A * B^T (A is MxK, B is NxK, result MxN). B is transposed into a
/// packed buffer so the blocked kernel streams contiguous rows.
Matrix MatmulNT(const Matrix& a, const Matrix& b,
                const exec::Context* ctx = nullptr);

/// C += alpha * A * B into an existing, correctly shaped matrix.
void MatmulAccumulate(const Matrix& a, const Matrix& b, float alpha, Matrix* c,
                      const exec::Context* ctx = nullptr);

// In-place element-wise family: backward functions accumulate into pooled
// gradient buffers through these instead of materializing temporaries
// (`Matrix d = grad; d.Hadamard...; dst += d` costs an allocation and two
// sweeps). All are row-parallel with disjoint writes — deterministic for
// any thread count.

/// dst += src (shapes must match).
void AddInPlace(const Matrix& src, Matrix* dst,
                const exec::Context* ctx = nullptr);

/// m *= s.
void ScaleInPlace(float s, Matrix* m, const exec::Context* ctx = nullptr);

/// dst += alpha * src.
void AxpyInPlace(float alpha, const Matrix& src, Matrix* dst,
                 const exec::Context* ctx = nullptr);

/// dst += a (*) b (element-wise product accumulated without a temporary).
void HadamardAddInPlace(const Matrix& a, const Matrix& b, Matrix* dst,
                        const exec::Context* ctx = nullptr);

/// Adds the 1 x m->cols() row `bias` to every row of `m`, serially on the
/// calling thread (the bias add of autograd::ops::AddRowBroadcast and of
/// the layers' frozen forwards).
void AddRowBroadcastInPlace(const Matrix& bias, Matrix* m);

/// ELU in place, serially: x for x > 0, alpha * (exp(x) - 1) otherwise (the
/// forward of autograd::ops::Elu and of the GCN's frozen forward).
void EluInPlace(float alpha, Matrix* m);

/// Naive serial i-k-j reference product (no blocking, no threading, no
/// shortcuts). The parity tests and the kernel micro-benchmarks measure the
/// optimized kernels against this.
Matrix MatmulReference(const Matrix& a, const Matrix& b);

/// Returns the transposed matrix (tiled, row-parallel).
Matrix Transpose(const Matrix& m, const exec::Context* ctx = nullptr);

/// Row-wise softmax (numerically stable).
Matrix RowSoftmax(const Matrix& logits, const exec::Context* ctx = nullptr);

/// Row-wise log-softmax (numerically stable).
Matrix RowLogSoftmax(const Matrix& logits, const exec::Context* ctx = nullptr);

/// Divides each row by its L2 norm; rows with norm <= eps are left
/// untouched. Returns the per-row norms (n x 1).
Matrix RowL2NormalizeInPlace(Matrix* m, float eps = 1e-12f,
                             const exec::Context* ctx = nullptr);

/// Per-row L2 norms (n x 1).
Matrix RowL2Norms(const Matrix& m, const exec::Context* ctx = nullptr);

/// Index of the maximum entry of each row (ties -> lowest index).
std::vector<int> RowArgmax(const Matrix& m, const exec::Context* ctx = nullptr);

/// Maximum entry of each row.
std::vector<float> RowMax(const Matrix& m, const exec::Context* ctx = nullptr);

/// Per-row sums (n x 1).
Matrix RowSums(const Matrix& m, const exec::Context* ctx = nullptr);

/// Per-column means (1 x cols).
Matrix ColMeans(const Matrix& m);

/// Returns the submatrix of `m` with the given rows, in order.
Matrix GatherRows(const Matrix& m, const std::vector<int>& rows,
                  const exec::Context* ctx = nullptr);

/// Vertical concatenation: [a; b]. Column counts must match.
Matrix VStack(const Matrix& a, const Matrix& b);

}  // namespace openima::la

#endif  // OPENIMA_LA_MATRIX_OPS_H_
