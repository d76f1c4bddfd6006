// Local dense matrix multiplication (the paper's GEMM, reported under "misc").
#pragma once

#include "src/dense/matrix.hpp"

namespace cagnet {

/// Whether an operand enters the product transposed.
enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// op(A) is (m x k), op(B) is (k x n), C must be (m x n).
///
/// Order contract: every C element is one accumulation chain in ascending
/// k order, one rounded multiply and one rounded add per product, with no
/// split accumulators and no FMA contraction. With B not transposed (NN,
/// TN) the chain starts from the beta-scaled C and adds (alpha * a) * b;
/// with B transposed (NT, TT) it accumulates a * b from zero and then
/// adds alpha times the sum to the beta-scaled C. The result is therefore
/// bitwise independent of the thread count and of how rows are tiled, and
/// a product over a row subset, or over k padded with zero products,
/// equals the matching part of the full product bit for bit.
///
/// NN, TN and NT run register-tiled kernels that hold a 4 x 4 block of C
/// in 16-byte vector registers over a k-block (NT packs B^T into a fixed
/// stack panel first); TT, and NT with k too deep for that panel, take a
/// generic dot-product loop. The kernels use GCC vector extensions at the
/// baseline ISA (SSE2 on x86-64) and need no ISA flag. Rows are split
/// into blocks on the thread pool.
void gemm(Trans trans_a, Trans trans_b, Real alpha, const Matrix& a,
          const Matrix& b, Real beta, Matrix& c);

/// Convenience allocating form: returns op(A) * op(B).
Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a = Trans::kNo,
              Trans trans_b = Trans::kNo);

}  // namespace cagnet
