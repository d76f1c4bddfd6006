#include "src/dense/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

/// Flops below which threading overhead outweighs the kernel itself.
constexpr double kGemmMinFlopsPerChunk = 1 << 18;

// One 16-byte vector: the widest register the baseline x86-64 ISA (SSE2)
// guarantees, so the tiles need no ISA flag. Lane-wise vector multiply
// and add round exactly like their scalar forms.
using Vec = Real __attribute__((vector_size(16)));
constexpr int kLanes = static_cast<int>(sizeof(Vec) / sizeof(Real));

// Register tile: kMr rows x kNv vectors of C, i.e. 4 x 4 doubles in eight
// accumulator registers, leaving room for the B vectors and the A
// broadcast within the sixteen SSE registers.
constexpr int kMr = 4;
constexpr int kNv = 2;
constexpr Index kNc = kNv * kLanes;

// k-block of the rank-update shapes: the B block (kKc x n) and the A
// strip of one row tile stay cache-resident while the tiles sweep them.
// Between blocks a tile goes through C in memory, which is exact.
constexpr Index kKc = 128;

// Capacity, in elements, of the stack buffer that holds a packed B^T
// panel for the NT shape (64 KB of doubles: k x n up to 64 x 128 in one
// panel).
constexpr Index kPackCap = 8192;

Index op_rows(Trans t, const Matrix& m) {
  return t == Trans::kNo ? m.rows() : m.cols();
}
Index op_cols(Trans t, const Matrix& m) {
  return t == Trans::kNo ? m.cols() : m.rows();
}

Vec load_vec(const Real* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
void store_vec(Real* p, Vec v) { std::memcpy(p, &v, sizeof v); }
Vec splat(Real x) {
  Vec v{};
  for (int l = 0; l < kLanes; ++l) v[l] = x;
  return v;
}

/// A kRows x (kVecs * kLanes + kScalars) block of C held in registers.
/// Every element is one accumulation chain: accumulate() adds one rounded
/// product per k step with one rounded add, in ascending k order.
template <int kRows, int kVecs, int kScalars>
struct Tile {
  Vec v[kRows][kVecs > 0 ? kVecs : 1];
  Real s[kRows][kScalars > 0 ? kScalars : 1];

  void zero() {
    for (int r = 0; r < kRows; ++r) {
      for (int q = 0; q < kVecs; ++q) v[r][q] = Vec{};
      for (int q = 0; q < kScalars; ++q) s[r][q] = Real{0};
    }
  }

  void load(const Real* c, Index ldc) {
    for (int r = 0; r < kRows; ++r) {
      for (int q = 0; q < kVecs; ++q) {
        v[r][q] = load_vec(c + r * ldc + q * kLanes);
      }
      for (int q = 0; q < kScalars; ++q) {
        s[r][q] = c[r * ldc + kVecs * kLanes + q];
      }
    }
  }

  void store(Real* c, Index ldc) const {
    for (int r = 0; r < kRows; ++r) {
      for (int q = 0; q < kVecs; ++q) {
        store_vec(c + r * ldc + q * kLanes, v[r][q]);
      }
      for (int q = 0; q < kScalars; ++q) {
        c[r * ldc + kVecs * kLanes + q] = s[r][q];
      }
    }
  }

  /// C += alpha * tile (the NT epilogue). alpha * x is x exactly for
  /// alpha == 1, so kUnit skips the multiply without changing a bit.
  template <bool kUnit>
  void add_scaled_to(Real* c, Index ldc, Real alpha) const {
    const Vec av = splat(alpha);
    for (int r = 0; r < kRows; ++r) {
      for (int q = 0; q < kVecs; ++q) {
        Real* cp = c + r * ldc + q * kLanes;
        store_vec(cp, load_vec(cp) + (kUnit ? v[r][q] : av * v[r][q]));
      }
      for (int q = 0; q < kScalars; ++q) {
        c[r * ldc + kVecs * kLanes + q] += kUnit ? s[r][q] : alpha * s[r][q];
      }
    }
  }

  /// tile(r, j) += (alpha * a[r * a_row + p * a_step]) * b[p * ldb + j]
  /// for p in [0, kc). kUnit as in add_scaled_to.
  template <bool kUnit>
  void accumulate(const Real* a, Index a_row, Index a_step, const Real* b,
                  Index ldb, Index kc, Real alpha) {
    for (Index p = 0; p < kc; ++p) {
      const Real* brow = b + p * ldb;
      const Real* acol = a + p * a_step;
      Vec bv[kVecs > 0 ? kVecs : 1];
      Real bs[kScalars > 0 ? kScalars : 1];
      for (int q = 0; q < kVecs; ++q) bv[q] = load_vec(brow + q * kLanes);
      for (int q = 0; q < kScalars; ++q) bs[q] = brow[kVecs * kLanes + q];
      for (int r = 0; r < kRows; ++r) {
        const Real av = kUnit ? acol[r * a_row] : alpha * acol[r * a_row];
        const Vec avv = splat(av);
        for (int q = 0; q < kVecs; ++q) v[r][q] += avv * bv[q];
        for (int q = 0; q < kScalars; ++q) s[r][q] += av * bs[q];
      }
    }
  }
};

/// Calls body.template operator()<kRows, kVecs, kScalars>(i, j) for every
/// tile of rows [i0, i1) x columns [0, n): 4-row groups and then single
/// rows, each across full kNc-wide column tiles and one narrower tile for
/// the remainder.
template <typename Body>
void for_each_tile(Index i0, Index i1, Index n, Body&& body) {
  static_assert(kNc == 4 && kLanes == 2, "the tail tiles assume 4 doubles");
  const auto row_tiles = [&]<int kRows>(Index i) {
    Index j = 0;
    for (; j + kNc <= n; j += kNc) {
      body.template operator()<kRows, kNv, 0>(i, j);
    }
    switch (n - j) {
      case 1: body.template operator()<kRows, 0, 1>(i, j); break;
      case 2: body.template operator()<kRows, 1, 0>(i, j); break;
      case 3: body.template operator()<kRows, 1, 1>(i, j); break;
      default: break;
    }
  };
  Index i = i0;
  for (; i + kMr <= i1; i += kMr) row_tiles.template operator()<kMr>(i);
  for (; i < i1; ++i) row_tiles.template operator()<1>(i);
}

/// Rank-update shapes (NN, TN) on C rows [i0, i1): C starts beta-scaled
/// and each element adds (alpha * a) * b for k ascending. The A element
/// of row i at step p sits at a[i * a_row + p * a_step].
// [[hot-path]]
template <bool kUnit>
void update_rows(Index i0, Index i1, Real alpha, const Real* a, Index a_row,
                 Index a_step, const Real* b, Real* c, Index k, Index n) {
  for (Index p0 = 0; p0 < k; p0 += kKc) {
    const Index kc = std::min(kKc, k - p0);
    const Real* ap = a + p0 * a_step;
    const Real* bp = b + p0 * n;
    for_each_tile(i0, i1, n,
                  [&]<int kRows, int kVecs, int kScalars>(Index i, Index j) {
      Tile<kRows, kVecs, kScalars> t;
      Real* ct = c + i * n + j;
      t.load(ct, n);
      t.template accumulate<kUnit>(ap + i * a_row, a_row, a_step, bp + j, n,
                                   kc, alpha);
      t.store(ct, n);
    });
  }
}

/// NT shape on C rows [i0, i1): each element accumulates a(i, p) * b(j, p)
/// from zero for p ascending, then C += alpha * acc. B^T is packed into a
/// stack panel, `width` columns at a time, so the tiles read it like a
/// row-major B. Requires k * kNc <= kPackCap.
// [[hot-path]]
template <bool kUnit>
void dot_rows(Index i0, Index i1, Real alpha, const Real* a, const Real* b,
              Real* c, Index k, Index n) {
  Real panel[kPackCap];  // only the packed k x w prefix is ever read
  const Index width = k * n <= kPackCap ? n : kPackCap / (k * kNc) * kNc;
  for (Index j0 = 0; j0 < n; j0 += width) {
    const Index w = std::min(width, n - j0);
    for (Index jj = 0; jj < w; ++jj) {
      const Real* brow = b + (j0 + jj) * k;
      for (Index p = 0; p < k; ++p) panel[p * w + jj] = brow[p];
    }
    for_each_tile(i0, i1, w,
                  [&]<int kRows, int kVecs, int kScalars>(Index i, Index j) {
      Tile<kRows, kVecs, kScalars> t;
      t.zero();
      t.template accumulate<true>(a + i * k, k, 1, panel + j, w, k, Real{1});
      t.template add_scaled_to<kUnit>(c + i * n + j0 + j, n, alpha);
    });
  }
}

/// Generic dot-product form for the shapes without a tile kernel (TT, and
/// NT with k too deep for the pack buffer): the same per-element chain as
/// dot_rows.
void generic_rows(Index i0, Index i1, Trans trans_a, Trans trans_b,
                  Real alpha, const Matrix& a, const Matrix& b, Matrix& c,
                  Index k, Index n) {
  for (Index i = i0; i < i1; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real acc = 0;
      for (Index p = 0; p < k; ++p) {
        const Real av = trans_a == Trans::kNo ? a(i, p) : a(p, i);
        const Real bv = trans_b == Trans::kNo ? b(p, j) : b(j, p);
        acc += av * bv;
      }
      c(i, j) += alpha * acc;
    }
  }
}

/// One contiguous row block [i0, i1) of C = alpha * op(A) op(B) + C; the
/// beta pass already ran. Row blocks write disjoint C rows and every
/// element's chain is independent of the blocking, so any partition of
/// [0, m) produces bitwise-identical output.
template <bool kUnit>
void gemm_rows(Index i0, Index i1, Trans trans_a, Trans trans_b, Real alpha,
               const Matrix& a, const Matrix& b, Matrix& c, Index k,
               Index n) {
  if (trans_b == Trans::kNo) {
    // NN: A row i is contiguous in p. TN: stored A row p holds op(A)'s
    // column p, contiguous in i.
    const bool ta = trans_a == Trans::kYes;
    update_rows<kUnit>(i0, i1, alpha, a.data(), ta ? 1 : k, ta ? a.cols() : 1,
                       b.data(), c.data(), k, n);
  } else if (trans_a == Trans::kNo && k * kNc <= kPackCap) {
    dot_rows<kUnit>(i0, i1, alpha, a.data(), b.data(), c.data(), k, n);
  } else {
    generic_rows(i0, i1, trans_a, trans_b, alpha, a, b, c, k, n);
  }
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, Real alpha, const Matrix& a,
          const Matrix& b, Real beta, Matrix& c) {
  const Index m = op_rows(trans_a, a);
  const Index k = op_cols(trans_a, a);
  const Index k2 = op_rows(trans_b, b);
  const Index n = op_cols(trans_b, b);
  CAGNET_CHECK(k == k2, "gemm inner-dimension mismatch: " + a.shape_string() +
                            " x " + b.shape_string());
  CAGNET_CHECK(c.rows() == m && c.cols() == n,
               "gemm output shape mismatch: got " + c.shape_string());

  const bool multiply = alpha != Real{0} && m > 0 && n > 0 && k > 0;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(k) * static_cast<double>(n);
  const int chunks =
      multiply ? plan_chunks(flops, kGemmMinFlopsPerChunk, m) : 1;

  parallel_for(m, chunks, [&](Index i0, Index i1) {
    // Per-row beta pass inside the chunk keeps C rows hot for the
    // accumulation that follows.
    if (beta == Real{0}) {
      std::fill(c.data() + i0 * n, c.data() + i1 * n, Real{0});
    } else if (beta != Real{1}) {
      Real* row = c.data() + i0 * n;
      const Index len = (i1 - i0) * n;
      for (Index j = 0; j < len; ++j) row[j] *= beta;
    }
    if (!multiply) return;
    if (alpha == Real{1}) {
      gemm_rows<true>(i0, i1, trans_a, trans_b, alpha, a, b, c, k, n);
    } else {
      gemm_rows<false>(i0, i1, trans_a, trans_b, alpha, a, b, c, k, n);
    }
  });
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a, Trans trans_b) {
  Matrix c(op_rows(trans_a, a), op_cols(trans_b, b));
  gemm(trans_a, trans_b, Real{1}, a, b, Real{0}, c);
  return c;
}

}  // namespace cagnet
