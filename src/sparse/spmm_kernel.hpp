// Raw CSR x dense kernel, templated on the value type.
//
// This is the workhorse the paper offloads to cuSPARSE csrmm2; here it is a
// portable CPU register-strip kernel. Each output row is produced strip by
// strip: a strip of up to eight 16-byte vectors of the row (16 doubles or
// 32 floats) stays in registers while the kernel runs over the row's
// nonzeros, adding v * x[col, strip] per nonzero, and is stored once at
// the end. The y row is thus read and written once per strip instead of
// once per nonzero. A row whose width is not a multiple of the strip ends
// in one narrower strip of the vectors that are left, then a scalar tail
// of f % lanes columns. The vectors are GCC vector extensions at the
// baseline ISA (SSE2 on x86-64), as in src/dense/gemm.cpp: no ISA flag.
// Templating lets the local-SpMM bench (E6) measure both fp32 (the paper's
// GPU precision) and fp64.
//
// Order contract: every y element is one accumulation chain over its
// row's nonzeros p in ascending order, starting from y when `accumulate`
// is set and from +0 otherwise, with one rounded multiply and one rounded
// add per step. There are no split accumulators and no FMA (SSE2 has
// none, so the compiler cannot contract a multiply and an add). Every caller
// that forms the same chain gets the same bits: SerialTrainer and the
// distributed algebras share this kernel, and a write-first stage (+0 +
// v*x) is exactly the first link of an accumulating one.
//
// The kernel is parallelized over contiguous row blocks on the persistent
// process-wide pool (src/util/parallel.hpp): each chunk owns a disjoint
// row range (boundaries chosen to balance nnz), so no synchronization or
// atomics are needed and the result is bitwise identical for every thread
// count. The automatic chunk count comes from the process thread budget
// (CAGNET_THREADS or the hardware concurrency, divided across concurrent
// simulated-world ranks) and is clamped by a minimum-work heuristic so the
// tiny per-rank blocks of the simulated distributed worlds stay serial.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>

#include "src/util/parallel.hpp"
#include "src/util/types.hpp"

namespace cagnet {

namespace detail {

/// Flops below which threading overhead outweighs the kernel itself.
inline constexpr double kSpmmMinFlopsPerThread = 1 << 18;

/// Vectors in a full register strip: half of the sixteen SSE registers,
/// leaving room for the x vectors in flight.
inline constexpr int kSpmmStripVecs = 8;

/// Columns [0, kVecs * lanes) of `yrow` (already offset to the strip),
/// one chain per element over the nonzeros [p0, p1) of its row. `x`
/// points at the strip's first column of row 0.
template <typename T, int kVecs>
void spmm_strip(Index p0, Index p1, const Index* col_idx, const T* vals,
                const T* x, Index f, T* yrow, bool accumulate) {
  typedef T V __attribute__((vector_size(16)));
  constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(T));
  V acc[kVecs];
  for (int q = 0; q < kVecs; ++q) {
    if (accumulate) {
      std::memcpy(&acc[q], yrow + q * kLanes, sizeof(V));
    } else {
      acc[q] = V{};
    }
  }
  for (Index p = p0; p < p1; ++p) {
    const T v = vals[p];
    const T* xrow = x + col_idx[p] * f;
    for (int q = 0; q < kVecs; ++q) {
      V xv;
      std::memcpy(&xv, xrow + q * kLanes, sizeof(V));
      acc[q] += v * xv;
    }
  }
  for (int q = 0; q < kVecs; ++q) {
    std::memcpy(yrow + q * kLanes, &acc[q], sizeof(V));
  }
}

/// Serial row-range body shared by the serial and threaded paths.
template <typename T>
void spmm_rows(Index r0, Index r1, const Index* row_ptr, const Index* col_idx,
               const T* vals, const T* x, Index f, T* y, bool accumulate) {
  constexpr Index kLanes = 16 / sizeof(T);
  constexpr Index kStrip = kSpmmStripVecs * kLanes;
  const Index full_end = f / kStrip * kStrip;
  const int rest_vecs = static_cast<int>((f - full_end) / kLanes);
  const Index tail = full_end + rest_vecs * kLanes;
  for (Index i = r0; i < r1; ++i) {
    const Index p0 = row_ptr[i];
    const Index p1 = row_ptr[i + 1];
    // An empty chain leaves y as it is: hypersparse stage blocks and halo
    // blocks are mostly empty rows, which must not cost a pass over y.
    if (accumulate && p0 == p1) continue;
    T* yrow = y + i * f;
    for (Index j = 0; j < full_end; j += kStrip) {
      spmm_strip<T, kSpmmStripVecs>(p0, p1, col_idx, vals, x + j, f,
                                    yrow + j, accumulate);
    }
    const auto rest = [&]<int kVecs>() {
      spmm_strip<T, kVecs>(p0, p1, col_idx, vals, x + full_end, f,
                           yrow + full_end, accumulate);
    };
    static_assert(kSpmmStripVecs == 8, "one case per narrower strip");
    switch (rest_vecs) {
      case 1: rest.template operator()<1>(); break;
      case 2: rest.template operator()<2>(); break;
      case 3: rest.template operator()<3>(); break;
      case 4: rest.template operator()<4>(); break;
      case 5: rest.template operator()<5>(); break;
      case 6: rest.template operator()<6>(); break;
      case 7: rest.template operator()<7>(); break;
      default: break;
    }
    // Scalar tail: the last f % lanes columns, each its own chain.
    for (Index j = tail; j < f; ++j) {
      T acc = accumulate ? yrow[j] : T{0};
      for (Index p = p0; p < p1; ++p) acc += vals[p] * x[col_idx[p] * f + j];
      yrow[j] = acc;
    }
  }
}

}  // namespace detail

/// y[i,:] (+)= sum_k a(i,k) * x[k,:] for a CSR matrix a of shape
/// (rows x anything), x with `f` columns, y with `f` columns.
/// If `accumulate` is false, y rows are overwritten and never read.
///
/// `num_threads` <= 0 selects automatically: up to
/// available_thread_budget() chunks, scaled down so each keeps at least
/// ~256k flops. Row-block boundaries are placed at nnz quantiles
/// (contiguous blocks, balanced work), so every thread count produces
/// bitwise-identical output. Chunks execute on the persistent pool; the
/// call never spawns threads, and allocates nothing beyond the pool's own
/// per-call batch record.
// [[hot-path]]
template <typename T>
void spmm_csr_kernel(Index rows, const Index* row_ptr, const Index* col_idx,
                     const T* vals, const T* x, Index f, T* y,
                     bool accumulate, int num_threads = 0) {
  const Index nnz = rows > 0 ? row_ptr[rows] : 0;
  int threads = num_threads;
  if (threads <= 0) {
    const double flops = 2.0 * static_cast<double>(nnz) *
                         static_cast<double>(f);
    threads = plan_chunks(flops, detail::kSpmmMinFlopsPerThread,
                          std::max<Index>(rows, 1));
  }
  threads = static_cast<int>(
      std::min<Index>(static_cast<Index>(threads), std::max<Index>(rows, 1)));

  if (threads <= 1) {
    detail::spmm_rows(Index{0}, rows, row_ptr, col_idx, vals, x, f, y,
                      accumulate);
    return;
  }

  // Contiguous row blocks with ~equal nnz: edge w is the first row whose
  // cumulative nnz reaches w/threads of the total. The targets do not
  // decrease in w, so neither do the edges.
  const auto edge = [&](int w) -> Index {
    if (w == 0) return 0;
    if (w == threads) return rows;
    return std::lower_bound(row_ptr, row_ptr + rows + 1, nnz * w / threads) -
           row_ptr;
  };
  const auto chunk = [&](int w) {
    detail::spmm_rows(edge(w), edge(w + 1), row_ptr, col_idx, vals, x, f, y,
                      accumulate);
  };
  // A reference_wrapper is stored inside std::function without a heap
  // block, whatever the lambda captures.
  parallel_for_chunks(threads, std::cref(chunk));
}

}  // namespace cagnet
