// Tests for the Section IV closed-form cost model: exact formula values,
// asymptotic ratios (the paper's headline O(sqrt(P)) and O(P^(1/6))
// claims), the 2D-vs-1D crossover, and memory-replication accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/costmodel.hpp"
#include "src/util/error.hpp"

namespace cagnet {
namespace {

CostInputs paper_like_inputs(int p) {
  // Section IV-C.5's simplification regime: nnz ≈ n f, f << n.
  const double n = 1e6;
  const double f = 128;
  return CostInputs::from_random(n, n * f, f, p, /*layers=*/3);
}

TEST(CostModel, RandomEdgecutBound) {
  const CostInputs in =
      CostInputs::from_random(1000, 8000, 16, 8, 3);
  EXPECT_DOUBLE_EQ(in.edgecut, 1000.0 * 7 / 8);
}

TEST(CostModel, OneDFormulaExact) {
  CostInputs in;
  in.n = 100;
  in.nnz = 900;
  in.f = 10;
  in.edgecut = 80;
  in.p = 4;
  in.layers = 2;
  const CommCost c = cost_1d(in);
  EXPECT_DOUBLE_EQ(c.latency_units, 2 * 3.0 * 2.0);  // L * 3 lg 4
  EXPECT_DOUBLE_EQ(c.words, 2 * (80.0 * 10 + 100.0 * 10 + 100.0));
}

TEST(CostModel, SymmetricOneDCheaperThanGeneral) {
  const CostInputs in = paper_like_inputs(64);
  EXPECT_LT(cost_1d_symmetric(in).words, cost_1d(in).words);
}

TEST(CostModel, TransposingVariantAddsTransposeCost) {
  const CostInputs in = paper_like_inputs(64);
  const CommCost sym = cost_1d_symmetric(in);
  const CommCost tr = cost_1d_transposing(in);
  EXPECT_DOUBLE_EQ(tr.latency_units - sym.latency_units, 2.0 * 64 * 64);
  EXPECT_DOUBLE_EQ(tr.words - sym.words, 2.0 * in.nnz / 64);
}

TEST(CostModel, TwoDFormulaExact) {
  CostInputs in;
  in.n = 100;
  in.nnz = 900;
  in.f = 10;
  in.p = 16;
  in.layers = 1;
  const CommCost c = cost_2d(in);
  EXPECT_DOUBLE_EQ(c.latency_units, 5.0 * 4 + 3.0 * 4);
  EXPECT_DOUBLE_EQ(c.words, 8.0 * 1000 / 4 + 2.0 * 900 / 4 + 100.0);
}

TEST(CostModel, ThreeDFormulaExact) {
  CostInputs in;
  in.n = 100;
  in.nnz = 900;
  in.f = 10;
  in.p = 64;
  in.layers = 1;
  const CommCost c = cost_3d(in);
  EXPECT_DOUBLE_EQ(c.latency_units, 4.0 * 4);
  EXPECT_DOUBLE_EQ(c.words, 2.0 * 900 / 16 + 12.0 * 1000 / 16);
}

// The paper's Section IV-C.5 conclusion: under nnz ≈ nf, random edgecut,
// and f << n, the 2D algorithm moves (5 / sqrt(P)) of the 1D volume.
TEST(CostModel, TwoDOverOneDRatioIsFiveOverSqrtP) {
  for (int p : {16, 64, 256, 1024}) {
    const CostInputs in = paper_like_inputs(p);
    const double ratio = cost_2d(in).words / cost_1d(in).words;
    const double predicted = 5.0 / std::sqrt(static_cast<double>(p));
    EXPECT_NEAR(ratio, predicted, 0.15 * predicted) << "P=" << p;
  }
}

// Crossover: 2D wins on bandwidth once sqrt(P) >= 5 (Section VI-d's
// explanation for why 8-16 GPU studies can't see the benefit).
TEST(CostModel, TwoDCrossoverNearSqrtPFive) {
  const CostInputs at16 = paper_like_inputs(16);   // sqrt = 4 < 5
  const CostInputs at36 = paper_like_inputs(36);   // sqrt = 6 > 5
  EXPECT_GT(cost_1d(at16).words, 0.0);
  EXPECT_GT(cost_2d(at16).words, cost_1d(at16).words);
  EXPECT_LT(cost_2d(at36).words, cost_1d(at36).words);
}

// 3D reduces words by another factor ~P^(1/6) over 2D (with constants).
TEST(CostModel, ThreeDAsymptoticallyBeatsTwoD) {
  for (int p : {4096, 32768}) {
    const CostInputs in = paper_like_inputs(p);
    const double gain = cost_2d(in).words / cost_3d(in).words;
    const double predicted =
        std::pow(static_cast<double>(p), 1.0 / 6.0) * 10.0 / 14.0;
    EXPECT_NEAR(gain, predicted, 0.25 * predicted) << "P=" << p;
  }
}

TEST(CostModel, LatencyOrdering1DLowest) {
  // 1D pays lg P latency; 2D pays sqrt(P); 3D pays P^(1/3): at large P the
  // latency ordering is the reverse of the bandwidth ordering.
  const CostInputs in = paper_like_inputs(4096);
  EXPECT_LT(cost_1d(in).latency_units, cost_3d(in).latency_units);
  EXPECT_LT(cost_3d(in).latency_units, cost_2d(in).latency_units);
}

TEST(CostModel, WordsDecreaseMonotonicallyInP) {
  double prev2d = 1e300;
  double prev3d = 1e300;
  for (int p : {8, 64, 512, 4096}) {
    const CostInputs in = paper_like_inputs(p);
    EXPECT_LT(cost_2d(in).words, prev2d);
    EXPECT_LT(cost_3d(in).words, prev3d);
    prev2d = cost_2d(in).words;
    prev3d = cost_3d(in).words;
  }
}

TEST(CostModel, OneAndAHalfDInterpolates) {
  const CostInputs in = paper_like_inputs(64);
  // c = 1 degenerates to ~1D-sized dense traffic; larger c cuts it.
  const double w1 = cost_15d(in, 1).words;
  const double w4 = cost_15d(in, 4).words;
  const double w8 = cost_15d(in, 8).words;
  EXPECT_GT(w1, w4);
  EXPECT_GT(w4, w8);
}

TEST(CostModel, OneAndAHalfDRejectsNonDivisorReplication) {
  const CostInputs in = paper_like_inputs(64);
  EXPECT_THROW(cost_15d(in, 3), Error);
}

TEST(CostModel, RectangularForwardMinimizedNearSquare) {
  // Section IV-C.6: for nnz ≈ nf shapes the dense terms dominate and the
  // square grid minimizes their sum ("square has the smallest perimeter").
  const CostInputs in = paper_like_inputs(64);
  const double square = cost_2d_rectangular_forward(in, 8, 8).words;
  const double tall = cost_2d_rectangular_forward(in, 32, 2).words;
  const double wide = cost_2d_rectangular_forward(in, 2, 32).words;
  EXPECT_LT(square, tall);
  EXPECT_LT(square, wide);
}

TEST(CostModel, RectangularTallGridTradesSparseForDense) {
  // With average degree >> f, a taller grid (Pr > Pc) cuts the sparse term.
  CostInputs in;
  in.n = 1e6;
  in.f = 16;
  in.nnz = 500 * in.n;  // d = 500 >> f
  in.p = 64;
  in.layers = 1;
  const CommCost square = cost_2d_rectangular_forward(in, 8, 8);
  const CommCost tall = cost_2d_rectangular_forward(in, 16, 4);
  // Sparse part: nnz/Pr shrinks with taller grids.
  EXPECT_LT(in.nnz / 16, in.nnz / 8);
  EXPECT_LT(tall.words - (in.n * in.f / 4 + in.n * in.f / 16),
            square.words - (in.n * in.f / 8 + in.n * in.f / 8));
}

TEST(CostModel, MemoryReplicationFactors) {
  const CostInputs in = paper_like_inputs(64);
  const double m1 = memory_words_1d(in);
  const double m2 = memory_words_2d(in);
  const double m15 = memory_words_15d(in, 4);
  const double m3 = memory_words_3d(in);
  // 2D is memory-optimal (equal to 1D); 1.5D pays ~c on the dense part;
  // 3D pays ~P^(1/3).
  EXPECT_DOUBLE_EQ(m1, m2);
  EXPECT_GT(m15, m2);
  EXPECT_GT(m3, m2);
  EXPECT_LT(m3, 5.0 * m2);  // cbrt(64) = 4 on the dense term only
}

TEST(CostModel, SecondsCombineAlphaBeta) {
  MachineModel m;
  m.alpha = 2.0;
  m.beta = 0.5;
  const CommCost c = {3.0, 10.0};
  EXPECT_DOUBLE_EQ(c.seconds(m), 2.0 * 3.0 + 0.5 * 10.0);
}

TEST(CostModel, FromPartitionUsesMeasuredEdgecut) {
  EdgeCutStats cut;
  cut.total_cut_edges = 5000;
  cut.max_cut_edges_per_part = 900;
  cut.max_remote_rows_per_part = 123;
  const CostInputs measured =
      CostInputs::from_partition(cut, 1000, 8000, 16, 8, 3);
  EXPECT_DOUBLE_EQ(measured.edgecut, 123.0);
  // Every other field matches the random-bound inputs.
  const CostInputs bound = CostInputs::from_random(1000, 8000, 16, 8, 3);
  EXPECT_DOUBLE_EQ(measured.n, bound.n);
  EXPECT_DOUBLE_EQ(measured.nnz, bound.nnz);
  EXPECT_DOUBLE_EQ(measured.f, bound.f);
  EXPECT_EQ(measured.p, bound.p);
  EXPECT_EQ(measured.layers, bound.layers);
  // A measured edgecut below the bound yields a cheaper 1D prediction —
  // the IV-A.8 payoff the halo path realizes.
  EXPECT_LT(cost_1d(measured).words, cost_1d(bound).words);
  EXPECT_DOUBLE_EQ(cost_1d(measured).words - cost_1d(bound).words,
                   3.0 * (123.0 - bound.edgecut) * 16.0);
}

// Steady-state forms: the closed form minus the layer-1 forward
// aggregation at the input width, which the algebras pay in epoch 1 only.
// Uniform widths (f0 = f) make the removed term exactly one layer's
// forward SpMM.
TEST(CostModel, SteadyStateFormsExact) {
  CostInputs in;
  in.n = 100;
  in.nnz = 900;
  in.f = 10;
  in.edgecut = 80;
  in.p = 4;
  in.layers = 2;
  CommCost c = cost_1d_steady(in, 10);
  EXPECT_DOUBLE_EQ(c.latency_units, 12.0 - 2.0);    // minus lg 4
  EXPECT_DOUBLE_EQ(c.words, 3800.0 - 80.0 * 10);    // minus edgecut f0

  in.p = 16;
  c = cost_15d_steady(in, 4, 10);
  EXPECT_DOUBLE_EQ(c.latency_units, 32.0 - (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(c.words, 2700.0 - (250.0 + 500.0));

  in.layers = 1;
  c = cost_2d_steady(in, 10);
  EXPECT_DOUBLE_EQ(c.latency_units, 32.0 - 2.0 * 4);
  EXPECT_DOUBLE_EQ(c.words, 2550.0 - (900.0 / 4 + 1000.0 / 4));

  in.p = 64;
  c = cost_3d_steady(in, 10);
  EXPECT_DOUBLE_EQ(c.latency_units, 16.0 - 2.0 * 4);
  EXPECT_DOUBLE_EQ(c.words, 862.5 - (900.0 / 16 + 2.0 * 1000 / 16));
}

TEST(CostModel, SteadyStateCutIsLargeOnWideInputs) {
  // Reddit's Table VI shape (f0 = 602 against 16-wide hidden layers):
  // the input aggregation carries a large share of every family's words,
  // and no steady form goes negative.
  const double n = 232965;
  const double nnz = 114615892;
  const double f0 = 602;
  const CostInputs in =
      CostInputs::from_random(n, nnz, (f0 + 16 + 16) / 3, 64, 3);
  const CommCost full[] = {cost_1d(in), cost_15d(in, 4), cost_2d(in),
                           cost_3d(in)};
  const CommCost steady[] = {cost_1d_steady(in, f0),
                             cost_15d_steady(in, 4, f0),
                             cost_2d_steady(in, f0), cost_3d_steady(in, f0)};
  for (int k = 0; k < 4; ++k) {
    SCOPED_TRACE(algorithm_name(k));
    EXPECT_GT(steady[k].words, 0.0);
    EXPECT_GT(steady[k].latency_units, 0.0);
    EXPECT_LT(steady[k].words, 0.9 * full[k].words);
    EXPECT_LT(steady[k].latency_units, full[k].latency_units);
  }
  // 1D pays edgecut * f0 of ~2 edgecut * 3 f per epoch: about half.
  EXPECT_LT(steady[0].words, 0.6 * full[0].words);
}

TEST(CostModel, AlgorithmNames) {
  EXPECT_STREQ(algorithm_name(0), "1D");
  EXPECT_STREQ(algorithm_name(1), "1.5D");
  EXPECT_STREQ(algorithm_name(2), "2D");
  EXPECT_STREQ(algorithm_name(3), "3D");
}

}  // namespace
}  // namespace cagnet
