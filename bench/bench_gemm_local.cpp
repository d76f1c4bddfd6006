// Local GEMM scaling (google-benchmark), the dense sibling of
// bench_spmm_local: the paper reports local GEMM under "misc", and the 2D/
// 3D partitions make the dense operands skinny (f/sqrt(P) or f/P^(1/3)
// columns), so both the blocked-kernel rate and its thread scaling matter.
//
//   1. GFlop/s vs matrix shape for the three products of a layer: the
//      forward / partial-SUMMA shape (tall-skinny times small-square), the
//      weight-gradient shape (skinny^T times tall) and the input-gradient
//      shape (tall-skinny times small-square transposed), at paper-like
//      widths and at the 8-class output layer.
//   2. Thread scaling of the row-block-parallel kernel at fixed shape
//      (explicit counts override the automatic budget, like the SpMM
//      bench). "speedup_vs_1t" is serial seconds / per-iteration seconds.
#include <benchmark/benchmark.h>

#include "src/dense/gemm.hpp"
#include "src/dense/matrix.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace cagnet {
namespace {

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, -1, 1);
  return m;
}

// (1) The three local products of one GCN layer with f_in inputs and
// f_out outputs, on n = 16384 rows:
//   forward          Z = T W     (n x f_in)(f_in x f_out)      NN
//   weight gradient  Y = H^T U   (f_in x n)(n x f_out)         TN
//   input gradient   G = U W^T   (n x f_out)(f_out x f_in)     NT
// Square widths follow the paper's f = 16 middle layer split f/sqrt(P)
// ways across P = 1..64 plus the wide 64/300 layers; {64, 8} is the
// 8-class output layer.
void run_layer_shape(benchmark::State& state, Trans ta, Trans tb) {
  const Index n = 16384;
  const Index f_in = state.range(0);
  const Index f_out = state.range(1);
  // Stored operands: T or H is n x f_in, U is n x f_out, W is f_in x f_out.
  const Matrix a = random_matrix(n, tb == Trans::kYes ? f_out : f_in, 21);
  const Matrix b = random_matrix(ta == Trans::kYes ? n : f_in, f_out, 22);
  Matrix c(ta == Trans::kYes ? f_in : n, tb == Trans::kYes ? f_in : f_out);
  for (auto _ : state) {
    gemm(ta, tb, Real{1}, a, b, Real{0}, c);
    benchmark::DoNotOptimize(c.data());
  }
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f_in) * static_cast<double>(f_out);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmForwardShape(benchmark::State& state) {
  run_layer_shape(state, Trans::kNo, Trans::kNo);
}
BENCHMARK(BM_GemmForwardShape)
    ->Args({2, 2})->Args({4, 4})->Args({8, 8})->Args({16, 16})
    ->Args({64, 64})->Args({300, 300})->Args({64, 8});

void BM_GemmGradientShape(benchmark::State& state) {
  run_layer_shape(state, Trans::kYes, Trans::kNo);
}
BENCHMARK(BM_GemmGradientShape)
    ->Args({4, 4})->Args({16, 16})->Args({64, 64})->Args({300, 300})
    ->Args({64, 8});

void BM_GemmInputGradientShape(benchmark::State& state) {
  run_layer_shape(state, Trans::kNo, Trans::kYes);
}
BENCHMARK(BM_GemmInputGradientShape)
    ->Args({4, 4})->Args({16, 16})->Args({64, 64})->Args({300, 300})
    ->Args({64, 8});

// (2) Thread scaling at a fixed forward shape via the budget override.
double serial_gemm_seconds(const Matrix& t, const Matrix& w, Matrix& z) {
  static double cached = -1;
  if (cached >= 0) return cached;
  override_thread_budget(1);
  gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);  // warm-up
  WallTimer timer;
  for (int i = 0; i < 3; ++i) {
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
  }
  cached = timer.seconds() / 3;
  override_thread_budget(0);
  return cached;
}

void BM_GemmThreadScaling(benchmark::State& state) {
  const Index n = 16384;
  const Index f = 64;
  const int threads = static_cast<int>(state.range(0));
  const Matrix t = random_matrix(n, f, 25);
  const Matrix w = random_matrix(f, f, 26);
  Matrix z(n, f);
  const double serial_seconds = serial_gemm_seconds(t, w, z);
  override_thread_budget(threads);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
    benchmark::DoNotOptimize(z.data());
  }
  override_thread_budget(0);
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f) * static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["speedup_vs_1t"] = benchmark::Counter(
      serial_seconds * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_GemmThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();

}  // namespace
}  // namespace cagnet

BENCHMARK_MAIN();
