// Self-test of the benchmark harness, on shrunken copies of the workloads:
//
//  - TimedAlgebra is bitwise-neutral: every epoch's loss and per-category
//    meters, and the final weights, are equal with and without it;
//  - each epoch's algebra spans plus the engine's self time equal its
//    epoch span, with every algebra span nested inside the epoch span.
//
// Run: ctest --test-dir <build dir>, or python3 perfbench/run.py --self-test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Workload shrunk(const std::string& name) {
  Workload w = *find_workload(name);
  w.n = w.sampled ? 1024 : 2048;
  w.f = 16;
  w.hidden = 16;
  return w;
}

void check_neutral_and_additive(const Workload& w) {
  const std::uint64_t seed = 11;
  const cagnet::Graph graph = make_graph(w, seed);
  const cagnet::DistProblem problem = prepare_problem(w, graph, seed);
  const cagnet::GnnConfig config = make_config(w, seed);
  WorldOptions options;
  options.min_epochs = 6;
  const WorldRun plain = run_one_world(w, problem, config, options);
  options.traced = true;
  const WorldRun traced = run_one_world(w, problem, config, options);

  const std::string tag = w.name + ": ";
  for (std::size_t r = 0; r < plain.ranks.size(); ++r) {
    const RankLog& a = plain.ranks[r];
    const RankLog& b = traced.ranks[r];
    expect(a.epochs.size() == b.epochs.size(), tag + "epoch counts differ");
    for (std::size_t k = 0; k < std::min(a.epochs.size(), b.epochs.size());
         ++k) {
      const cagnet::EpochStats& sa = a.epochs[k].stats;
      const cagnet::EpochStats& sb = b.epochs[k].stats;
      expect(same_bits(sa.result.loss, sb.result.loss),
             tag + "loss differs at epoch " + std::to_string(k));
      for (std::size_t c = 0; c < cagnet::CostMeter::kNumCategories; ++c) {
        const auto cat = static_cast<cagnet::CommCategory>(c);
        expect(same_bits(sa.comm.words(cat), sb.comm.words(cat)) &&
                   same_bits(sa.comm.latency_units(cat),
                             sb.comm.latency_units(cat)),
               tag + "meter " + cagnet::comm_category_name(cat) +
                   " differs at epoch " + std::to_string(k));
      }
    }
    expect(a.weights.size() == b.weights.size(), tag + "layer counts differ");
    for (std::size_t l = 0; l < a.weights.size(); ++l) {
      const auto x = a.weights[l].flat();
      const auto y = b.weights[l].flat();
      expect(x.size() == y.size() &&
                 std::memcmp(x.data(), y.data(), x.size_bytes()) == 0,
             tag + "weights differ in layer " + std::to_string(l));
    }
    expect(a.spans.spans.empty(), tag + "untraced world recorded spans");
  }

  // Per epoch and rank: the algebra spans tile part of the epoch span and
  // self time is the rest, so self + spans == epoch.
  for (const RankLog& log : traced.ranks) {
    for (std::size_t k = 0; k < log.epochs.size(); ++k) {
      const EpochRecord& e = log.epochs[k];
      double spans = 0;
      long calls = 0;
      for (const Span& s : log.spans.spans) {
        if (s.epoch != static_cast<int>(k)) continue;
        expect(s.start_s >= e.start_s && s.end_s <= e.end_s,
               tag + "span outside its epoch");
        spans += s.end_s - s.start_s;
        ++calls;
      }
      expect(calls >= 2 * config.num_layers(),
             tag + "missing algebra spans in epoch " + std::to_string(k));
      expect(spans <= e.end_s - e.start_s,
             tag + "algebra spans exceed their epoch");
    }
  }
  const LayerTable t = layer_table(traced);
  double parts = t.self_s;
  for (const double s : t.op_s) parts += s;
  expect(t.spans_nested, tag + "algebra spans overlap or leave the epoch");
  expect(t.max_residual_s <= 1e-9, tag + "epoch != self + algebra spans");
  expect(std::abs(parts - t.epoch_s) <= 1e-9 * t.epoch_s + 1e-12,
         tag + "layer table does not add up to the epoch");
  expect(t.self_s > 0, tag + "no engine self time");
  const auto calls = [&](Op op) {
    return t.op_calls[static_cast<std::size_t>(op)];
  };
  if (!w.sampled) {
    expect(calls(Op::kSpmmAt) == static_cast<double>(config.num_layers()),
           tag + "spmm_at calls != layers");
    expect(calls(Op::kSpmmA) == static_cast<double>(config.num_layers()),
           tag + "spmm_a calls != layers");
  }
  expect(calls(Op::kFinishGradients) >= 1, tag + "finish_gradients untimed");
  std::printf("%s: %ld epochs, self %.3f ms of %.3f ms\n", w.name.c_str(),
              t.epochs, t.self_s * 1e3, t.epoch_s * 1e3);
}

}  // namespace
}  // namespace perfbench

int main() {
  for (const perfbench::Workload& w : perfbench::workloads()) {
    perfbench::check_neutral_and_additive(perfbench::shrunk(w.name));
  }
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
