#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "src/comm/compress.hpp"
#include "src/comm/fault.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace perfbench {

using cagnet::Comm;
using cagnet::CommCategory;
using cagnet::CostMeter;
using cagnet::DistProblem;
using cagnet::EpochStats;
using cagnet::GnnConfig;
using cagnet::Graph;
using cagnet::MachineModel;
using cagnet::Matrix;
using cagnet::Profiler;
using cagnet::Real;
namespace dist = cagnet::dist;

// Sized for a 4-core host: each workload stays at ranks x threads <= 4
// and runs ~0.05-0.2 s per epoch, so a 35-second run holds the >= 100
// epochs a p90 needs.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "summa-2d", .algebra = "2d", .ranks = 4, .threads = 1,
       .planted = false, .n = 16384, .degree = 16, .f = 32, .hidden = 32,
       .partitioner = "block", .halo = false, .sampled = false, .fanouts = {},
       .batch = 0},
      {.name = "sampled-1d", .algebra = "1d", .ranks = 4, .threads = 1,
       .planted = true, .n = 4096, .degree = 16, .f = 64, .hidden = 64,
       .partitioner = "greedy-bfs", .halo = true, .sampled = true,
       .fanouts = {10, 5, 5}, .batch = 128},
      // A planted graph on one rank with four pool threads: the
      // single-worker baseline.
      {.name = "single-rank", .algebra = "1d", .ranks = 1, .threads = 4,
       .planted = true, .n = 16384, .degree = 16, .f = 64, .hidden = 64,
       .partitioner = "greedy-bfs", .halo = true, .sampled = false,
       .fanouts = {}, .batch = 0},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void pin_knobs(const Workload& w) {
  dist::set_overlap_enabled(true);
  dist::set_epoch_cache_enabled(true);
  dist::set_halo_enabled(w.halo);
  cagnet::set_compress_mode(cagnet::CompressMode::kOff);
  dist::set_stale_k(0);
  dist::set_stale_bounds(1, 8);
  dist::set_preagg_enabled(false);
  dist::set_sample_enabled(w.sampled);
  dist::set_sample_fanouts(w.sampled ? w.fanouts
                                     : std::vector<Index>{15, 10, 5});
  dist::set_sample_batch_size(w.sampled ? w.batch : 64);
  // run_world splits the budget across its rank threads, so each rank
  // gets w.threads pool threads.
  cagnet::override_thread_budget(w.ranks * w.threads);
  cagnet::set_fault_plan(nullptr);
}

Graph make_graph(const Workload& w, std::uint64_t seed) {
  cagnet::Rng rng(seed);
  Graph g;
  g.name = w.name;
  const double degree = static_cast<double>(w.degree);
  cagnet::Coo coo =
      w.planted ? cagnet::planted_partition(w.n, std::max<Index>(w.n / 48, 2),
                                            0.8 * degree, 0.2 * degree, rng,
                                            /*hub_fraction=*/0.0)
                : cagnet::rmat(w.n, w.n * w.degree, rng);
  g.adjacency = cagnet::gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(w.n, w.f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = w.classes;
  g.labels.resize(static_cast<std::size_t>(w.n));
  for (auto& label : g.labels) {
    label = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(w.classes)));
  }
  return g;
}

DistProblem prepare_problem(const Workload& w, const Graph& graph,
                            std::uint64_t seed) {
  if (w.partitioner == "block") return DistProblem::prepare(graph);
  return DistProblem::prepare(graph, w.ranks, w.partitioner, seed);
}

GnnConfig make_config(const Workload& w, std::uint64_t seed) {
  GnnConfig config = GnnConfig::three_layer(w.f, w.classes, w.hidden);
  config.seed = seed;
  return config;
}

// ---- Spans ----

const char* op_name(Op op) {
  switch (op) {
    case Op::kSpmmAt: return "spmm_at";
    case Op::kSpmmA: return "spmm_a";
    case Op::kTimesWeight: return "times_weight";
    case Op::kGatherFeatureRows: return "gather_feature_rows";
    case Op::kReduceGradients: return "reduce_gradients";
    case Op::kFinishGradients: return "finish_gradients";
    case Op::kTranspose: return "transpose";
    case Op::kBeginEpoch: return "begin_epoch";
    case Op::kCount: break;
  }
  return "?";
}

Clock::time_point clock_origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

double since_origin(Clock::time_point t) {
  return std::chrono::duration<double>(t - clock_origin()).count();
}

namespace {

/// Time `body` as one span of `op` on `log`.
template <typename Body>
void timed(SpanLog& log, Op op, Body&& body) {
  const Clock::time_point start = Clock::now();
  body();
  log.record(op, start, Clock::now());
}

}  // namespace

TimedAlgebra::TimedAlgebra(std::unique_ptr<cagnet::DistSpmmAlgebra> inner,
                           SpanLog& log)
    : DistSpmmAlgebra(inner->machine()), inner_(std::move(inner)),
      log_(log) {}

void TimedAlgebra::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  timed(log_, Op::kSpmmAt, [&] { inner_->spmm_at(h, t, stats); });
}

void TimedAlgebra::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  timed(log_, Op::kSpmmA, [&] { inner_->spmm_a(g, u, stats); });
}

void TimedAlgebra::times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                                EpochStats& stats) {
  timed(log_, Op::kTimesWeight,
        [&] { inner_->times_weight(t, w, z, stats); });
}

void TimedAlgebra::gather_feature_rows(const Matrix& local, Index f,
                                       Matrix& full, EpochStats& stats) {
  timed(log_, Op::kGatherFeatureRows,
        [&] { inner_->gather_feature_rows(local, f, full, stats); });
}

void TimedAlgebra::reduce_gradients(Matrix& y_partial, Index f_in,
                                    Index f_out, Matrix& y_full,
                                    EpochStats& stats) {
  timed(log_, Op::kReduceGradients, [&] {
    inner_->reduce_gradients(y_partial, f_in, f_out, y_full, stats);
  });
}

void TimedAlgebra::begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                          Index f_out, Matrix& y_full,
                                          EpochStats& stats) {
  timed(log_, Op::kReduceGradients, [&] {
    inner_->begin_reduce_gradients(y_partial, f_in, f_out, y_full, stats);
  });
}

void TimedAlgebra::finish_gradients(EpochStats& stats) {
  timed(log_, Op::kFinishGradients,
        [&] { inner_->finish_gradients(stats); });
}

void TimedAlgebra::begin_epoch(int epoch) {
  timed(log_, Op::kBeginEpoch, [&] { inner_->begin_epoch(epoch); });
}

void TimedAlgebra::begin_backward(EpochStats& stats) {
  timed(log_, Op::kTranspose, [&] { inner_->begin_backward(stats); });
}

void TimedAlgebra::end_backward(EpochStats& stats) {
  timed(log_, Op::kTranspose, [&] { inner_->end_backward(stats); });
}

std::unique_ptr<cagnet::DistEngine> make_engine(const Workload& w,
                                                const DistProblem& problem,
                                                const GnnConfig& config,
                                                Comm& world, SpanLog* spans) {
  const cagnet::AlgebraSpec* spec = cagnet::find_algebra(w.algebra);
  CAGNET_CHECK(spec != nullptr, "perfbench: unknown algebra " + w.algebra);
  std::unique_ptr<cagnet::DistSpmmAlgebra> algebra =
      spec->make(problem, world, MachineModel::summit());
  if (spans != nullptr) {
    algebra = std::make_unique<TimedAlgebra>(std::move(algebra), *spans);
  }
  return std::make_unique<cagnet::DistEngine>(problem, config,
                                              std::move(algebra));
}

// ---- One world ----

namespace {

void train_one(cagnet::DistEngine& engine, RankLog& log) {
  const Clock::time_point start = Clock::now();
  engine.train_epoch();
  const Clock::time_point end = Clock::now();
  log.epochs.push_back(EpochRecord{since_origin(start), since_origin(end),
                                   engine.last_epoch_stats()});
}

/// Rank-uniform continue/stop decision: rank 0 decides and broadcasts it
/// as control traffic. In overlap mode the broadcast is nonblocking so
/// the harness does not re-serialize the ranks each epoch; the persistent
/// flag buffers are released by the engine's epoch-start quiesce and, after
/// the last epoch, by the barrier that follows the loop.
bool broadcast_verdict(Comm& world, bool verdict,
                       std::array<Index, 1>& flag_src,
                       std::array<Index, 1>& flag_dst) {
  if (dist::overlap_enabled() && world.size() > 1) {
    flag_src[0] = verdict ? 1 : 0;
    cagnet::PendingOp op =
        world.rank() == 0
            ? world.ibroadcast_from(std::span<const Index>(flag_src),
                                    std::span<Index>{}, 0,
                                    CommCategory::kControl)
            : world.ibroadcast_from(std::span<const Index>{},
                                    std::span<Index>(flag_dst), 0,
                                    CommCategory::kControl);
    op.wait();
    return (world.rank() == 0 ? flag_src[0] : flag_dst[0]) == 1;
  }
  std::array<Index, 1> flag = {verdict ? Index{1} : Index{0}};
  world.broadcast(std::span<Index>(flag), 0, CommCategory::kControl);
  return flag[0] == 1;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

WorldRun run_one_world(const Workload& w, const DistProblem& problem,
                       const GnnConfig& config, const WorldOptions& options) {
  pin_knobs(w);
  clock_origin();  // fix the span time origin before any rank records
  WorldRun run;
  run.ranks.resize(static_cast<std::size_t>(w.ranks));
  for (int r = 0; r < w.ranks; ++r) {
    RankLog& log = run.ranks[static_cast<std::size_t>(r)];
    log.spans.rank = r;
    log.epochs.reserve(4096);
    if (options.traced) log.spans.spans.reserve(1 << 16);
  }

  cagnet::run_world(w.ranks, [&](Comm& world) {
    const int rank = world.rank();
    RankLog& log = run.ranks[static_cast<std::size_t>(rank)];
    std::array<Index, 1> flag_src = {0};
    std::array<Index, 1> flag_dst = {0};

    const Clock::time_point build_start = Clock::now();
    const std::unique_ptr<cagnet::DistEngine> engine = make_engine(
        w, problem, config, world, options.traced ? &log.spans : nullptr);
    world.barrier();
    const Clock::time_point built = Clock::now();
    log.spans.epoch = 0;
    train_one(*engine, log);
    world.barrier();
    const Clock::time_point warmed = Clock::now();
    if (rank == 0) {
      run.build_s = seconds_between(build_start, built);
      run.warmup_s = seconds_between(built, warmed);
    }

    const bool snapshot = options.gather && rank == 0 && !w.sampled;
    const Clock::time_point loop_start = Clock::now();
    bool keep_going = options.min_epochs > 0 || options.seconds > 0;
    long epochs = 0;
    while (keep_going) {
      if (snapshot) run.output_weights = engine->weights();
      log.spans.epoch = static_cast<int>(epochs + 1);
      train_one(*engine, log);
      ++epochs;
      const bool more =
          rank == 0 &&
          (epochs < options.min_epochs ||
           seconds_between(loop_start, Clock::now()) < options.seconds);
      keep_going = broadcast_verdict(world, more, flag_src, flag_dst);
    }
    if (rank == 0) run.window_s = seconds_between(loop_start, Clock::now());
    world.barrier();
    log.spans.epoch = -1;

    log.weights = engine->weights();
    if (options.gather) {
      Matrix out = engine->gather_output();
      if (rank == 0) {
        run.output = std::move(out);
        if (w.sampled) run.output_weights = log.weights;
      }
    }
  });
  return run;
}

// ---- Analysis ----

namespace {

std::size_t measured_epochs(const WorldRun& run) {
  const std::size_t total = run.ranks.front().epochs.size();
  return total > 0 ? total - 1 : 0;
}

double duration(const EpochRecord& e) { return e.end_s - e.start_s; }

}  // namespace

std::vector<double> epoch_seconds(const WorldRun& run) {
  std::vector<double> out(measured_epochs(run), 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    for (const RankLog& log : run.ranks) {
      out[k] = std::max(out[k], duration(log.epochs[k + 1]));
    }
  }
  return out;
}

namespace {

/// Per measured epoch: slowest rank's duration minus the fastest's.
std::vector<double> epoch_skew_seconds(const WorldRun& run) {
  std::vector<double> out(measured_epochs(run), 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    double lo = duration(run.ranks.front().epochs[k + 1]);
    double hi = lo;
    for (const RankLog& log : run.ranks) {
      lo = std::min(lo, duration(log.epochs[k + 1]));
      hi = std::max(hi, duration(log.epochs[k + 1]));
    }
    out[k] = hi - lo;
  }
  return out;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

TrafficMeans traffic_means(const WorldRun& run, std::size_t max_epochs) {
  TrafficMeans out;
  const std::size_t epochs = std::min(measured_epochs(run), max_epochs);
  if (epochs == 0) return out;
  const MachineModel summit = MachineModel::summit();
  // Sum first, divide once: the meters are integer counts, so a window of
  // identical epochs yields the exact per-epoch count.
  const auto n = static_cast<double>(epochs);
  const auto keep_max = [](double& into, double sum, double count) {
    into = std::max(into, sum / count);
  };
  for (const RankLog& log : run.ranks) {
    TrafficMeans sum;
    for (std::size_t k = 1; k <= epochs; ++k) {
      const EpochStats& s = log.epochs[k].stats;
      for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
        sum.words[c] += s.comm.words(static_cast<CommCategory>(c));
        sum.msgs[c] += s.comm.latency_units(static_cast<CommCategory>(c));
      }
      sum.total_words += s.comm.total_words();
      sum.total_msgs += s.comm.total_latency_units();
      sum.modeled_comm_s += s.comm.modeled_seconds(summit);
      sum.overlap_saved_modeled_s += s.comm.overlap_saved_seconds();
      sum.modeled_epoch_s += s.modeled_seconds_overlap(summit);
      sum.spmm_flops += s.work.spmm_flops();
      sum.gemm_flops += s.work.gemm_flops();
    }
    for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
      keep_max(out.words[c], sum.words[c], n);
      keep_max(out.msgs[c], sum.msgs[c], n);
    }
    keep_max(out.total_words, sum.total_words, n);
    keep_max(out.total_msgs, sum.total_msgs, n);
    keep_max(out.modeled_comm_s, sum.modeled_comm_s, n);
    keep_max(out.overlap_saved_modeled_s, sum.overlap_saved_modeled_s, n);
    keep_max(out.modeled_epoch_s, sum.modeled_epoch_s, n);
    keep_max(out.spmm_flops, sum.spmm_flops, n);
    keep_max(out.gemm_flops, sum.gemm_flops, n);
  }
  return out;
}

LayerTable layer_table(const WorldRun& run) {
  LayerTable table;
  const std::size_t epochs = measured_epochs(run);
  if (epochs == 0) return table;

  // Algebra spans of each rank bucketed by epoch id.
  std::vector<std::vector<std::vector<const Span*>>> by_epoch(
      run.ranks.size(), std::vector<std::vector<const Span*>>(epochs + 1));
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    for (const Span& s : run.ranks[r].spans.spans) {
      if (s.epoch < 0 || static_cast<std::size_t>(s.epoch) > epochs) {
        continue;
      }
      by_epoch[r][static_cast<std::size_t>(s.epoch)].push_back(&s);
    }
  }

  const std::vector<double> skew = epoch_skew_seconds(run);
  for (std::size_t k = 1; k <= epochs; ++k) {
    std::size_t slowest = 0;
    for (std::size_t r = 1; r < run.ranks.size(); ++r) {
      if (duration(run.ranks[r].epochs[k]) >
          duration(run.ranks[slowest].epochs[k])) {
        slowest = r;
      }
    }
    const EpochRecord& epoch = run.ranks[slowest].epochs[k];
    std::vector<const Span*> spans = by_epoch[slowest][k];
    std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
      return a->start_s < b->start_s;
    });
    // Union of the algebra spans, clipped to the epoch span: the part of
    // the epoch an algebra call covers. Self time is the rest.
    double covered = 0;
    double summed = 0;
    double cursor = epoch.start_s;
    for (const Span* s : spans) {
      if (s->start_s < epoch.start_s || s->end_s > epoch.end_s ||
          s->start_s < cursor) {
        table.spans_nested = false;
      }
      const double lo = std::max(s->start_s, cursor);
      const double hi = std::min(s->end_s, epoch.end_s);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, s->end_s);
      const double d = s->end_s - s->start_s;
      summed += d;
      table.op_s[static_cast<std::size_t>(s->op)] += d;
      table.op_calls[static_cast<std::size_t>(s->op)] += 1;
    }
    const double self = duration(epoch) - covered;
    table.self_s += self;
    table.epoch_s += duration(epoch);
    table.skew_s += skew[k - 1];
    table.max_residual_s =
        std::max(table.max_residual_s,
                 std::abs(duration(epoch) - (self + summed)));
    for (std::size_t ph = 0; ph < Profiler::kNumPhases; ++ph) {
      table.phase_s[ph] +=
          epoch.stats.profiler.seconds(static_cast<cagnet::Phase>(ph));
    }
  }

  // Divide (not multiply by 1/n) so whole call counts stay whole.
  const auto n = static_cast<double>(epochs);
  table.epochs = static_cast<long>(epochs);
  table.epoch_s /= n;
  table.self_s /= n;
  table.skew_s /= n;
  for (auto& v : table.op_s) v /= n;
  for (auto& v : table.op_calls) v /= n;
  for (auto& v : table.phase_s) v /= n;
  return table;
}

}  // namespace perfbench
