// Determinism and cost-model invariance of the threaded, cached hot path.
//
// Two guarantees this PR's optimizations must never break:
//
//  1. Thread-count determinism: every kernel parallelizes over disjoint
//     output blocks whose per-element accumulation order is independent of
//     the chunk count, so training is bitwise identical under any
//     CAGNET_THREADS. (Verified via override_thread_budget, the in-process
//     form of the env var.)
//
//  2. Meter invariance of the epoch caches: the SUMMA sparse-block and
//     distributed-transpose caches replay their recorded epoch-1 charges,
//     so per-epoch CostMeter words/latency — the paper's measurements —
//     are exactly what the uncached (seed-behavior) path charges, for
//     every algebra and every epoch. The input-aggregation cache is the
//     one exception by design: it stops moving T^1 = A^T H^0 after epoch
//     1, so later epochs charge exactly that layer-1 term less.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/core/costmodel.hpp"
#include "src/graph/datasets.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

Graph make_graph(Index n, Index degree, Index f, Index classes,
                 std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "determinism-test";
  g.adjacency = gcn_normalize(rmat(n, n * degree, rng), true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (auto& label : g.labels) {
    label = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(classes)));
  }
  return g;
}

/// Forwarding decorator that meters each epoch's layer-1 forward: its
/// spmm_at and the times_weight that follows it (where the 1.5D overlap
/// mode lands its team reduction of T). Epochs are delimited by
/// begin_epoch; results and charges are the wrapped algebra's.
class Layer1Meter final : public DistSpmmAlgebra {
 public:
  explicit Layer1Meter(std::unique_ptr<DistSpmmAlgebra> inner)
      : DistSpmmAlgebra(inner->machine()), inner_(std::move(inner)) {}

  /// Per epoch: the charges of layer 1's spmm_at, and of spmm_at plus
  /// its times_weight.
  std::vector<CostMeter> at_charges;
  std::vector<CostMeter> forward_charges;

  const char* name() const override { return inner_->name(); }
  Comm& world() override { return inner_->world(); }
  Index row_lo() const override { return inner_->row_lo(); }
  Index row_hi() const override { return inner_->row_hi(); }
  std::pair<Index, Index> feat_slice(Index f) const override {
    return inner_->feat_slice(f);
  }
  bool rows_whole() const override { return inner_->rows_whole(); }
  bool owns_loss_rows() const override { return inner_->owns_loss_rows(); }

  void begin_epoch(int epoch) override {
    inner_->begin_epoch(epoch);
    at_charges.emplace_back();
    forward_charges.emplace_back();
    calls_ = 0;
  }
  void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) override {
    metered(calls_ == 0, [&] { inner_->spmm_at(h, t, stats); },
            &at_charges.back());
  }
  void times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                    EpochStats& stats) override {
    metered(calls_++ == 0, [&] { inner_->times_weight(t, w, z, stats); },
            nullptr);
  }
  void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) override {
    inner_->spmm_a(g, u, stats);
  }
  void gather_feature_rows(const Matrix& local, Index f, Matrix& full,
                           EpochStats& stats) override {
    inner_->gather_feature_rows(local, f, full, stats);
  }
  void reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                        Matrix& y_full, EpochStats& stats) override {
    inner_->reduce_gradients(y_partial, f_in, f_out, y_full, stats);
  }
  void begin_reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                              Matrix& y_full, EpochStats& stats) override {
    inner_->begin_reduce_gradients(y_partial, f_in, f_out, y_full, stats);
  }
  void finish_gradients(EpochStats& stats) override {
    inner_->finish_gradients(stats);
  }
  Matrix gather_output(const Matrix& output_rows, Index n) override {
    return inner_->gather_output(output_rows, n);
  }
  void begin_backward(EpochStats& stats) override {
    inner_->begin_backward(stats);
  }
  void end_backward(EpochStats& stats) override {
    inner_->end_backward(stats);
  }
  void drain() noexcept override { inner_->drain(); }

 protected:
  /// Unreachable: gather_output is overridden above.
  Comm& gather_comm() override { return inner_->world(); }

 private:
  template <typename Body>
  void metered(bool layer1, Body&& body, CostMeter* also) {
    if (!layer1 || forward_charges.empty()) {
      body();
      return;
    }
    const CostMeter before = world().meter();
    body();
    CostMeter delta = world().meter();
    delta.subtract(before);
    forward_charges.back().merge_sum(delta);
    if (also != nullptr) also->merge_sum(delta);
  }

  std::unique_ptr<DistSpmmAlgebra> inner_;
  int calls_ = 0;
};

/// (latency, words) of every category, in category order.
std::vector<double> meter_row(const CostMeter& m) {
  std::vector<double> row;
  for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
    const auto cat = static_cast<CommCategory>(c);
    row.push_back(m.latency_units(cat));
    row.push_back(m.words(cat));
  }
  return row;
}

struct TrainedState {
  std::vector<Real> losses;
  std::vector<Matrix> weights;
  Matrix output;
  // Per-epoch (latency, words) for every category, rank 0's view.
  std::vector<std::vector<double>> epoch_meters;
};

TrainedState train(const std::string& algebra, const DistProblem& problem,
                   const GnnConfig& config, int p, int epochs) {
  TrainedState state;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world);
    std::vector<Real> losses;
    std::vector<std::vector<double>> meters;
    for (int e = 0; e < epochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
      const CostMeter& m = trainer->last_epoch_stats().comm;
      std::vector<double> row;
      for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
        const auto cat = static_cast<CommCategory>(c);
        row.push_back(m.latency_units(cat));
        row.push_back(m.words(cat));
      }
      meters.push_back(std::move(row));
    }
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      state.losses = std::move(losses);
      state.weights = trainer->weights();
      state.output = std::move(out);
      state.epoch_meters = std::move(meters);
    }
  });
  return state;
}

void expect_bitwise_equal(const TrainedState& a, const TrainedState& b,
                          const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t e = 0; e < a.losses.size(); ++e) {
    EXPECT_EQ(a.losses[e], b.losses[e]) << label << " loss, epoch " << e;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t l = 0; l < a.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(a.weights[l], b.weights[l]), Real{0})
        << label << " weights, layer " << l;
  }
  EXPECT_LE(Matrix::max_abs_diff(a.output, b.output), Real{0})
      << label << " output";
}

/// Representative world per algebra, kept small so the whole suite stays
/// fast: the single-process worlds carry blocks large enough that the
/// kernels genuinely chunk under an 8-thread budget.
std::vector<std::pair<std::string, int>> determinism_cases() {
  return {{"1d", 1},      {"1d", 4},      {"1.5d-c2", 4}, {"1.5d-c4", 4},
          {"2d", 1},      {"2d", 4},      {"3d", 1},      {"3d", 8}};
}

TEST(ThreadDeterminism, TrainingBitwiseIdenticalAcrossThreadCounts) {
  // Large enough single-rank blocks that spmm/gemm really split into
  // multiple chunks at budget 8 (the minimum-work clamp is ~256k flops).
  const Graph g = make_graph(1024, 16, 32, 6, 71);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(32, 6, 32);

  for (const auto& [algebra, p] : determinism_cases()) {
    override_thread_budget(1);
    const TrainedState serial = train(algebra, problem, config, p, 3);
    override_thread_budget(8);
    const TrainedState threaded = train(algebra, problem, config, p, 3);
    override_thread_budget(0);
    expect_bitwise_equal(serial, threaded,
                         algebra + " p=" + std::to_string(p));
  }
}

TEST(ThreadDeterminism, NllGradientRowBlocksBitwiseIdentical) {
  // The engine's NLL-gradient loop runs on the pool once the output has
  // at least two 64k-element chunks: 8192 rows x 16 classes = 2 chunks.
  const Graph g = make_graph(8192, 4, 8, 16, 74);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(8, 16, 8);
  override_thread_budget(1);
  const TrainedState serial = train("1d", problem, config, 1, 2);
  override_thread_budget(8);
  const TrainedState threaded = train("1d", problem, config, 1, 2);
  override_thread_budget(0);
  expect_bitwise_equal(serial, threaded, "1d p=1 nll");
}

TEST(EpochCacheMeter, CachedChargesBitwiseMatchUncachedSeedBehavior) {
  const Graph g = make_graph(192, 8, 12, 4, 72);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(12, 4, 8);
  const int epochs = 3;

  for (const AlgebraSpec& spec : algebra_registry()) {
    int p = 0;
    for (int candidate : spec.world_sizes) {
      if (candidate > 1 && candidate <= 9) p = candidate;
    }
    ASSERT_GT(p, 0) << spec.name;

    dist::set_epoch_cache_enabled(true);
    const TrainedState cached = train(spec.name, problem, config, p, epochs);
    dist::set_epoch_cache_enabled(false);
    const TrainedState uncached =
        train(spec.name, problem, config, p, epochs);
    dist::set_epoch_cache_enabled(true);

    // The cached path must charge exactly the uncached (seed) meters for
    // every epoch and category — latency units and words bitwise equal.
    ASSERT_EQ(cached.epoch_meters.size(), uncached.epoch_meters.size());
    for (std::size_t e = 0; e < cached.epoch_meters.size(); ++e) {
      ASSERT_EQ(cached.epoch_meters[e].size(),
                uncached.epoch_meters[e].size());
      for (std::size_t i = 0; i < cached.epoch_meters[e].size(); ++i) {
        EXPECT_EQ(cached.epoch_meters[e][i], uncached.epoch_meters[e][i])
            << spec.name << " p=" << p << " epoch " << e << " slot " << i;
      }
    }
    // And the training itself must be unaffected by the cache.
    expect_bitwise_equal(cached, uncached, spec.name + " cache on/off");
  }
}

TEST(EpochCacheMeter, RepeatedEpochsChargeIdenticalMeters) {
  // Epoch 1 charges what every epoch charged before the input-aggregation
  // cache: its layer-1 forward aggregates T^1 = A^T H^0 and moves it.
  // Every later epoch serves T^1 from the cache and charges exactly that
  // layer-1 term less, identically from epoch 2 on (the adjacency traffic
  // is epoch-invariant and the dense traffic sizes never change). Checked
  // on every rank, per category, for every algebra, overlap mode and (1D
  // / 1.5D) halo mode, exact and under the int8 codec: the fill is exact,
  // and the encoded sizes of layers 2..L are fixed. Bounded staleness
  // (CAGNET_STALE) makes halo traffic epoch-VARIANT by design, so pin the
  // exact per-epoch schedule here.
  const int ambient_stale = dist::stale_k();
  const CompressMode ambient_mode = compress_mode();
  const bool ambient_overlap = dist::overlap_enabled();
  const bool ambient_halo = dist::halo_enabled();
  dist::set_stale_k(0);
  const Graph g = make_graph(128, 8, 10, 3, 73);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(10, 3, 6);
  const int epochs = 4;
  for (const CompressMode mode : {CompressMode::kOff, CompressMode::kInt8}) {
    set_compress_mode(mode);
    for (const auto& [algebra, p] :
         {std::pair<std::string, int>{"1d", 4}, {"1.5d-c2", 4}, {"2d", 4},
          {"3d", 8}}) {
      const bool rows_whole = algebra == "1d" || algebra == "1.5d-c2";
      for (const bool overlap : {false, true}) {
        for (const bool halo : {false, true}) {
          if (halo && !rows_whole) continue;
          dist::set_overlap_enabled(overlap);
          dist::set_halo_enabled(halo);
          const std::string label =
              algebra + (mode == CompressMode::kOff ? " exact" : " int8") +
              " overlap=" + std::to_string(overlap) +
              " halo=" + std::to_string(halo);
          run_world(p, [&](Comm& world) {
            auto meter = std::make_unique<Layer1Meter>(
                find_algebra(algebra)->make(problem, world,
                                            MachineModel::summit()));
            Layer1Meter& layer1 = *meter;
            DistEngine engine(problem, config, std::move(meter));
            std::vector<std::vector<double>> epoch;
            for (int e = 0; e < epochs; ++e) {
              engine.train_epoch();
              epoch.push_back(meter_row(engine.last_epoch_stats().comm));
            }
            const std::string where =
                label + " rank " + std::to_string(world.rank());
            for (int e = 2; e < epochs; ++e) {
              EXPECT_EQ(epoch[static_cast<std::size_t>(e)], epoch[1])
                  << where << " epoch " << e + 1;
            }
            // A hit charges nothing; the fill is the whole difference.
            const std::vector<double> zero(epoch[0].size(), 0.0);
            for (int e = 1; e < epochs; ++e) {
              const auto hit_at = static_cast<std::size_t>(e);
              EXPECT_EQ(meter_row(layer1.at_charges[hit_at]), zero)
                  << where << " epoch " << e + 1;
            }
            const std::vector<double> fill =
                meter_row(layer1.forward_charges[0]);
            const std::vector<double> hit =
                meter_row(layer1.forward_charges[1]);
            double fill_words = 0;
            for (std::size_t i = 0; i < epoch[0].size(); ++i) {
              EXPECT_EQ(epoch[0][i] - epoch[1][i], fill[i] - hit[i])
                  << where << " slot " << i;
              if (i % 2 == 1) fill_words += fill[i] - hit[i];
            }
            EXPECT_GT(fill_words, 0.0) << where;
          });
        }
      }
    }
  }
  dist::set_overlap_enabled(ambient_overlap);
  dist::set_halo_enabled(ambient_halo);
  set_compress_mode(ambient_mode);
  dist::set_stale_k(ambient_stale);
}

TEST(InputAggCache, MeteredDropMatchesSteadyTerm) {
  // The words epoch 1 charges over epoch 2, averaged over ranks, per
  // category, against the closed-form term the cache removes,
  // cost_X(in) - cost_X_steady(in, f0), split into its dense share (the
  // term at nnz = 0) and its sparse share. The closed forms keep the
  // paper's conventions, so the meter differs from them by these exact
  // amounts:
  //  - 1D: every broadcast charges its root the block too, n f0 / P over
  //    the P stages, which edgecut = n (P-1) / P leaves out;
  //  - 1.5D: the team all-reduce charges 2 (c-1)/c of T's block, not 2,
  //    so 2 n f0 / P less; 3D: the fiber reduce-scatter charges (q-1)/q
  //    of the partial, not all of it, so n f0 / P less;
  //  - 2D, 3D: a CSR block ships a column index per nonzero, rows + 1
  //    row pointers and a 3-word header, where the closed forms count one
  //    word per nonzero: the sparse share twice over, plus n + 4 words
  //    per stage.
  // Broadcast paths only: tests/halo_test.cpp pins the 1D halo path, whose
  // drop is the closed-form term exactly.
  const int ambient_stale = dist::stale_k();
  const bool ambient_overlap = dist::overlap_enabled();
  const bool ambient_halo = dist::halo_enabled();
  dist::set_stale_k(0);
  dist::set_halo_enabled(false);
  const Index n = 128;
  const Index f0 = 10;
  const Graph g = make_graph(n, 8, f0, 3, 73);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(f0, 3, 6);
  const auto nd = static_cast<double>(n);
  const auto f0d = static_cast<double>(f0);
  const auto nnz = static_cast<double>(g.adjacency.nnz());
  struct Case {
    std::string algebra;
    int p;
    int c;
  };
  for (const Case& cs :
       {Case{"1d", 4, 1}, Case{"1.5d-c2", 4, 2}, Case{"1.5d-c2", 8, 2},
        Case{"1.5d-c4", 8, 4}, Case{"2d", 4, 1}, Case{"2d", 16, 1},
        Case{"3d", 8, 1}}) {
    const auto term = [&](double nnz_in) {
      const CostInputs in =
          CostInputs::from_random(nd, nnz_in, f0d, cs.p, 3);
      const std::string& a = cs.algebra;
      if (a == "1d") return cost_1d(in).words - cost_1d_steady(in, f0d).words;
      if (a == "2d") return cost_2d(in).words - cost_2d_steady(in, f0d).words;
      if (a == "3d") return cost_3d(in).words - cost_3d_steady(in, f0d).words;
      return cost_15d(in, cs.c).words -
             cost_15d_steady(in, cs.c, f0d).words;
    };
    const double dense_term = term(0.0);
    const double sparse_term = term(nnz) - dense_term;
    const double pd = cs.p;
    double dense_gap = 0;
    double sparse_gap = 0;
    if (cs.algebra == "1d") dense_gap = nd * f0d / pd;
    if (cs.algebra.rfind("1.5d", 0) == 0) dense_gap = -2.0 * nd * f0d / pd;
    if (cs.algebra == "3d") dense_gap = -nd * f0d / pd;
    if (cs.algebra == "2d" || cs.algebra == "3d") {
      const double stages = cs.algebra == "2d" ? std::sqrt(pd) : std::cbrt(pd);
      sparse_gap = sparse_term + nd + 4.0 * stages;
    }
    for (const bool overlap : {false, true}) {
      dist::set_overlap_enabled(overlap);
      const std::string label = cs.algebra + " p=" + std::to_string(cs.p) +
                                " overlap=" + std::to_string(overlap);
      std::vector<double> drop(CostMeter::kNumCategories, 0.0);
      std::mutex mutex;
      run_world(cs.p, [&](Comm& world) {
        auto trainer = make_dist_trainer(cs.algebra, problem, config, world);
        trainer->train_epoch();
        const CostMeter first = trainer->last_epoch_stats().comm;
        trainer->train_epoch();
        const CostMeter& second = trainer->last_epoch_stats().comm;
        std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
          const auto cat = static_cast<CommCategory>(c);
          drop[c] += (first.words(cat) - second.words(cat)) / pd;
        }
      });
      const auto at = [&](CommCategory cat) {
        return drop[static_cast<std::size_t>(cat)];
      };
      EXPECT_GT(dense_term, 0.0) << label;
      EXPECT_DOUBLE_EQ(at(CommCategory::kDense), dense_term + dense_gap)
          << label;
      EXPECT_DOUBLE_EQ(at(CommCategory::kSparse), sparse_term + sparse_gap)
          << label;
      for (const CommCategory cat :
           {CommCategory::kTranspose, CommCategory::kHalo,
            CommCategory::kCompressed, CommCategory::kControl}) {
        EXPECT_EQ(at(cat), 0.0) << label << " " << comm_category_name(cat);
      }
    }
  }
  dist::set_overlap_enabled(ambient_overlap);
  dist::set_halo_enabled(ambient_halo);
  dist::set_stale_k(ambient_stale);
}

TEST(InputAggCache, FillBypassesTheRowCodec) {
  // Under a lossy row codec the halo exchanges of layers 2..L travel
  // encoded (kCompressed), but the input-aggregation fill ships exact
  // rows (kHalo): a lossy T^1 would otherwise be frozen for the run.
  const CompressMode ambient_mode = compress_mode();
  const bool ambient_halo = dist::halo_enabled();
  const int ambient_stale = dist::stale_k();
  set_compress_mode(CompressMode::kFp16);
  dist::set_halo_enabled(true);
  dist::set_stale_k(0);
  const Graph g = make_graph(128, 8, 10, 3, 75);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(10, 3, 6);
  run_world(4, [&](Comm& world) {
    auto meter = std::make_unique<Layer1Meter>(
        find_algebra("1d")->make(problem, world, MachineModel::summit()));
    Layer1Meter& layer1 = *meter;
    DistEngine engine(problem, config, std::move(meter));
    engine.train_epoch();
    const CostMeter& fill = layer1.at_charges[0];
    EXPECT_GT(fill.words(CommCategory::kHalo), 0.0);
    EXPECT_EQ(fill.words(CommCategory::kCompressed), 0.0);
    EXPECT_GT(engine.last_epoch_stats().comm.words(CommCategory::kCompressed),
              0.0);
  });
  dist::set_stale_k(ambient_stale);
  dist::set_halo_enabled(ambient_halo);
  set_compress_mode(ambient_mode);
}

TEST(InputAggCache, HitMatchesFillBitwise) {
  // Epoch k of a running engine serves T^1 from its cache; a fresh engine
  // restored to the same weights fills it on its first epoch. Their
  // epoch-k losses and weights must be bitwise equal — for the 1.5D
  // overlap mode too, whose T completes only after spmm_at returns.
  const CompressMode ambient_mode = compress_mode();
  const bool ambient_overlap = dist::overlap_enabled();
  const int ambient_stale = dist::stale_k();
  set_compress_mode(CompressMode::kOff);
  dist::set_stale_k(0);
  const Graph g = make_graph(160, 8, 12, 4, 76);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(12, 4, 8);
  config.learning_rate = 0.1;
  const int k = 3;
  for (const auto& [algebra, p] :
       {std::pair<std::string, int>{"1d", 1}, {"1d", 4}, {"1.5d-c2", 4},
        {"2d", 4}, {"3d", 8}}) {
    for (const bool overlap : {false, true}) {
      dist::set_overlap_enabled(overlap);
      const std::string label =
          algebra + " p=" + std::to_string(p) + " overlap=" +
          std::to_string(overlap);
      run_world(p, [&](Comm& world) {
        auto running = make_dist_trainer(algebra, problem, config, world);
        for (int e = 1; e < k; ++e) running->train_epoch();
        const std::vector<Matrix> restored = running->weights();
        const Real hit_loss = running->train_epoch().loss;
        auto fresh = make_dist_trainer(algebra, problem, config, world);
        fresh->set_weights(restored);
        const Real fill_loss = fresh->train_epoch().loss;
        EXPECT_EQ(hit_loss, fill_loss) << label;
        for (std::size_t l = 0; l < restored.size(); ++l) {
          EXPECT_LE(Matrix::max_abs_diff(running->weights()[l],
                                         fresh->weights()[l]),
                    Real{0})
              << label << " layer " << l;
        }
      });
    }
  }
  dist::set_overlap_enabled(ambient_overlap);
  dist::set_stale_k(ambient_stale);
  set_compress_mode(ambient_mode);
}

}  // namespace
}  // namespace cagnet
