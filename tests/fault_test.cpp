// Fault-injection and recovery drills: the transport seam's FaultPlan
// kills/delays/poisons ranks at chosen points of the communication
// schedule, every survivor must unwind with a typed CommAborted (never a
// hang), and the checkpoint/restart driver must resume bitwise-identical
// (exact mode) to an uninterrupted run across all four algebra families.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/comm/fault.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/core/recovery.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/error.hpp"

namespace cagnet {
namespace {

/// Installs a fault plan for the enclosed run_world calls and disarms it
/// on exit, so a failing assertion can't leak faults into later tests.
class FaultPlanGuard {
 public:
  explicit FaultPlanGuard(FaultPlan plan) {
    set_fault_plan(std::make_shared<FaultPlan>(std::move(plan)));
  }
  ~FaultPlanGuard() { clear_fault_plan(); }
};

/// Pin the exact wire for resume-bitwise drills: the error-feedback
/// residual (CAGNET_COMPRESS) and the stale halo cache (CAGNET_STALE /
/// CAGNET_PREAGG) are per-run transient state never captured by a
/// checkpoint, so a restarted lossy run legitimately diverges from the
/// uninterrupted oracle.
class ExactModeGuard {
 public:
  ExactModeGuard()
      : mode_(compress_mode()),
        stale_(dist::stale_k()),
        preagg_(dist::preagg_enabled()) {
    set_compress_mode(CompressMode::kOff);
    dist::set_stale_k(0);
    dist::set_preagg_enabled(false);
  }
  ~ExactModeGuard() {
    set_compress_mode(mode_);
    dist::set_stale_k(stale_);
    dist::set_preagg_enabled(preagg_);
  }

 private:
  CompressMode mode_;
  int stale_;
  bool preagg_;
};

class CompressModeGuard {
 public:
  explicit CompressModeGuard(CompressMode mode) : mode_(compress_mode()) {
    set_compress_mode(mode);
  }
  ~CompressModeGuard() { set_compress_mode(mode_); }

 private:
  CompressMode mode_;
};

class OverlapGuard {
 public:
  explicit OverlapGuard(bool on) : was_(dist::overlap_enabled()) {
    dist::set_overlap_enabled(on);
  }
  ~OverlapGuard() { dist::set_overlap_enabled(was_); }

 private:
  bool was_;
};

Graph small_graph(Index n, Index communities, Index f, Index classes,
                  std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "fault-test";
  Coo coo = planted_partition(n, communities, 8.0, 1.0, rng,
                              /*hub_fraction=*/0.0);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    g.labels[static_cast<std::size_t>(v)] = v % classes;
  }
  return g;
}

struct Trace {
  std::vector<Real> losses;
  std::vector<Matrix> weights;
};

/// Uninterrupted oracle: train straight through, rank 0's view.
Trace train_oracle(const std::string& algebra, const DistProblem& problem,
                   const GnnConfig& config, int p, int epochs) {
  Trace trace;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world);
    std::vector<Real> losses;
    for (int e = 0; e < epochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
    }
    if (world.rank() == 0) {
      trace.losses = std::move(losses);
      trace.weights = trainer->weights();
    }
  });
  return trace;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- FaultPlan spec grammar ----

TEST(FaultSpec, ParsesActionsCategoriesSites) {
  const FaultPlan plan = FaultPlan::parse(
      "kill:2:trpose:post:3;delay:0:any:wait:1:7;poison:1:halo:charge:2");
  EXPECT_EQ(plan.trigger_count(), 3u);
  EXPECT_EQ(FaultPlan::parse("").trigger_count(), 0u);
  EXPECT_EQ(FaultPlan::parse(";;").trigger_count(), 0u);
  // "transpose" is accepted as an alias for the meter's "trpose".
  EXPECT_EQ(FaultPlan::parse("kill:0:transpose:post:1").trigger_count(), 1u);
}

TEST(FaultSpec, MalformedSpecThrowsCatchableError) {
  EXPECT_THROW(FaultPlan::parse("bogus"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:1:dense:post"), Error);
  EXPECT_THROW(FaultPlan::parse("explode:1:dense:post:1"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:1:warp:post:1"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:1:dense:sideways:1"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:1:dense:post:0"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:1:dense:post:1:5"), Error);
  try {
    FaultPlan::parse("kill:one:dense:post:1");
    FAIL() << "malformed rank did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CAGNET_FAULT"), std::string::npos);
  }
}

TEST(FaultSpec, SeededNthIsDeterministicAndInRange) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const std::uint64_t n = seeded_nth(seed, 1, 8);
    EXPECT_EQ(n, seeded_nth(seed, 1, 8));
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 8u);
  }
  EXPECT_EQ(FaultPlan::parse("kill:0:dense:post:s42").trigger_count(), 1u);
}

// ---- Kill: typed aborts, never a hang ----

TEST(FaultAbort, KillAtBlockingPostNamesRankOpCategorySite) {
  FaultPlanGuard guard(FaultPlan().kill(2, CommCategory::kTranspose,
                                        FaultSite::kPost, /*nth=*/2));
  try {
    run_world(4, [](Comm& comm) {
      std::vector<Real> data(8, static_cast<Real>(comm.rank()));
      for (int i = 0; i < 4; ++i) {
        comm.allreduce_sum(std::span<Real>(data), CommCategory::kTranspose);
      }
    });
    FAIL() << "injected kill did not abort the world";
  } catch (const CommAborted& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.op(), "allreduce_sum");
    EXPECT_EQ(e.category(), CommCategory::kTranspose);
    EXPECT_EQ(e.site(), FaultSite::kPost);
    EXPECT_EQ(e.cause(), "injected rank kill");
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 2"), std::string::npos);
    EXPECT_NE(what.find("allreduce_sum"), std::string::npos);
    EXPECT_NE(what.find("trpose"), std::string::npos);
    EXPECT_NE(what.find("post"), std::string::npos);
  }
}

TEST(FaultAbort, PeersUnwindWithTypedPeerFailure) {
  const int p = 4;
  FaultPlanGuard guard(
      FaultPlan().kill(1, CommCategory::kDense, FaultSite::kPost, 2));
  std::array<std::string, 4> causes;
  std::array<int, 4> ranks{-1, -1, -1, -1};
  EXPECT_THROW(
      run_world(p,
                [&](Comm& comm) {
                  try {
                    std::vector<Real> data(4, Real{1});
                    for (int i = 0; i < 4; ++i) {
                      comm.broadcast(std::span<Real>(data), 0,
                                     CommCategory::kDense);
                    }
                  } catch (const CommAborted& e) {
                    const auto r = static_cast<std::size_t>(comm.rank());
                    causes[r] = e.cause();
                    ranks[r] = e.rank();
                    throw;
                  }
                }),
      CommAborted);
  EXPECT_EQ(causes[1], "injected rank kill");
  for (int r : {0, 2, 3}) {
    const auto i = static_cast<std::size_t>(r);
    // Every survivor observes a typed abort naming ITS rank and a peer
    // failure as the cause — not a hang, not a bare runtime_error.
    EXPECT_EQ(causes[i], "a peer rank failed") << "rank " << r;
    EXPECT_EQ(ranks[i], r) << "rank " << r;
  }
}

TEST(FaultAbort, KillInsideSplitCollectiveDoesNotHangOtherGroups) {
  // A rank dying while OTHER split groups are parked inside their own
  // blocking collectives must poison-wake everyone.
  // Trigger ranks are communicator-local, so sub-rank 2 names the last
  // member of whichever 3-rank split group reaches the 5th post first.
  FaultPlanGuard guard(
      FaultPlan().kill(2, CommCategory::kSparse, FaultSite::kPost, 5));
  try {
    run_world(6, [](Comm& comm) {
      Comm sub = comm.split(comm.rank() % 2, comm.rank());
      std::vector<Real> data(16, static_cast<Real>(comm.rank()));
      for (int i = 0; i < 50; ++i) {
        sub.allreduce_sum(std::span<Real>(data), CommCategory::kSparse);
      }
    });
    FAIL() << "injected kill did not abort the world";
  } catch (const CommAborted& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.cause(), "injected rank kill");
  }
}

TEST(FaultAbort, KillAtNonblockingWait) {
  FaultPlanGuard guard(
      FaultPlan().kill(0, CommCategory::kSparse, FaultSite::kWait, 1));
  try {
    run_world(2, [](Comm& comm) {
      std::vector<Real> src(8, static_cast<Real>(comm.rank() + 1));
      std::vector<Real> dst(8, Real{0});
      PendingOp op = comm.iallreduce_sum(std::span<const Real>(src),
                                         std::span<Real>(dst),
                                         CommCategory::kSparse);
      op.wait();
      comm.quiesce();
    });
    FAIL() << "injected kill did not abort the world";
  } catch (const CommAborted& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_EQ(e.op(), "iallreduce_sum");
    EXPECT_EQ(e.site(), FaultSite::kWait);
    EXPECT_EQ(e.cause(), "injected rank kill");
  }
}

TEST(FaultAbort, KillMidSourceDrain) {
  // Die between two await_source calls of an ialltoallv drain; the
  // partially-drained PendingOp must clean up and peers must unwind.
  FaultPlanGuard guard(
      FaultPlan().kill(1, CommCategory::kHalo, FaultSite::kWait, 2));
  try {
    run_world(3, [](Comm& comm) {
      const int p = comm.size();
      std::vector<Real> send;
      std::vector<std::size_t> offsets{0};
      for (int d = 0; d < p; ++d) {
        for (int k = 0; k <= d; ++k) {
          send.push_back(static_cast<Real>(comm.rank() * 10 + d));
        }
        offsets.push_back(send.size());
      }
      PendingOp op = comm.ialltoallv_post(
          std::span<const Real>(send), std::span<const std::size_t>(offsets),
          CommCategory::kHalo);
      for (int src = 0; src < p; ++src) {
        op.await_source<Real>(src);
      }
      op.wait();
      comm.quiesce();
    });
    FAIL() << "injected kill did not abort the world";
  } catch (const CommAborted& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.op(), "ialltoallv_post drain");
    EXPECT_EQ(e.category(), CommCategory::kHalo);
    EXPECT_EQ(e.site(), FaultSite::kWait);
  }
}

TEST(FaultAbort, CompressedCollectiveAborts) {
  FaultPlanGuard guard(
      FaultPlan().kill(1, CommCategory::kCompressed, FaultSite::kWait, 1));
  try {
    run_world(2, [](Comm& comm) {
      std::vector<Real> data(64, static_cast<Real>(comm.rank() + 1) * 0.25);
      CompressBuf buf;
      comm.allreduce_sum_compressed(std::span<Real>(data),
                                    CompressMode::kInt8, buf);
    });
    FAIL() << "injected kill did not abort the world";
  } catch (const CommAborted& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.category(), CommCategory::kCompressed);
    EXPECT_EQ(e.cause(), "injected rank kill");
  }
}

// ---- Delay: timing stress only, results and meters bitwise ----

TEST(FaultDelay, ResultsAndMetersStayBitwise) {
  const int p = 2;
  const auto workload = [](Comm& comm, std::vector<Real>& out) {
    std::vector<Real> data(32, static_cast<Real>(comm.rank() + 1) * 0.5);
    comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
    std::vector<Real> swapped =
        comm.exchange(std::span<const Real>(data), 1 - comm.rank(),
                      CommCategory::kHalo);
    PendingOp op = comm.iallreduce_sum(std::span<const Real>(swapped),
                                       std::span<Real>(data),
                                       CommCategory::kSparse);
    op.wait();
    comm.quiesce();
    if (comm.rank() == 0) out = data;
  };

  std::vector<Real> baseline;
  std::vector<CostMeter> baseline_meters;
  run_world(p, [&](Comm& c) { workload(c, baseline); }, &baseline_meters);

  std::vector<Real> delayed;
  std::vector<CostMeter> delayed_meters;
  {
    FaultPlanGuard guard(
        FaultPlan()
            .delay(0, CommCategory::kDense, FaultSite::kPost, 1, 5)
            .delay(1, CommCategory::kSparse, FaultSite::kWait, 1, 5));
    run_world(p, [&](Comm& c) { workload(c, delayed); }, &delayed_meters);
  }

  EXPECT_EQ(delayed, baseline);
  ASSERT_EQ(delayed_meters.size(), baseline_meters.size());
  for (std::size_t r = 0; r < baseline_meters.size(); ++r) {
    for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
      const auto cat = static_cast<CommCategory>(c);
      EXPECT_EQ(delayed_meters[r].words(cat), baseline_meters[r].words(cat))
          << "rank " << r << " cat " << comm_category_name(cat);
      EXPECT_EQ(delayed_meters[r].latency_units(cat),
                baseline_meters[r].latency_units(cat))
          << "rank " << r << " cat " << comm_category_name(cat);
    }
  }
}

// ---- Poison: receiver-side integrity failure ----

TEST(FaultPoison, PoisonedPayloadIsTypedAbort) {
  FaultPlanGuard guard(
      FaultPlan().poison(1, CommCategory::kHalo, FaultSite::kPost, 1));
  try {
    run_world(2, [](Comm& comm) {
      std::vector<Real> data(16, static_cast<Real>(comm.rank()));
      comm.exchange(std::span<const Real>(data), 1 - comm.rank(),
                    CommCategory::kHalo);
    });
    FAIL() << "poisoned payload did not abort the world";
  } catch (const CommAborted& e) {
    EXPECT_EQ(e.rank(), 1);
    EXPECT_EQ(e.category(), CommCategory::kHalo);
    EXPECT_EQ(e.cause(), "poisoned payload detected");
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos);
  }
}

// ---- The thread pool stays reusable after an abort ----

TEST(FaultAbort, WorldIsImmediatelyRelaunchableAfterAbort) {
  {
    FaultPlanGuard guard(
        FaultPlan().kill(0, CommCategory::kDense, FaultSite::kPost, 1));
    EXPECT_THROW(run_world(4,
                           [](Comm& comm) {
                             std::vector<Real> d(4, Real{1});
                             comm.allreduce_sum(std::span<Real>(d),
                                                CommCategory::kDense);
                           }),
                 CommAborted);
  }
  // Same process, fresh world, faults disarmed: everything works.
  std::vector<Real> sum(4, Real{0});
  run_world(4, [&](Comm& comm) {
    std::vector<Real> d(4, Real{1});
    comm.allreduce_sum(std::span<Real>(d), CommCategory::kDense);
    if (comm.rank() == 0) sum = d;
  });
  EXPECT_EQ(sum, std::vector<Real>(4, Real{4}));
}

// ---- Recovery drills: checkpoint/restart closes the loop ----

TEST(RecoveryDrill, RestartIsBitwiseAcrossAlgebrasAndOverlapModes) {
  ExactModeGuard exact;
  const Graph g = small_graph(160, 8, 8, 4, 77);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  config.learning_rate = 0.1;
  const DistProblem problem = DistProblem::prepare(g);
  const int epochs = 5;

  const struct {
    const char* algebra;
    int p;
  } cases[] = {{"1d", 4}, {"1.5d-c2", 4}, {"2d", 4}, {"3d", 8}};

  for (const bool overlap : {true, false}) {
    OverlapGuard overlap_guard(overlap);
    for (const auto& c : cases) {
      SCOPED_TRACE(std::string(c.algebra) + (overlap ? "/overlap" : "/sync"));
      const Trace oracle =
          train_oracle(c.algebra, problem, config, c.p, epochs);

      const std::string path =
          temp_path(std::string("cagnet_drill_") + c.algebra +
                    (overlap ? "_ov" : "_sync") + ".ckpt");
      RecoveryOptions options;
      options.ckpt_path = path;
      options.ckpt_every = 2;
      RecoveryReport report;
      {
        // Kill rank 1 at its 40th publication of any category: lands
        // mid-training, after checkpoints have started landing.
        FaultPlanGuard guard(
            FaultPlan().kill_any(1, FaultSite::kPost, 40));
        report = train_with_recovery(c.algebra, problem, config, c.p,
                                     epochs, options);
      }
      EXPECT_GE(report.restarts, 1);
      ASSERT_TRUE(report.last_abort.has_value());
      EXPECT_EQ(report.last_abort->rank(), 1);
      EXPECT_GE(report.checkpoints_written, 1);

      // The recovered run is indistinguishable from the oracle: same
      // per-epoch losses, bitwise-identical final weights.
      EXPECT_EQ(report.losses, oracle.losses);
      ASSERT_EQ(report.weights.size(), oracle.weights.size());
      for (std::size_t l = 0; l < oracle.weights.size(); ++l) {
        EXPECT_LE(Matrix::max_abs_diff(report.weights[l], oracle.weights[l]),
                  Real{0})
            << "layer " << l;
      }
      // Atomic writes: no half-written temp file survives.
      EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
      std::remove(path.c_str());
    }
  }
}

TEST(RecoveryDrill, RestartFromScratchWhenKilledBeforeFirstCheckpoint) {
  ExactModeGuard exact;
  const Graph g = small_graph(96, 4, 8, 4, 31);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  config.learning_rate = 0.1;
  const DistProblem problem = DistProblem::prepare(g);
  const int epochs = 3;
  const Trace oracle = train_oracle("1d", problem, config, 4, epochs);

  const std::string path = temp_path("cagnet_drill_scratch.ckpt");
  RecoveryOptions options;
  options.ckpt_path = path;
  options.ckpt_every = 10;  // never fires within 3 epochs
  RecoveryReport report;
  {
    FaultPlanGuard guard(FaultPlan().kill_any(0, FaultSite::kPost, 5));
    report = train_with_recovery("1d", problem, config, 4, epochs, options);
  }
  // No checkpoint existed yet: recovery restarts from the deterministic
  // initial weights and must still match the oracle bitwise.
  EXPECT_GE(report.restarts, 1);
  EXPECT_EQ(report.checkpoints_written, 0);
  EXPECT_EQ(report.losses, oracle.losses);
  ASSERT_EQ(report.weights.size(), oracle.weights.size());
  for (std::size_t l = 0; l < oracle.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(report.weights[l], oracle.weights[l]),
              Real{0});
  }
  std::remove(path.c_str());
}

TEST(RecoveryDrill, Int8CompressedRunRecovers) {
  // Under a lossy codec the EF residuals are transient per-world state,
  // so recovery is convergence-preserving rather than bitwise; the drill
  // asserts completion with a sane loss trajectory after the restart.
  CompressModeGuard int8(CompressMode::kInt8);
  const Graph g = small_graph(96, 4, 8, 4, 31);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  config.learning_rate = 0.1;
  const DistProblem problem = DistProblem::prepare(g);
  const int epochs = 4;

  const std::string path = temp_path("cagnet_drill_int8.ckpt");
  RecoveryOptions options;
  options.ckpt_path = path;
  options.ckpt_every = 1;
  RecoveryReport report;
  {
    FaultPlanGuard guard(FaultPlan().kill(
        1, CommCategory::kCompressed, FaultSite::kWait, 3));
    report = train_with_recovery("1d", problem, config, 4, epochs, options);
  }
  EXPECT_GE(report.restarts, 1);
  ASSERT_EQ(report.losses.size(), static_cast<std::size_t>(epochs));
  for (const Real loss : report.losses) {
    EXPECT_TRUE(std::isfinite(loss));
    EXPECT_GT(loss, Real{0});
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(RecoveryDrill, RestartsExhaustedRethrowsAbort) {
  ExactModeGuard exact;
  const Graph g = small_graph(64, 4, 8, 4, 11);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  const DistProblem problem = DistProblem::prepare(g);

  const std::string path = temp_path("cagnet_drill_exhaust.ckpt");
  RecoveryOptions options;
  options.ckpt_path = path;
  options.ckpt_every = 0;
  options.max_restarts = 1;
  // Two distinct kills: the counters are process-cumulative, so the
  // second trigger fires on the rebuilt world, and with max_restarts = 1
  // the driver must give up and surface the abort to the caller.
  FaultPlanGuard guard(FaultPlan()
                           .kill_any(0, FaultSite::kPost, 3)
                           .kill_any(0, FaultSite::kPost, 6));
  EXPECT_THROW(train_with_recovery("1d", problem, config, 4, 3, options),
               CommAborted);
  std::remove(path.c_str());
}

TEST(CkptEveryKnob, RejectsNegativeAndParsesEnvLazily) {
  const int was = ckpt_every();
  set_ckpt_every(4);
  EXPECT_EQ(ckpt_every(), 4);
  EXPECT_THROW(set_ckpt_every(-1), Error);
  set_ckpt_every(was);
}

}  // namespace
}  // namespace cagnet
