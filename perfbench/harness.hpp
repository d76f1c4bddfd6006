// The repo benchmark's harness: pinned GCN training workloads, a closed
// epoch loop, a timing decorator over DistSpmmAlgebra, and the analysis
// that turns per-rank epoch records and spans into end-to-end and
// per-layer metrics. main.cpp drives it; selftest.cpp checks it.
//
// Everything here times the library from outside: around the calls into
// DistEngine::train_epoch, into every DistSpmmAlgebra virtual (through
// TimedAlgebra) and into the setup functions. Nothing inside src/ is
// instrumented beyond what it already records in EpochStats.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dist_engine.hpp"
#include "src/graph/graph.hpp"

namespace perfbench {

using cagnet::Index;

/// One pinned training configuration. Every field is fixed per workload;
/// only the seed varies between runs.
struct Workload {
  std::string name;
  std::string algebra;      ///< registry name ("1d", "2d")
  int ranks = 1;            ///< simulated world size (rank threads)
  int threads = 1;          ///< pool threads per rank
  bool planted = true;      ///< planted communities, else R-MAT
  Index n = 0;
  Index degree = 0;
  Index f = 0;              ///< input feature width
  Index hidden = 0;
  Index classes = 8;
  std::string partitioner;  ///< "greedy-bfs", or "block" (identity layout)
  bool halo = false;
  bool sampled = false;
  std::vector<Index> fanouts;  ///< sampled only, outermost hop first
  Index batch = 0;             ///< sampled only
};

/// The three benchmark workloads (see perfbench/README.md for why each).
const std::vector<Workload>& workloads();
/// Lookup by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// Set every process-global knob the library reads, through its
/// in-process setter, so an ambient CAGNET_* variable cannot change a
/// workload. Call before each world.
void pin_knobs(const Workload& w);

/// Seeded inputs: the same seed gives the same graph, partition and
/// initial weights.
cagnet::Graph make_graph(const Workload& w, std::uint64_t seed);
cagnet::DistProblem prepare_problem(const Workload& w,
                                    const cagnet::Graph& graph,
                                    std::uint64_t seed);
cagnet::GnnConfig make_config(const Workload& w, std::uint64_t seed);

// ---- Spans ----

/// The algebra operations the decorator times. kReduceGradients covers
/// both reduce_gradients and begin_reduce_gradients (the engine's entry
/// point); kTranspose covers begin_backward + end_backward.
enum class Op : std::size_t {
  kSpmmAt = 0,
  kSpmmA,
  kTimesWeight,
  kGatherFeatureRows,
  kReduceGradients,
  kFinishGradients,
  kTranspose,
  kBeginEpoch,
  kCount
};
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);
const char* op_name(Op op);

/// One algebra call on one rank. `epoch` is the shared id of every span
/// of one epoch (-1 outside the epoch loop); the parent of a span is the
/// train_epoch span with the same id (EpochRecord).
struct Span {
  const char* name = "";
  Op op = Op::kCount;
  int rank = 0;
  int epoch = -1;
  double start_s = 0;  ///< seconds since clock_origin()
  double end_s = 0;
};

using Clock = std::chrono::steady_clock;
/// Process-wide time origin shared by every rank's spans.
Clock::time_point clock_origin();
double since_origin(Clock::time_point t);

/// Per-rank span store. Used only from its rank's thread; read after the
/// world joins.
struct SpanLog {
  int rank = 0;
  int epoch = -1;  ///< id stamped on spans recorded now
  std::vector<Span> spans;

  void record(Op op, Clock::time_point start, Clock::time_point end) {
    spans.push_back(Span{op_name(op), op, rank, epoch, since_origin(start),
                         since_origin(end)});
  }
};

/// Timing decorator: forwards every DistSpmmAlgebra virtual to the
/// wrapped algebra and records a span around each operation of Op. It
/// overrides gather_output to delegate, so its own gather_comm is never
/// reached. Results, charges and meters are the wrapped algebra's.
class TimedAlgebra final : public cagnet::DistSpmmAlgebra {
 public:
  TimedAlgebra(std::unique_ptr<cagnet::DistSpmmAlgebra> inner, SpanLog& log);

  const char* name() const override { return inner_->name(); }
  cagnet::Comm& world() override { return inner_->world(); }
  Index row_lo() const override { return inner_->row_lo(); }
  Index row_hi() const override { return inner_->row_hi(); }
  std::pair<Index, Index> feat_slice(Index f) const override {
    return inner_->feat_slice(f);
  }
  bool rows_whole() const override { return inner_->rows_whole(); }
  bool owns_loss_rows() const override { return inner_->owns_loss_rows(); }
  cagnet::Comm* sample_comm() override { return inner_->sample_comm(); }

  void spmm_at(const cagnet::Matrix& h, cagnet::Matrix& t,
               cagnet::EpochStats& stats) override;
  void spmm_a(const cagnet::Matrix& g, cagnet::Matrix& u,
              cagnet::EpochStats& stats) override;
  void times_weight(const cagnet::Matrix& t, const cagnet::Matrix& w,
                    cagnet::Matrix& z, cagnet::EpochStats& stats) override;
  void gather_feature_rows(const cagnet::Matrix& local, Index f,
                           cagnet::Matrix& full,
                           cagnet::EpochStats& stats) override;
  void reduce_gradients(cagnet::Matrix& y_partial, Index f_in, Index f_out,
                        cagnet::Matrix& y_full,
                        cagnet::EpochStats& stats) override;
  void begin_reduce_gradients(cagnet::Matrix& y_partial, Index f_in,
                              Index f_out, cagnet::Matrix& y_full,
                              cagnet::EpochStats& stats) override;
  void finish_gradients(cagnet::EpochStats& stats) override;
  cagnet::Matrix gather_output(const cagnet::Matrix& output_rows,
                               Index n) override {
    return inner_->gather_output(output_rows, n);
  }
  void begin_epoch(int epoch) override;
  void begin_backward(cagnet::EpochStats& stats) override;
  void end_backward(cagnet::EpochStats& stats) override;
  void drain() noexcept override { inner_->drain(); }

 protected:
  /// Unreachable: gather_output is overridden above.
  cagnet::Comm& gather_comm() override { return inner_->world(); }

 private:
  std::unique_ptr<cagnet::DistSpmmAlgebra> inner_;
  SpanLog& log_;
};

/// Build the shared engine over the workload's algebra; with `spans`
/// non-null the algebra is wrapped in TimedAlgebra. Collective.
std::unique_ptr<cagnet::DistEngine> make_engine(
    const Workload& w, const cagnet::DistProblem& problem,
    const cagnet::GnnConfig& config, cagnet::Comm& world, SpanLog* spans);

// ---- One world: build, warm-up, closed epoch loop ----

/// One epoch as one rank saw it.
struct EpochRecord {
  double start_s = 0;  ///< since clock_origin(), at the train_epoch call
  double end_s = 0;    ///< at its return
  cagnet::EpochStats stats;  ///< last_epoch_stats() (result, phases, meters)
};

struct RankLog {
  std::vector<EpochRecord> epochs;  ///< [0] is the warm-up epoch
  SpanLog spans;
  std::vector<cagnet::Matrix> weights;  ///< final replicated weights
};

struct WorldOptions {
  double seconds = 0;    ///< measure at least this long ...
  long min_epochs = 0;   ///< ... and at least this many epochs after warm-up
  bool traced = false;   ///< wrap the algebra in TimedAlgebra
  bool gather = false;   ///< assemble the output for the serial check
};

struct WorldRun {
  std::vector<RankLog> ranks;
  double build_s = 0;   ///< engine construction, slowest rank
  double warmup_s = 0;  ///< first epoch, slowest rank
  double window_s = 0;  ///< wall time of the measured loop (rank 0)
  cagnet::Matrix output;  ///< gathered output, original vertex order
  /// The weights `output` was computed with (the full-batch output comes
  /// from the last epoch's forward, before its SGD step).
  std::vector<cagnet::Matrix> output_weights;
};

/// Run one simulated world of the workload: build the engine, train one
/// warm-up epoch, then train in a closed loop (each epoch starts when the
/// previous one returns) until both limits in `options` are met. Throws
/// what the world throws.
WorldRun run_one_world(const Workload& w, const cagnet::DistProblem& problem,
                       const cagnet::GnnConfig& config,
                       const WorldOptions& options);

// ---- Analysis ----

/// Per measured epoch (warm-up excluded): the max over ranks of the
/// rank's train_epoch duration.
std::vector<double> epoch_seconds(const WorldRun& run);

/// Linear-interpolated quantile of `values` (q in [0, 1]).
double quantile(std::vector<double> values, double q);

/// Per-rank mean of the metered traffic over the first `max_epochs`
/// measured epochs (a fixed count, so that sampled runs, whose traffic
/// varies by epoch, repeat exactly for one seed), then the max over
/// ranks. Categories index CommCategory; kControl excluded from the
/// totals.
struct TrafficMeans {
  std::array<double, cagnet::CostMeter::kNumCategories> words{};
  std::array<double, cagnet::CostMeter::kNumCategories> msgs{};
  double total_words = 0;
  double total_msgs = 0;
  double modeled_comm_s = 0;
  double overlap_saved_modeled_s = 0;
  double modeled_epoch_s = 0;
  double spmm_flops = 0;
  double gemm_flops = 0;
};
TrafficMeans traffic_means(const WorldRun& run, std::size_t max_epochs);

/// The per-layer table of a traced world: for every measured epoch the
/// slowest rank's epoch span is split into the algebra spans it contains
/// and the engine's self time (the part no algebra span covers); the
/// in-program phases come from the same rank's EpochStats. Means over the
/// measured epochs, so the rows add up to `epoch_s`.
struct LayerTable {
  double epoch_s = 0;
  double self_s = 0;
  double skew_s = 0;
  std::array<double, kNumOps> op_s{};
  std::array<double, kNumOps> op_calls{};
  std::array<double, cagnet::Profiler::kNumPhases> phase_s{};
  long epochs = 0;
  /// Largest |epoch span - (self + algebra spans)| seen, and whether every
  /// algebra span lay inside its epoch span without overlapping another.
  double max_residual_s = 0;
  bool spans_nested = true;
};
LayerTable layer_table(const WorldRun& run);

}  // namespace perfbench
