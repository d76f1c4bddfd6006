// perfbench: runs one benchmark workload and prints one JSON line with
// every metric, the host stamp and the output checks. perfbench/run.py
// builds and drives it; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 splits the time
// between an untraced and a traced world and reports the per-layer
// metrics, writing Chrome trace-event JSON to --trace-out.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/comm/contract_check.hpp"
#include "src/gnn/serial_trainer.hpp"

extern char** environ;

namespace perfbench {
namespace {

using cagnet::CommCategory;
using cagnet::Matrix;
using cagnet::Phase;

/// final_loss is the loss of the epoch after this many SGD steps (warm-up
/// included), so it repeats exactly for one seed whatever the run length.
constexpr long kFinalLossEpoch = 100;
/// A p90 needs >= 100 samples so that >= 10 lie beyond it.
constexpr long kMinMeasuredEpochs = 100;
/// Each half of a traced run needs enough epochs for a stable p50.
constexpr long kMinTracedEpochs = 20;
/// |gather_output - SerialTrainer::forward| bound on every log-probability.
constexpr double kOutputTolerance = 1e-9;
/// Set-up repetitions per run; setup_s is the median of their totals.
constexpr int kSetups = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds >= 0;
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct SetupSample {
  double generate_s = 0;
  double prepare_s = 0;
  double build_s = 0;
  double warmup_s = 0;
  double total() const { return generate_s + prepare_s + build_s + warmup_s; }
};

/// Ordered metric list of one run: name, value, unit.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Bookkeeping of the output checks: every check counts as attempted.
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
};

bool weights_replicated(const WorldRun& run) {
  const auto& ref = run.ranks.front().weights;
  for (const RankLog& log : run.ranks) {
    if (log.weights.size() != ref.size()) return false;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const auto a = ref[i].flat();
      const auto b = log.weights[i].flat();
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

double max_output_error(const cagnet::Graph& graph,
                        const cagnet::GnnConfig& config, const WorldRun& run) {
  cagnet::SerialTrainer serial(graph, config);
  serial.weights() = run.output_weights;
  const Matrix& ref = serial.forward();
  if (ref.rows() != run.output.rows() || ref.cols() != run.output.cols()) {
    return INFINITY;
  }
  double err = 0;
  const auto a = ref.flat();
  const auto b = run.output.flat();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= err)) err = std::isnan(d) ? INFINITY : d;
  }
  return err;
}

bool losses_fall(const WorldRun& run) {
  const auto& epochs = run.ranks.front().epochs;
  for (const EpochRecord& e : epochs) {
    if (!std::isfinite(e.stats.result.loss)) return false;
  }
  return epochs.size() >= 2 &&
         epochs.back().stats.result.loss < epochs.front().stats.result.loss;
}

/// Traced and untraced worlds train from the same state, so every epoch
/// both ran must agree bitwise in loss and in every per-category meter.
bool trace_neutral(const WorldRun& plain, const WorldRun& traced) {
  for (std::size_t r = 0; r < plain.ranks.size(); ++r) {
    const auto& a = plain.ranks[r].epochs;
    const auto& b = traced.ranks[r].epochs;
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t k = 0; k < common; ++k) {
      const auto& sa = a[k].stats;
      const auto& sb = b[k].stats;
      if (std::memcmp(&sa.result.loss, &sb.result.loss, sizeof(double)) != 0) {
        return false;
      }
      for (std::size_t c = 0; c < cagnet::CostMeter::kNumCategories; ++c) {
        const auto cat = static_cast<CommCategory>(c);
        if (sa.comm.words(cat) != sb.comm.words(cat) ||
            sa.comm.latency_units(cat) != sb.comm.latency_units(cat)) {
          return false;
        }
      }
    }
  }
  return true;
}

void write_chrome_trace(const std::string& path, const Workload& w,
                        const WorldRun& run) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
      << w.name << "\"},\"traceEvents\":[";
  bool first = true;
  const auto event = [&](const char* name, const char* cat, int rank,
                         double start_s, double end_s, int epoch,
                         const char* parent) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%d,"
                  "\"parent\":\"%s\"}}",
                  first ? "" : ",\n", name, cat, rank, start_s * 1e6,
                  (end_s - start_s) * 1e6, epoch, parent);
    out << buf;
    first = false;
  };
  for (const RankLog& log : run.ranks) {
    char meta[160];
    std::snprintf(meta, sizeof(meta),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}}",
                  first ? "" : ",\n", log.spans.rank, log.spans.rank);
    out << meta;
    first = false;
    for (std::size_t k = 0; k < log.epochs.size(); ++k) {
      event("train_epoch", "engine", log.spans.rank, log.epochs[k].start_s,
            log.epochs[k].end_s, static_cast<int>(k), "");
    }
    for (const Span& s : log.spans.spans) {
      event(s.name, "algebra", s.rank, s.start_s, s.end_s, s.epoch,
            "train_epoch");
    }
  }
  out << "]}\n";
}

void print_result(const Args& args, const Workload& w, int cores,
                  const Checks& checks, const Metrics& metrics,
                  long measured_epochs) {
  std::string ambient;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CAGNET_", 7) != 0) continue;
    if (!ambient.empty()) ambient += ',';
    ambient += '"' + json_escape(*env) + '"';
  }
  std::string failures;
  for (const std::string& f : checks.failures) {
    if (!failures.empty()) failures += ',';
    failures += '"' + json_escape(f) + '"';
  }
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"stamp\":{\"nproc\":%d,\"ranks\":%d,\"threads_per_rank\":%d,"
      "\"oversubscription\":%.4f,\"build_type\":\"%s\",\"ndebug\":%d,"
      "\"compiler\":\"%s\",\"contract_checker\":%d,\"ambient_cagnet\":[%s],"
      "\"algebra\":\"%s\",\"n\":%lld,\"degree\":%lld,\"f\":%lld,"
      "\"hidden\":%lld,\"partitioner\":\"%s\",\"halo\":%d,\"sampled\":%d},"
      "\"measured_epochs\":%ld,\"correct\":%s,\"attempted\":%ld,"
      "\"failed\":%ld,\"failures\":[%s],\"metrics\":{",
      w.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, cores, w.ranks, w.threads,
      static_cast<double>(w.ranks * w.threads) / cores, PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
      1,
#else
      0,
#endif
      json_escape(compiler).c_str(), cagnet::contract::enabled() ? 1 : 0,
      ambient.c_str(), w.algebra.c_str(), static_cast<long long>(w.n),
      static_cast<long long>(w.degree), static_cast<long long>(w.f),
      static_cast<long long>(w.hidden), w.partitioner.c_str(), w.halo ? 1 : 0,
      w.sampled ? 1 : 0, measured_epochs,
      checks.failed == 0 ? "true" : "false", checks.attempted, checks.failed,
      failures.c_str());
  for (std::size_t i = 0; i < metrics.entries.size(); ++i) {
    const auto& m = metrics.entries[i];
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : -1.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void add_end_to_end(Metrics& m, const WorldRun& run,
                    const std::vector<SetupSample>& setups,
                    const Checks& checks) {
  const std::vector<double> epochs = epoch_seconds(run);
  const TrafficMeans traffic = traffic_means(run, kMinMeasuredEpochs);
  std::vector<double> totals;
  for (const SetupSample& s : setups) totals.push_back(s.total());
  const auto& rank0 = run.ranks.front().epochs;
  const std::size_t loss_epoch =
      std::min<std::size_t>(kFinalLossEpoch, rank0.size() - 1);
  m.add("epoch_s.p50", quantile(epochs, 0.5), "s");
  m.add("epoch_s.p90", quantile(epochs, 0.9), "s");
  m.add("epoch_s.samples", static_cast<double>(epochs.size()), "count");
  m.add("epochs_per_s", static_cast<double>(epochs.size()) / run.window_s,
        "1/s");
  m.add("setup_s", median(totals), "s");
  m.add("comm.words_per_epoch", traffic.total_words, "words");
  m.add("comm.msgs_per_epoch", traffic.total_msgs, "msgs");
  m.add("final_loss", rank0[loss_epoch].stats.result.loss, "nats");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("failed_share",
        static_cast<double>(checks.failed) /
            static_cast<double>(std::max<long>(checks.attempted, 1)),
        "ratio");
}

void add_per_layer(Metrics& m, const Workload& w, const WorldRun& plain,
                   const WorldRun& traced,
                   const std::vector<SetupSample>& setups,
                   const cagnet::DistProblem& problem) {
  const LayerTable t = layer_table(traced);
  m.add("core.engine.epoch_s", t.epoch_s, "s");
  m.add("core.engine.self_s", w.sampled ? 0.0 : t.self_s, "s");
  m.add("core.sampler.s", w.sampled ? t.self_s : 0.0, "s");
  m.add("core.engine.rank_skew_s", t.skew_s, "s");
  for (std::size_t op = 0; op < kNumOps; ++op) {
    const std::string name = op_name(static_cast<Op>(op));
    m.add("core.algebra." + name + "_s", t.op_s[op], "s");
    m.add("core.algebra." + name + ".calls", t.op_calls[op], "calls");
  }
  const auto phase = [&](Phase p) {
    return t.phase_s[static_cast<std::size_t>(p)];
  };
  m.add("sparse.spmm_s", phase(Phase::kSpmm), "s");
  m.add("comm.dcomm_s", phase(Phase::kDenseComm), "s");
  m.add("comm.scomm_s", phase(Phase::kSparseComm), "s");
  m.add("comm.trpose_s", phase(Phase::kTranspose), "s");
  m.add("core.hpack_s", phase(Phase::kHaloPack), "s");
  m.add("core.misc_s", phase(Phase::kMisc), "s");

  const TrafficMeans traffic = traffic_means(traced, kMinTracedEpochs);
  m.add("comm.words_per_epoch", traffic.total_words, "words");
  m.add("comm.msgs_per_epoch", traffic.total_msgs, "msgs");
  const std::pair<const char*, CommCategory> cats[] = {
      {"dense", CommCategory::kDense},
      {"sparse", CommCategory::kSparse},
      {"transpose", CommCategory::kTranspose},
      {"halo", CommCategory::kHalo}};
  for (const auto& [label, cat] : cats) {
    const auto c = static_cast<std::size_t>(cat);
    m.add(std::string("comm.words.") + label, traffic.words[c], "words");
    m.add(std::string("comm.msgs.") + label, traffic.msgs[c], "msgs");
  }
  m.add("comm.modeled_s", traffic.modeled_comm_s, "s");
  m.add("comm.overlap_saved_modeled_s", traffic.overlap_saved_modeled_s, "s");
  m.add("core.modeled_epoch_s", traffic.modeled_epoch_s, "s");
  m.add("sparse.spmm_flops", traffic.spmm_flops, "flops");
  m.add("dense.gemm_flops", traffic.gemm_flops, "flops");

  std::vector<double> gen, prep, build, warm;
  for (const SetupSample& s : setups) {
    gen.push_back(s.generate_s);
    prep.push_back(s.prepare_s);
    build.push_back(s.build_s);
    warm.push_back(s.warmup_s);
  }
  m.add("graph.generate_s", median(gen), "s");
  m.add("graph.prepare_s", median(prep), "s");
  m.add("core.build_s", median(build), "s");
  m.add("core.warmup_s", median(warm), "s");
  m.add("graph.max_remote_rows",
        static_cast<double>(problem.edgecut.max_remote_rows_per_part), "rows");

  const double base = quantile(epoch_seconds(plain), 0.5);
  const double with = quantile(epoch_seconds(traced), 0.5);
  m.add("trace.overhead", with / base - 1.0, "ratio");
  m.add("trace.untraced_epoch_s.p50", base, "s");
  m.add("trace.traced_epoch_s.p50", with, "s");
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const int cores = host_cores();
  if (w->ranks * w->threads > cores) {
    std::fprintf(stderr,
                 "perfbench: refusing %s: %d ranks x %d threads exceed %d "
                 "cores, so it would measure the scheduler\n",
                 w->name.c_str(), w->ranks, w->threads, cores);
    return 3;
  }

  Checks checks;
  std::vector<SetupSample> setups;
  cagnet::Graph graph;
  cagnet::DistProblem problem;
  const cagnet::GnnConfig config = make_config(*w, args.seed);
  WorldRun plain;
  WorldRun traced;
  bool ran = false;
  try {
    for (int rep = 0; rep < kSetups; ++rep) {
      const bool last = rep + 1 == kSetups;
      SetupSample s;
      // Free the previous repetition's inputs first, so peak RSS holds
      // one copy of them.
      problem = cagnet::DistProblem{};
      graph = cagnet::Graph{};
      Clock::time_point t = Clock::now();
      graph = make_graph(*w, args.seed);
      s.generate_s = seconds_since(t);
      t = Clock::now();
      problem = prepare_problem(*w, graph, args.seed);
      s.prepare_s = seconds_since(t);
      WorldOptions options;
      if (last) {
        options.seconds = args.trace ? args.seconds / 2 : args.seconds;
        options.min_epochs = args.trace ? kMinTracedEpochs : kMinMeasuredEpochs;
        options.gather = true;
      }
      WorldRun run = run_one_world(*w, problem, config, options);
      checks.attempted += static_cast<long>(run.ranks.front().epochs.size());
      s.build_s = run.build_s;
      s.warmup_s = run.warmup_s;
      setups.push_back(s);
      if (last) plain = std::move(run);
    }
    if (args.trace) {
      WorldOptions options;
      options.seconds = args.seconds / 2;
      options.min_epochs = kMinTracedEpochs;
      options.traced = true;
      traced = run_one_world(*w, problem, config, options);
      checks.attempted += static_cast<long>(traced.ranks.front().epochs.size());
    }
    ran = true;
  } catch (const std::exception& e) {
    checks.expect(false, std::string("epoch threw: ") + e.what());
  }

  Metrics metrics;
  long measured = 0;
  if (ran) {
    checks.expect(weights_replicated(plain),
                  "weights differ across ranks (untraced)");
    const double err = max_output_error(graph, config, plain);
    checks.expect(err <= kOutputTolerance,
                  "gather_output differs from SerialTrainer::forward by " +
                      std::to_string(err));
    checks.expect(losses_fall(plain),
                  "loss not finite or not below the first epoch's");
    measured = static_cast<long>(plain.ranks.front().epochs.size()) - 1;
    if (args.trace) {
      checks.expect(weights_replicated(traced),
                    "weights differ across ranks (traced)");
      checks.expect(trace_neutral(plain, traced),
                    "traced run differs from untraced in loss or meters");
      const LayerTable t = layer_table(traced);
      checks.expect(t.spans_nested && t.max_residual_s <= 1e-9,
                    "algebra spans plus self time do not add up to the "
                    "epoch span");
      add_per_layer(metrics, *w, plain, traced, setups, problem);
      if (!args.trace_out.empty()) {
        write_chrome_trace(args.trace_out, *w, traced);
      }
    } else {
      add_end_to_end(metrics, plain, setups, checks);
    }
  }
  print_result(args, *w, cores, checks, metrics, measured);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's dynamic one, which otherwise
  // moves large buffers onto arena heaps depending on the order the rank
  // threads free them: peak_rss_mb then jumps between runs of one input.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  return perfbench::run(argc, argv);
}
