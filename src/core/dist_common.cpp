#include "src/core/dist_common.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "src/dense/gemm.hpp"
#include "src/dense/ops.hpp"
#include "src/sparse/spmm_kernel.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {

DistProblem DistProblem::prepare(const Graph& graph) {
  DistProblem p;
  p.graph = &graph;
  p.at = graph.adjacency.transposed();
  for (Index label : graph.labels) {
    if (label >= 0) ++p.labeled_count;
  }
  return p;
}

DistProblem DistProblem::prepare(const Graph& graph, int parts,
                                 const std::string& partitioner,
                                 std::uint64_t seed) {
  const PartitionerSpec* spec = find_partitioner(partitioner);
  CAGNET_CHECK(spec != nullptr, "unknown partitioner: " + partitioner);
  Partition part = spec->make(graph.adjacency, parts, seed);

  DistProblem p;
  p.partitioner = partitioner;
  if (partitioner == "block") {
    // Contiguous already: no relabeling, identical training to the
    // identity form (part_offsets reproduce block_range exactly).
    p.graph = &graph;
    p.partition = std::move(part);
  } else {
    const std::vector<Index> perm = partition_permutation(part);
    const Index n = graph.num_vertices();
    auto owned = std::make_shared<Graph>();
    owned->name = graph.name + "+" + partitioner;
    owned->num_classes = graph.num_classes;
    owned->adjacency = graph.adjacency.permuted(
        std::span<const Index>(perm));
    owned->features = Matrix(graph.features.rows(), graph.features.cols());
    owned->labels.resize(graph.labels.size());
    Partition sorted;
    sorted.parts = part.parts;
    sorted.owner.resize(static_cast<std::size_t>(n));
    for (Index r = 0; r < n; ++r) {
      const Index v = perm[static_cast<std::size_t>(r)];
      std::copy(graph.features.row(v).begin(), graph.features.row(v).end(),
                owned->features.row(r).begin());
      owned->labels[static_cast<std::size_t>(r)] =
          graph.labels[static_cast<std::size_t>(v)];
      sorted.owner[static_cast<std::size_t>(r)] =
          part.owner[static_cast<std::size_t>(v)];
    }
    p.partition = std::move(sorted);
    p.perm = perm;
    p.owned_graph_ = owned;
    p.graph = p.owned_graph_.get();
  }
  p.part_offsets = partition_offsets(p.partition);
  p.edgecut = edge_cut(p.graph->adjacency, p.partition);
  p.at = p.graph->adjacency.transposed();
  for (Index label : p.graph->labels) {
    if (label >= 0) ++p.labeled_count;
  }
  return p;
}

EpochStats EpochStats::reduce_max(const EpochStats& mine, Comm& comm) {
  // Serialize the numeric payload into one vector, allreduce-max it, and
  // unpack. Loss/accuracy are identical on all ranks already (reduced in
  // the trainer), so max is a no-op for them.
  constexpr std::size_t kPhases = Profiler::kNumPhases;
  constexpr std::size_t kCats = CostMeter::kNumCategories;
  std::vector<double> payload;
  payload.reserve(2 + kPhases + 2 * kCats + 3 + 1 + 4);
  payload.push_back(mine.result.loss);
  payload.push_back(mine.result.accuracy);
  for (std::size_t i = 0; i < kPhases; ++i) {
    payload.push_back(mine.profiler.seconds(static_cast<Phase>(i)));
  }
  for (std::size_t i = 0; i < kCats; ++i) {
    const auto cat = static_cast<CommCategory>(i);
    payload.push_back(mine.comm.latency_units(cat));
    payload.push_back(mine.comm.words(cat));
  }
  payload.push_back(mine.comm.overlap_serialized_seconds());
  payload.push_back(mine.comm.overlap_overlapped_seconds());
  payload.push_back(mine.comm.overlap_regions());
  payload.push_back(mine.comm.stale_saved_words());
  payload.push_back(mine.work.spmm_seconds());
  payload.push_back(mine.work.gemm_seconds());
  payload.push_back(mine.work.spmm_flops());
  payload.push_back(mine.work.gemm_flops());

  comm.allreduce_max(std::span<double>(payload), CommCategory::kControl);

  EpochStats out;
  std::size_t k = 0;
  out.result.loss = payload[k++];
  out.result.accuracy = payload[k++];
  for (std::size_t i = 0; i < kPhases; ++i) {
    out.profiler.add(static_cast<Phase>(i), payload[k++]);
  }
  for (std::size_t i = 0; i < kCats; ++i) {
    const auto cat = static_cast<CommCategory>(i);
    const double lat = payload[k++];
    const double words = payload[k++];
    out.comm.add(cat, lat, words);
  }
  out.comm.restore_overlap_totals(payload[k], payload[k + 1],
                                  payload[k + 2]);
  k += 3;
  out.comm.restore_stale_saved_words(payload[k]);
  k += 1;
  out.work = WorkMeter::from_values(payload[k], payload[k + 1],
                                    payload[k + 2], payload[k + 3]);
  return out;
}

namespace dist {

namespace {
/// Not atomic on purpose: flip only between run_world invocations.
bool g_epoch_cache_enabled = true;

bool overlap_default_from_env() {
  const char* v = std::getenv("CAGNET_OVERLAP");
  if (v == nullptr) return true;
  const std::string s(v);
  return !(s == "0" || s == "off" || s == "OFF" || s == "false" ||
           s == "FALSE");
}

/// Same discipline as the epoch cache: flip only between run_world
/// invocations. Preset once from CAGNET_OVERLAP.
bool g_overlap_enabled = overlap_default_from_env();

bool halo_default_from_env() {
  const char* v = std::getenv("CAGNET_HALO");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "1" || s == "on" || s == "ON" || s == "true" || s == "TRUE";
}

/// Same discipline again: flip only between run_world invocations.
/// Preset once from CAGNET_HALO (default off — Algorithm 1's broadcasts
/// remain the reference semantics; see DESIGN.md).
bool g_halo_enabled = halo_default_from_env();

bool sample_default_from_env() {
  const char* v = std::getenv("CAGNET_SAMPLE");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "1" || s == "on" || s == "ON" || s == "true" || s == "TRUE";
}

std::vector<Index> sample_fanouts_from_env() {
  const char* v = std::getenv("CAGNET_SAMPLE_FANOUT");
  if (v == nullptr || v[0] == '\0') return {15, 10, 5};
  std::vector<Index> fanouts;
  std::string s(v);
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(start, comma - start);
    if (tok == "inf" || tok == "all") {
      fanouts.push_back(std::numeric_limits<Index>::max());
    } else {
      CAGNET_CHECK(!tok.empty() &&
                       tok.find_first_not_of("0123456789") ==
                           std::string::npos,
                   "CAGNET_SAMPLE_FANOUT: \"" + tok +
                       "\" is not a positive integer, \"inf\", or \"all\"");
      const long value = std::atol(tok.c_str());
      CAGNET_CHECK(value > 0, "CAGNET_SAMPLE_FANOUT: fanouts must be "
                              "positive");
      fanouts.push_back(static_cast<Index>(value));
    }
    start = comma + 1;
  }
  return fanouts;
}

Index sample_batch_from_env() {
  const char* v = std::getenv("CAGNET_SAMPLE_BATCH");
  if (v == nullptr || v[0] == '\0') return 64;
  const std::string s(v);
  CAGNET_CHECK(s.find_first_not_of("0123456789") == std::string::npos,
               "CAGNET_SAMPLE_BATCH: \"" + s +
                   "\" is not a positive integer");
  const long value = std::atol(s.c_str());
  CAGNET_CHECK(value > 0, "CAGNET_SAMPLE_BATCH must be positive");
  return static_cast<Index>(value);
}

/// Same discipline again: flip only between run_world invocations.
/// Preset once from CAGNET_SAMPLE / CAGNET_SAMPLE_FANOUT /
/// CAGNET_SAMPLE_BATCH.
bool g_sample_enabled = sample_default_from_env();
std::vector<Index> g_sample_fanouts = sample_fanouts_from_env();
Index g_sample_batch = sample_batch_from_env();

int stale_k_from_env() {
  const char* v = std::getenv("CAGNET_STALE");
  if (v == nullptr || v[0] == '\0') return 0;
  const std::string s(v);
  if (s == "off" || s == "OFF" || s == "0") return 0;
  if (s == "adaptive" || s == "ADAPTIVE") return kStaleAdaptive;
  CAGNET_CHECK(s.find_first_not_of("0123456789") == std::string::npos,
               "CAGNET_STALE: \"" + s +
                   "\" is not \"off\", \"adaptive\", or a positive integer");
  const long value = std::atol(s.c_str());
  CAGNET_CHECK(value > 0, "CAGNET_STALE refresh interval must be positive");
  return static_cast<int>(value);
}

int stale_bound_from_env(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  const std::string s(v);
  CAGNET_CHECK(s.find_first_not_of("0123456789") == std::string::npos,
               std::string(name) + ": \"" + s +
                   "\" is not a positive integer");
  const long value = std::atol(s.c_str());
  CAGNET_CHECK(value > 0,
               std::string(name) + " refresh interval must be positive");
  return static_cast<int>(value);
}

bool preagg_default_from_env() {
  const char* v = std::getenv("CAGNET_PREAGG");
  if (v == nullptr) return false;
  const std::string s(v);
  return s == "1" || s == "on" || s == "ON" || s == "true" || s == "TRUE";
}

/// Same discipline again: flip only between run_world invocations.
/// Preset once from CAGNET_STALE / CAGNET_STALE_MIN / CAGNET_STALE_MAX /
/// CAGNET_PREAGG (all default off/exact; see DESIGN.md "Adaptive
/// communication rates contract").
int g_stale_k = stale_k_from_env();
int g_stale_min = stale_bound_from_env("CAGNET_STALE_MIN", 1);
int g_stale_max = stale_bound_from_env("CAGNET_STALE_MAX", 8);
bool g_preagg_enabled = preagg_default_from_env();
}  // namespace

bool epoch_cache_enabled() { return g_epoch_cache_enabled; }
void set_epoch_cache_enabled(bool on) { g_epoch_cache_enabled = on; }

bool overlap_enabled() { return g_overlap_enabled; }
void set_overlap_enabled(bool on) { g_overlap_enabled = on; }

bool halo_enabled() { return g_halo_enabled; }
void set_halo_enabled(bool on) { g_halo_enabled = on; }

bool sample_enabled() { return g_sample_enabled; }
void set_sample_enabled(bool on) { g_sample_enabled = on; }

const std::vector<Index>& sample_fanouts() { return g_sample_fanouts; }
void set_sample_fanouts(std::vector<Index> fanouts) {
  CAGNET_CHECK(!fanouts.empty(), "set_sample_fanouts: empty fanout list");
  for (Index fanout : fanouts) {
    CAGNET_CHECK(fanout > 0, "set_sample_fanouts: fanouts must be positive");
  }
  g_sample_fanouts = std::move(fanouts);
}

Index sample_batch_size() { return g_sample_batch; }
void set_sample_batch_size(Index batch) {
  CAGNET_CHECK(batch > 0, "set_sample_batch_size: batch must be positive");
  g_sample_batch = batch;
}

int stale_k() { return g_stale_k; }
void set_stale_k(int k) {
  CAGNET_CHECK(k >= 0 || k == kStaleAdaptive,
               "set_stale_k: interval must be >= 0 or kStaleAdaptive");
  g_stale_k = k;
}

int stale_min_k() { return g_stale_min; }
int stale_max_k() { return g_stale_max; }
void set_stale_bounds(int min_k, int max_k) {
  CAGNET_CHECK(min_k >= 1, "set_stale_bounds: floor must be >= 1");
  CAGNET_CHECK(max_k >= min_k,
               "set_stale_bounds: ceiling must be >= floor");
  g_stale_min = min_k;
  g_stale_max = max_k;
}

bool preagg_enabled() { return g_preagg_enabled; }
void set_preagg_enabled(bool on) { g_preagg_enabled = on; }

CompressMode row_codec(int p, bool exact) {
  return p > 1 && !exact ? row_compress_mode() : CompressMode::kOff;
}

void drain_comm(const Comm& comm) noexcept {
  if (!comm.valid()) return;
  try {
    comm.quiesce();
  } catch (...) {
    // Aborted world: peers were released by the abort flag.
  }
}

bool InputAggCache::take_armed(const Matrix& h) {
  if (!armed_) return false;
  armed_ = false;
  if (ready_) {
    CAGNET_CHECK(h.data() == h_data_ && h.rows() == h_rows_ &&
                     h.cols() == h_cols_,
                 "input aggregation cache: the armed spmm_at does not "
                 "multiply the H^0 block the cache was filled from");
  } else {
    h_data_ = h.data();
    h_rows_ = h.rows();
    h_cols_ = h.cols();
  }
  return true;
}

// [[hot-path]]
void InputAggCache::serve(Matrix& t, Comm* release,
                          Profiler& profiler) const {
  if (release != nullptr && overlap_enabled()) {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    release->quiesce();
  }
  ScopedPhase scope(profiler, Phase::kMisc);
  const Index rows = t_.rows();
  const Index cols = t_.cols();
  t.resize(rows, cols);
  const Real* src = t_.data();
  Real* dst = t.data();
  // Row blocks copy disjoint rows: bitwise the fill for any chunk count.
  parallel_for(rows,
               plan_chunks(static_cast<double>(t_.size()), kMinElemsPerChunk,
                           rows),
               [&](Index r0, Index r1) {
                 std::copy(src + r0 * cols, src + r1 * cols, dst + r0 * cols);
               });
}

void InputAggCache::fill(const Matrix& t) {
  t_.resize(t.rows(), t.cols());
  std::copy(t.flat().begin(), t.flat().end(), t_.data());
  ready_ = true;
}

EpochResult reduce_loss_accuracy(const Matrix& local_log_probs, Index row_lo,
                                 const std::vector<Index>& labels,
                                 Index labeled_count, Comm& comm,
                                 std::array<double, 4>* scratch) {
  double loss_sum = 0;
  double hits = 0;
  for (Index r = 0; r < local_log_probs.rows(); ++r) {
    const Index label = labels[static_cast<std::size_t>(row_lo + r)];
    if (label < 0) continue;
    loss_sum -= local_log_probs(r, label);
    const auto row = local_log_probs.row(r);
    const Index pred = static_cast<Index>(
        std::max_element(row.begin(), row.end()) - row.begin());
    if (pred == label) hits += 1;
  }
  std::array<double, 2> acc = {loss_sum, hits};
  if (scratch != nullptr) {
    // Nonblocking (overlap-mode) form: no wait for every peer to finish,
    // which the blocking form ends with. The caller owns the scratch
    // lifetime and quiesces `comm` before reusing it.
    (*scratch)[0] = acc[0];
    (*scratch)[1] = acc[1];
    comm.iallreduce_sum(std::span<const double>(scratch->data(), 2),
                        std::span<double>(scratch->data() + 2, 2),
                        CommCategory::kControl)
        .wait();
    acc = {(*scratch)[2], (*scratch)[3]};
  } else {
    comm.allreduce_sum(std::span<double>(acc), CommCategory::kControl);
  }
  EpochResult result;
  result.loss = labeled_count > 0 ? acc[0] / static_cast<double>(labeled_count)
                                  : 0.0;
  result.accuracy =
      labeled_count > 0 ? acc[1] / static_cast<double>(labeled_count) : 0.0;
  return result;
}

Matrix local_nll_gradient(const Matrix& local_log_probs, Index row_lo,
                          const std::vector<Index>& labels,
                          Index labeled_count) {
  Matrix grad(local_log_probs.rows(), local_log_probs.cols());
  if (labeled_count == 0) return grad;
  const Real scale = Real{-1} / static_cast<Real>(labeled_count);
  for (Index r = 0; r < local_log_probs.rows(); ++r) {
    const Index label = labels[static_cast<std::size_t>(row_lo + r)];
    if (label >= 0) grad(r, label) = scale;
  }
  return grad;
}

double block_degree(const Csr& block) {
  return block.rows() > 0
             ? static_cast<double>(block.nnz()) /
                   static_cast<double>(block.rows())
             : 0.0;
}

const Matrix* broadcast_dense_stage(const Matrix& mine, Matrix& recv,
                                    Index rows, Index cols, int root,
                                    Comm& comm, CommCategory cat) {
  if (comm.rank() == root) {
    CAGNET_CHECK(mine.rows() == rows && mine.cols() == cols,
                 "broadcast_dense_stage: root block shape mismatch");
    comm.broadcast_from(std::span<const Real>(mine.flat()),
                        std::span<Real>{}, root, cat);
    return &mine;
  }
  recv.resize(rows, cols);
  comm.broadcast_from(std::span<const Real>{}, recv.flat(), root, cat);
  return &recv;
}

void allreduce_weight_gradient(Matrix& y_partial, Index f_in, Index f_out,
                               Comm& comm, Profiler& profiler,
                               PendingGradReduce& pending, Matrix& y_full) {
  CAGNET_CHECK(y_partial.rows() == f_in && y_partial.cols() == f_out,
               "reduce_gradients: unexpected partial shape");
  std::swap(y_partial, y_full);
  const CompressMode gmode = gradient_compress_mode();
  if (gmode != CompressMode::kOff) {
    // Layer order is the call order, so ccount indexes this layer's
    // residual slot; finish_gradients (called unconditionally per epoch)
    // resets it. The op times itself (encode/decode under kCompressPack,
    // wire under kDenseComm) — no outer ScopedPhase.
    comm.allreduce_sum_compressed(y_full.flat(), gmode,
                                  pending.compress_slot(pending.ccount++),
                                  &profiler);
    return;
  }
  ScopedPhase scope(profiler, Phase::kDenseComm);
  comm.allreduce_sum(y_full.flat(), CommCategory::kDense);
}

void PendingDenseStage::post(const Matrix& mine, Matrix& recv, Index rows,
                             Index cols, int root, Comm& comm,
                             CommCategory cat) {
  if (comm.rank() == root) {
    CAGNET_CHECK(mine.rows() == rows && mine.cols() == cols,
                 "PendingDenseStage: root block shape mismatch");
    op_ = comm.ibroadcast_from(std::span<const Real>(mine.flat()),
                               std::span<Real>{}, root, cat);
    result_ = &mine;
    return;
  }
  recv.resize(rows, cols);
  op_ = comm.ibroadcast_from(std::span<const Real>{}, recv.flat(), root, cat);
  result_ = &recv;
}

const Matrix* PendingDenseStage::wait() {
  CAGNET_CHECK(result_ != nullptr, "PendingDenseStage: wait before post");
  op_.wait();
  const Matrix* result = result_;
  result_ = nullptr;
  return result;
}

void PendingCsrBcast::post_header(const Csr* mine, Csr& recv,
                                  std::array<Index, 3>& header, int root,
                                  Comm& comm, CommCategory cat) {
  CAGNET_CHECK(stage_ == 0, "PendingCsrBcast: previous stage not waited");
  const bool is_root = comm.rank() == root;
  CAGNET_CHECK(is_root == (mine != nullptr),
               "PendingCsrBcast: exactly the root must supply a block");
  mine_ = mine;
  recv_ = &recv;
  comm_ = &comm;
  cat_ = cat;
  root_ = root;
  header_ = &header;
  if (is_root) {
    header = {mine->rows(), mine->cols(), mine->nnz()};
    header_op_ = comm.ibroadcast_from(std::span<const Index>(header),
                                      std::span<Index>{}, root, cat);
  } else {
    header_op_ = comm.ibroadcast_from(std::span<const Index>{},
                                      std::span<Index>(header), root, cat);
  }
  stage_ = 1;
}

void PendingCsrBcast::post_parts() {
  CAGNET_CHECK(stage_ == 1, "PendingCsrBcast: post_parts without header");
  header_op_.wait();
  if (mine_ != nullptr) {
    // The root publishes straight from its block's arrays — no staging
    // copy, and the caller keeps using `mine` (its cache slot is left
    // untouched).
    parts_[0] = comm_->ibroadcast_from(mine_->row_ptr(), std::span<Index>{},
                                       root_, cat_);
    parts_[1] = comm_->ibroadcast_from(mine_->col_idx(), std::span<Index>{},
                                       root_, cat_);
    parts_[2] = comm_->ibroadcast_from(std::span<const Real>(mine_->values()),
                                       std::span<Real>{}, root_, cat_);
  } else {
    recv_->resize_parts((*header_)[0], (*header_)[1], (*header_)[2]);
    parts_[0] = comm_->ibroadcast_from(std::span<const Index>{},
                                       recv_->row_ptr_mut(), root_, cat_);
    parts_[1] = comm_->ibroadcast_from(std::span<const Index>{},
                                       recv_->col_idx_mut(), root_, cat_);
    parts_[2] = comm_->ibroadcast_from(std::span<const Real>{},
                                       recv_->values(), root_, cat_);
  }
  stage_ = 2;
}

const Csr* PendingCsrBcast::wait() {
  CAGNET_CHECK(stage_ == 2, "PendingCsrBcast: wait without post_parts");
  for (PendingOp& op : parts_) op.wait();
  stage_ = 0;
  return mine_ != nullptr ? mine_ : recv_;
}

void overlapped_dense_stages(
    int stages,
    const std::function<void(int, PendingDenseStage&, Matrix&)>& post_stage,
    const std::function<void(int, const Matrix*)>& compute_stage,
    Matrix& recv0, Matrix& recv1, CostMeter& meter, const WorkMeter& work,
    const MachineModel& machine, Profiler& profiler) {
  PendingDenseStage dn[2];
  Matrix* recv[2] = {&recv0, &recv1};
  {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    post_stage(0, dn[0], *recv[0]);
  }
  OverlapScope region(meter, work, machine);
  for (int s = 0; s < stages; ++s) {
    const int cur = s & 1;
    const int nxt = 1 - cur;
    const Matrix* block = nullptr;
    {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      block = dn[cur].wait();
    }
    region.close();  // stage s's arrival was in flight behind compute s-1
    if (s + 1 < stages) {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      post_stage(s + 1, dn[nxt], *recv[nxt]);
    }
    region.open();
    compute_stage(s, block);
  }
  region.close();
}

void summa_stage_loop(const Csr& my_sparse, SparseStageCache& cache,
                      Comm& sparse_comm, const Matrix& my_dense,
                      Comm& dense_comm,
                      const std::function<Index(int)>& stage_rows,
                      int stages, Matrix& acc, const MachineModel& machine,
                      EpochStats& stats, DistWorkspace& ws) {
  const Index w = my_dense.cols();
  CostMeter& meter = sparse_comm.meter();
  const bool use_cache = cache.ready && epoch_cache_enabled();
  if (use_cache) {
    // The adjacency blocks are epoch-invariant: replay the recorded
    // epoch-1 sparse charges instead of re-broadcasting identical bytes.
    // Replayed (bulk) charges stay outside the overlap regions — only
    // traffic that was actually in flight behind a compute is attributed.
    ScopedPhase scope(stats.profiler, Phase::kSparseComm);
    meter.merge_sum(cache.charges);
  } else {
    cache.charges.clear();
    cache.blocks.resize(static_cast<std::size_t>(stages));
    cache.own_stage.assign(static_cast<std::size_t>(stages), 0);
    cache.headers.assign(static_cast<std::size_t>(stages), {0, 0, 0});
  }

  const auto spmm_stage = [&](int s, const Csr* a, const Matrix* d) {
    ScopedPhase scope(stats.profiler, Phase::kSpmm);
    a->spmm(*d, acc, /*accumulate=*/s > 0);
    stats.work.add_spmm(machine, static_cast<double>(a->nnz()),
                        static_cast<double>(w), block_degree(*a));
  };
  const auto cached_block = [&](int s) {
    return cache.own_stage[static_cast<std::size_t>(s)]
               ? &my_sparse
               : &cache.blocks[static_cast<std::size_t>(s)];
  };

  if (!overlap_enabled() || stages == 1) {
    // Blocking (synchronous) loop: stage s's blocks arrive, then stage s
    // computes — each stage's communication is fully latency-exposed.
    for (int s = 0; s < stages; ++s) {
      const Csr* a = nullptr;
      if (use_cache) {
        a = cached_block(s);
      } else {
        ScopedPhase scope(stats.profiler, Phase::kSparseComm);
        CostMeter before = meter;
        a = broadcast_csr(sparse_comm.rank() == s ? &my_sparse : nullptr,
                          cache.blocks[static_cast<std::size_t>(s)], s,
                          sparse_comm, CommCategory::kSparse);
        CostMeter delta = meter;
        delta.subtract(before);
        cache.charges.merge_sum(delta);
        cache.own_stage[static_cast<std::size_t>(s)] = a == &my_sparse;
      }
      const Matrix* d = nullptr;
      {
        ScopedPhase scope(stats.profiler, Phase::kDenseComm);
        d = broadcast_dense_stage(my_dense, ws.stage_recv, stage_rows(s), w,
                                  s, dense_comm, CommCategory::kDense);
      }
      spmm_stage(s, a, d);
    }
    cache.ready = epoch_cache_enabled();
    return;
  }

  // Overlapped loop: stage s+1's sparse payloads and dense panel are in
  // flight while stage s's SpMM runs; the CSR header travels one stage
  // further ahead so the payloads can be sized and posted on time. The
  // charge order per category is identical to the blocking loop (header s,
  // payloads s, header s+1, ...), so metered totals are bitwise equal.
  const bool live_sparse = !use_cache;
  const auto sparse_section = [&](auto&& fn) {
    ScopedPhase scope(stats.profiler, Phase::kSparseComm);
    CostMeter before = meter;
    fn();
    CostMeter delta = meter;
    delta.subtract(before);
    cache.charges.merge_sum(delta);
  };
  const auto root_block = [&](int s) {
    return sparse_comm.rank() == s ? &my_sparse : nullptr;
  };

  PendingCsrBcast sp[2];
  PendingDenseStage dn[2];
  Matrix* recv[2] = {&ws.stage_recv, &ws.stage_recv2};
  if (live_sparse) {
    sparse_section([&] {
      sp[0].post_header(root_block(0), cache.blocks[0], cache.headers[0], 0,
                        sparse_comm, CommCategory::kSparse);
      sp[1].post_header(root_block(1), cache.blocks[1], cache.headers[1], 1,
                        sparse_comm, CommCategory::kSparse);
      sp[0].post_parts();
    });
  }
  {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    dn[0].post(my_dense, *recv[0], stage_rows(0), w, 0, dense_comm,
               CommCategory::kDense);
  }

  OverlapScope region(meter, stats.work, machine);
  for (int s = 0; s < stages; ++s) {
    const int cur = s & 1;
    const int nxt = 1 - cur;
    const Csr* a = nullptr;
    if (use_cache) {
      a = cached_block(s);
    } else {
      sparse_section([&] {
        a = sp[cur].wait();
        cache.own_stage[static_cast<std::size_t>(s)] = a == &my_sparse;
      });
    }
    const Matrix* d = nullptr;
    {
      ScopedPhase scope(stats.profiler, Phase::kDenseComm);
      d = dn[cur].wait();
    }
    region.close();  // stage s's arrivals were in flight behind compute s-1
    if (s + 1 < stages) {
      if (live_sparse) {
        sparse_section([&] {
          if (s + 2 < stages) {
            sp[cur].post_header(root_block(s + 2),
                                cache.blocks[static_cast<std::size_t>(s + 2)],
                                cache.headers[static_cast<std::size_t>(s + 2)],
                                s + 2, sparse_comm, CommCategory::kSparse);
          }
          sp[nxt].post_parts();
        });
      }
      ScopedPhase scope(stats.profiler, Phase::kDenseComm);
      dn[nxt].post(my_dense, *recv[nxt], stage_rows(s + 1), w, s + 1,
                   dense_comm, CommCategory::kDense);
    }
    region.open();
    spmm_stage(s, a, d);
  }
  region.close();
  cache.ready = epoch_cache_enabled();
}

const Csr* broadcast_csr(const Csr* mine, Csr& recv, int root, Comm& comm,
                         CommCategory cat) {
  const bool is_root = comm.rank() == root;
  std::array<Index, 3> header = {0, 0, 0};
  if (is_root) {
    CAGNET_CHECK(mine != nullptr, "broadcast_csr: root must supply a block");
    header = {mine->rows(), mine->cols(), mine->nnz()};
  }
  comm.broadcast(std::span<Index>(header), root, cat);
  if (is_root) {
    // The root publishes straight from its block's arrays — no staging
    // copy, no deserialization, and the caller keeps using `mine`.
    comm.broadcast_from(mine->row_ptr(), std::span<Index>{}, root, cat);
    comm.broadcast_from(mine->col_idx(), std::span<Index>{}, root, cat);
    comm.broadcast_from(std::span<const Real>(mine->values()),
                        std::span<Real>{}, root, cat);
    return mine;
  }
  recv.resize_parts(header[0], header[1], header[2]);
  comm.broadcast_from(std::span<const Index>{}, recv.row_ptr_mut(), root,
                      cat);
  comm.broadcast_from(std::span<const Index>{}, recv.col_idx_mut(), root,
                      cat);
  comm.broadcast_from(std::span<const Real>{}, recv.values(), root, cat);
  return &recv;
}

Csr exchange_csr(const Csr& mine, int peer, Comm& comm, CommCategory cat) {
  const std::array<Index, 3> my_header = {mine.rows(), mine.cols(),
                                          mine.nnz()};
  const auto header = comm.exchange(std::span<const Index>(my_header), peer, cat);
  auto row_ptr = comm.exchange(mine.row_ptr(), peer, cat);
  auto col_idx = comm.exchange(mine.col_idx(), peer, cat);
  auto vals = comm.exchange(std::span<const Real>(mine.values()), peer, cat);
  return Csr::from_parts(header[0], header[1], std::move(row_ptr),
                         std::move(col_idx), std::move(vals));
}

void partial_summa_times_weight(const Matrix& t, const Matrix& w, int parts,
                                int my_col, Comm& row_comm,
                                const MachineModel& machine,
                                EpochStats& stats, DistWorkspace& ws,
                                Matrix& z) {
  const Index local_rows = t.rows();
  const Index f_in = w.rows();
  const Index f_out = w.cols();
  const auto [fo0, fo1] = block_range(f_out, parts, my_col);
  z.resize(local_rows, fo1 - fo0);

  // Stage 0 writes Z (GEMM's chunked beta = 0 pass zero-fills even an
  // empty stage) and later stages accumulate: bitwise a zero fill plus
  // beta = 1 throughout, without the serial fill.
  const auto gemm_stage = [&](int m, const Matrix* t_m) {
    ScopedPhase scope(stats.profiler, Phase::kMisc);
    const auto [fm0, fm1] = block_range(f_in, parts, m);
    w.block_into(fm0, fo0, fm1 - fm0, fo1 - fo0, ws.w_block);
    gemm(Trans::kNo, Trans::kNo, Real{1}, *t_m, ws.w_block,
         m == 0 ? Real{0} : Real{1}, z);
    stats.work.add_gemm(machine, 2.0 * static_cast<double>(local_rows) *
                                     static_cast<double>(fm1 - fm0) *
                                     static_cast<double>(fo1 - fo0));
  };
  const auto stage_cols = [&](int m) {
    const auto [fm0, fm1] = block_range(f_in, parts, m);
    return fm1 - fm0;
  };

  if (!overlap_enabled() || parts == 1) {
    for (int m = 0; m < parts; ++m) {
      const Matrix* t_m = nullptr;
      {
        ScopedPhase scope(stats.profiler, Phase::kDenseComm);
        t_m = broadcast_dense_stage(t, ws.stage_recv, local_rows,
                                    stage_cols(m), m, row_comm,
                                    CommCategory::kDense);
      }
      gemm_stage(m, t_m);
    }
    return;
  }

  // Overlapped: the stage-m+1 T panel is in flight while the stage-m GEMM
  // accumulates. Source-release contract: peers may still be copying this
  // rank's T panels after we return; the caller quiesces row_comm before
  // T is next rewritten (the 2D/3D algebras do it at their stage-loop
  // entry, where peers have long drained — off the critical path).
  overlapped_dense_stages(
      parts,
      [&](int m, PendingDenseStage& dn, Matrix& recv) {
        dn.post(t, recv, local_rows, stage_cols(m), m, row_comm,
                CommCategory::kDense);
      },
      gemm_stage, ws.stage_recv, ws.stage_recv2, row_comm.meter(),
      stats.work, machine, stats.profiler);
}

void allgather_feature_rows(const Matrix& local, Index full_cols, int parts,
                            Comm& row_comm, Profiler& profiler,
                            DistWorkspace& ws, Matrix& full) {
  {
    // In overlap mode the nonblocking form (posted and waited in place)
    // replaces the blocking one: same movement and identical charge,
    // without the blocking form's closing wait for every peer to finish.
    ScopedPhase scope(profiler, Phase::kDenseComm);
    if (overlap_enabled()) {
      row_comm
          .iallgatherv_into(std::span<const Real>(local.flat()), ws.gathered,
                            CommCategory::kDense)
          .wait();
    } else {
      row_comm.allgatherv_into(std::span<const Real>(local.flat()),
                               ws.gathered, CommCategory::kDense);
    }
  }
  full.resize(local.rows(), full_cols);
  for (int jj = 0; jj < parts; ++jj) {
    const auto [c0, c1] = block_range(full_cols, parts, jj);
    const auto chunk = ws.gathered.chunk(jj);
    CAGNET_CHECK(chunk.size() == static_cast<std::size_t>(local.rows() *
                                                          (c1 - c0)),
                 "allgather_feature_rows: chunk size mismatch");
    for (Index r = 0; r < local.rows(); ++r) {
      std::copy(chunk.begin() + r * (c1 - c0),
                chunk.begin() + (r + 1) * (c1 - c0),
                full.data() + r * full_cols + c0);
    }
  }
}

void assemble_weight_gradient(Matrix& y_slice, Index f_in, Index f_out,
                              int parts, Comm& reduce_comm, Comm& row_comm,
                              Profiler& profiler, DistWorkspace& ws,
                              PendingGradReduce& pending, Matrix& y) {
  // Always the blocking form: in overlap mode the engine routes gradient
  // assembly through begin_/finish_assemble_weight_gradient instead,
  // whose per-layer staging gives every nonblocking source a stable
  // lifetime (a workspace-backed nonblocking variant here would race a
  // lagging row peer against the next call's buffer resize).
  const CompressMode gmode = gradient_compress_mode();
  if (gmode != CompressMode::kOff) {
    // Only the slice sum is lossy-coded; the row all-gather below moves
    // already-reduced slices and stays exact, so every rank unpacks the
    // same decoded values.
    reduce_comm.allreduce_sum_compressed(
        y_slice.flat(), gmode, pending.compress_slot(pending.ccount++),
        &profiler);
  } else {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    reduce_comm.allreduce_sum(y_slice.flat(), CommCategory::kDense);
  }
  {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    row_comm.allgatherv_into(std::span<const Real>(y_slice.flat()),
                             ws.gathered, CommCategory::kDense);
  }
  y.resize(f_in, f_out);
  for (int jj = 0; jj < parts; ++jj) {
    const auto [r0, r1] = block_range(f_in, parts, jj);
    const auto chunk = ws.gathered.chunk(jj);
    CAGNET_CHECK(chunk.size() == static_cast<std::size_t>((r1 - r0) * f_out),
                 "assemble_weight_gradient: slice size mismatch");
    std::copy(chunk.begin(), chunk.end(), y.data() + r0 * f_out);
  }
}

namespace {

/// Grow-once access to pending-reduction slot `i`.
template <typename T>
T& pending_slot(std::vector<T>& v, std::size_t i) {
  if (v.size() <= i) v.resize(i + 1);
  return v[i];
}

}  // namespace

void begin_allreduce_weight_gradient(Matrix& y_partial, Index f_in,
                                     Index f_out, Comm& comm,
                                     Profiler& profiler,
                                     PendingGradReduce& pending,
                                     Matrix& y_full) {
  CAGNET_CHECK(y_partial.rows() == f_in && y_partial.cols() == f_out,
               "reduce_gradients: unexpected partial shape");
  const CompressMode gmode = gradient_compress_mode();
  if (gmode != CompressMode::kOff) {
    if (pending.count + pending.ccount == 0 && pending.has_release) {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      // Release last cycle's encoded sends. Targeted (not a full
      // quiesce): unrelated ops may legitimately still be in flight
      // here — see PendingGradReduce::release_ticket.
      comm.quiesce_op(pending.release_ticket);
      pending.has_release = false;
    }
    // The encode IS the staging copy: peers read the stable buf.send of
    // the layer's CompressBuf, so y_partial is free immediately and no
    // pending.src slot is needed. The op times itself.
    const std::size_t i = pending.ccount++;
    y_full.resize(f_in, f_out);
    pending_slot(pending.cops, i) = comm.iallreduce_sum_compressed(
        std::span<const Real>(y_partial.flat()), y_full.flat(), gmode,
        pending.compress_slot(i), &profiler);
    return;
  }
  ScopedPhase scope(profiler, Phase::kDenseComm);
  if (pending.count + pending.ccount == 0 && pending.has_release) {
    // Release point for last cycle's staged partials (peers read them at
    // their finish waits); long drained by now. Targeted, so ops posted
    // after that cycle's waits stay untouched.
    comm.quiesce_op(pending.release_ticket);
    pending.has_release = false;
  }
  const std::size_t i = pending.count++;
  Matrix& src = pending_slot(pending.src, i);
  src.resize(f_in, f_out);
  std::copy(y_partial.flat().begin(), y_partial.flat().end(),
            src.flat().begin());
  y_full.resize(f_in, f_out);
  pending_slot(pending.ops, i) = comm.iallreduce_sum(
      std::span<const Real>(src.flat()), y_full.flat(),
      CommCategory::kDense);
}

void finish_allreduce_weight_gradient(Profiler& profiler,
                                      PendingGradReduce& pending) {
  {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    for (std::size_t i = 0; i < pending.count; ++i) {
      if (pending.ops[i].pending()) {
        pending.release_ticket = pending.ops[i].ticket();
        pending.has_release = true;
      }
      pending.ops[i].wait();
    }
  }
  // Compressed ops time themselves (wire wait under kDenseComm, decode
  // under kCompressPack). The size guard covers blocking mode, where
  // ccount counts residual slots but no op was stored.
  for (std::size_t i = 0; i < pending.ccount && i < pending.cops.size();
       ++i) {
    if (pending.cops[i].pending()) {
      pending.release_ticket = pending.cops[i].ticket();
      pending.has_release = true;
    }
    pending.cops[i].wait();
  }
  pending.count = 0;
  pending.ccount = 0;
}

void begin_assemble_weight_gradient(Matrix& y_slice, Index f_in,
                                    Index f_out, Comm& reduce_comm,
                                    Profiler& profiler,
                                    PendingGradReduce& pending,
                                    Matrix& y_full) {
  const CompressMode gmode = gradient_compress_mode();
  if (gmode != CompressMode::kOff) {
    if (pending.count + pending.ccount == 0) {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      reduce_comm.quiesce();  // release last epoch's encoded sends
    }
    // Lossy slice sum into the reduced slot; the exact row gather is
    // posted at finish once the decode lands. The encode is the staging
    // copy (peers read the layer buf's stable send bytes), so y_slice is
    // free on return. The op times itself.
    const std::size_t i = pending.ccount++;
    Matrix& reduced = pending_slot(pending.reduced, i);
    reduced.resize(y_slice.rows(), y_slice.cols());
    pending_slot(pending.cops, i) = reduce_comm.iallreduce_sum_compressed(
        std::span<const Real>(y_slice.flat()), reduced.flat(), gmode,
        pending.compress_slot(i), &profiler);
    pending_slot(pending.targets, i) = &y_full;
    pending_slot(pending.dims, i) = {f_in, f_out};
    return;
  }
  ScopedPhase scope(profiler, Phase::kDenseComm);
  if (pending.count == 0) reduce_comm.quiesce();  // release last epoch's
  const std::size_t i = pending.count++;
  Matrix& src = pending_slot(pending.src, i);
  src.resize(y_slice.rows(), y_slice.cols());
  std::copy(y_slice.flat().begin(), y_slice.flat().end(),
            src.flat().begin());
  Matrix& reduced = pending_slot(pending.reduced, i);
  reduced.resize(y_slice.rows(), y_slice.cols());
  pending_slot(pending.ops, i) = reduce_comm.iallreduce_sum(
      std::span<const Real>(src.flat()), reduced.flat(),
      CommCategory::kDense);
  pending_slot(pending.targets, i) = &y_full;
  pending_slot(pending.dims, i) = {f_in, f_out};
}

void finish_assemble_weight_gradient(int parts, Comm& row_comm,
                                     Profiler& profiler,
                                     PendingGradReduce& pending) {
  // Complete each layer's reduction and launch its slice all-gather
  // before touching the next, so later layers' gathers are in flight
  // while earlier layers unpack.
  {
    ScopedPhase scope(profiler, Phase::kDenseComm);
    for (std::size_t i = 0; i < pending.count; ++i) {
      pending.ops[i].wait();
      auto& gathered = pending_slot(pending.gathered, i);
      if (!gathered) gathered = std::make_unique<Gathered<Real>>();
      pending_slot(pending.gather_ops, i) = row_comm.iallgatherv_into(
          std::span<const Real>(pending.reduced[i].flat()), *gathered,
          CommCategory::kDense);
    }
  }
  // Compressed layers: complete each lossy slice sum (the op times its
  // own wait/decode) and launch its exact row gather. The size guard
  // covers blocking mode, where ccount counts residual slots but no op
  // was stored. Modes never mix within an epoch, so slot indices of the
  // two families both start at 0 and never collide.
  const std::size_t cposted = std::min(pending.ccount, pending.cops.size());
  for (std::size_t i = 0; i < cposted; ++i) {
    pending.cops[i].wait();
    ScopedPhase scope(profiler, Phase::kDenseComm);
    auto& gathered = pending_slot(pending.gathered, i);
    if (!gathered) gathered = std::make_unique<Gathered<Real>>();
    pending_slot(pending.gather_ops, i) = row_comm.iallgatherv_into(
        std::span<const Real>(pending.reduced[i].flat()), *gathered,
        CommCategory::kDense);
  }
  for (std::size_t i = 0; i < pending.count + cposted; ++i) {
    {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      pending.gather_ops[i].wait();
    }
    const auto [f_in, f_out] = pending.dims[i];
    Matrix& y = *pending.targets[i];
    y.resize(f_in, f_out);
    for (int jj = 0; jj < parts; ++jj) {
      const auto [r0, r1] = block_range(f_in, parts, jj);
      const auto chunk = pending.gathered[i]->chunk(jj);
      CAGNET_CHECK(chunk.size() ==
                       static_cast<std::size_t>((r1 - r0) * f_out),
                   "finish_assemble_weight_gradient: slice size mismatch");
      std::copy(chunk.begin(), chunk.end(), y.data() + r0 * f_out);
    }
  }
  pending.count = 0;
  pending.ccount = 0;
}

std::vector<Index> row_starts(const DistProblem& problem, int parts) {
  std::vector<Index> starts(static_cast<std::size_t>(parts) + 1);
  for (int j = 0; j < parts; ++j) {
    starts[static_cast<std::size_t>(j)] = problem.row_range(parts, j).first;
  }
  starts[static_cast<std::size_t>(parts)] = problem.graph->num_vertices();
  return starts;
}

void build_halo_plan(const std::function<const Csr*(int)>& block_of,
                     int self, const std::function<Index(int)>& peer_row_lo,
                     Comm& comm, HaloPlan& plan) {
  const int p = comm.size();
  plan.blocks.assign(static_cast<std::size_t>(p), Csr{});
  plan.need_rows.clear();
  plan.need_rows_global.clear();
  plan.recv_row_offsets.assign(static_cast<std::size_t>(p) + 1, 0);

  std::vector<char> seen;
  std::vector<Index> new_col;
  std::vector<Index> need;
  for (int j = 0; j < p; ++j) {
    plan.recv_row_offsets[static_cast<std::size_t>(j) + 1] =
        plan.recv_row_offsets[static_cast<std::size_t>(j)];
    if (j == self) continue;
    const Csr* block = block_of(j);
    if (block == nullptr) continue;
    // Distinct peer-local columns the block touches, ascending: the exact
    // remote rows Section IV-A defines edgecut_P(A) over.
    seen.assign(static_cast<std::size_t>(block->cols()), 0);
    for (Index c : block->col_idx()) seen[static_cast<std::size_t>(c)] = 1;
    new_col.assign(static_cast<std::size_t>(block->cols()), Index{-1});
    need.clear();
    for (Index c = 0; c < block->cols(); ++c) {
      if (!seen[static_cast<std::size_t>(c)]) continue;
      new_col[static_cast<std::size_t>(c)] =
          static_cast<Index>(need.size());
      need.push_back(c);
    }
    plan.blocks[static_cast<std::size_t>(j)] = block->with_remapped_columns(
        std::span<const Index>(new_col), static_cast<Index>(need.size()));
    for (Index c : need) {
      plan.need_rows.push_back(c);
      plan.need_rows_global.push_back(peer_row_lo(j) + c);
    }
    plan.recv_row_offsets[static_cast<std::size_t>(j) + 1] =
        plan.need_rows.size();
  }

  // The one-time index request-and-send: every rank learns which of its
  // rows each peer needs. Setup traffic, charged as kControl so the
  // per-epoch halo volume stays exactly edgecut * f.
  Gathered<Index> requested;
  comm.alltoallv_into(std::span<const Index>(plan.need_rows),
                      std::span<const std::size_t>(plan.recv_row_offsets),
                      requested, CommCategory::kControl);
  plan.send_rows.assign(requested.data.begin(), requested.data.end());
  plan.send_row_offsets = requested.offsets;
  for (HaloPlan::PackBuf& buf : plan.pack) {
    buf.send_elem_offsets.assign(static_cast<std::size_t>(p) + 1, 0);
    buf.has_release = false;
  }
  plan.next_pack = 0;
  plan.ready = true;
}

namespace {

/// One peer drain of a pipelined halo exchange, the protocol shared by
/// the forward and backward sweeps: provably-empty chunks are
/// skip_source'd (no rendezvous), anything else is awaited zero-copy and
/// size-checked against the plan; the overlap region is closed (pairing
/// the drained charges with the compute that just ran) and reopened for
/// the next stage. Blocking mode reads the already-exchanged chunk from
/// plan.recv. Under a lossy row codec (`rmode` != off) the wire carries
/// codec bytes — size-checked against encoded_size_bytes and decoded
/// into `decode_dst` (Phase::kCompressPack); both modes decode the same
/// bytes, so the sweeps stay bitwise identical across overlap modes.
/// Returns the peer's rows, or nullptr when nothing landed.
const Real* drain_halo_peer(PendingOp& op, const HaloPlan& plan, int peer,
                            std::size_t expected_elems, bool pipelined,
                            CompressMode rmode, Real* decode_dst,
                            OverlapScope& region, Profiler& profiler) {
  const std::uint8_t* bytes = nullptr;
  if (!pipelined) {
    if (rmode == CompressMode::kOff) {
      return plan.recv.data.data() +
             plan.recv.offsets[static_cast<std::size_t>(peer)];
    }
    const std::size_t b0 =
        plan.recv_bytes.offsets[static_cast<std::size_t>(peer)];
    const std::size_t b1 =
        plan.recv_bytes.offsets[static_cast<std::size_t>(peer) + 1];
    CAGNET_CHECK(b1 - b0 == encoded_size_bytes(rmode, expected_elems),
                 "halo drain: unexpected compressed chunk size");
    bytes = plan.recv_bytes.data.data() + b0;
  } else {
    const Real* exact_rows = nullptr;
    {
      ScopedPhase scope(profiler, Phase::kDenseComm);
      if (expected_elems == 0) {
        op.skip_source(peer);
      } else if (rmode == CompressMode::kOff) {
        const std::span<const Real> chunk = op.await_source<Real>(peer);
        CAGNET_CHECK(chunk.size() == expected_elems,
                     "halo drain: unexpected chunk size");
        exact_rows = chunk.data();
      } else {
        const std::span<const std::uint8_t> chunk =
            op.await_source<std::uint8_t>(peer);
        CAGNET_CHECK(
            chunk.size() == encoded_size_bytes(rmode, expected_elems),
            "halo drain: unexpected compressed chunk size");
        bytes = chunk.data();
      }
    }
    region.close();
    region.open();
    if (rmode == CompressMode::kOff) return exact_rows;
  }
  if (expected_elems == 0 || bytes == nullptr) return nullptr;
  ScopedPhase scope(profiler, Phase::kCompressPack);
  compress_decode(rmode, bytes, expected_elems, decode_dst);
  return decode_dst;
}

/// Threaded row gather: copy `rows` of `src` (f-wide) into `dst`
/// row-major. Chunks write disjoint destination rows, so every chunk
/// count is bitwise-identical.
void pack_rows_threaded(const Matrix& src, std::span<const Index> rows,
                        Index f, Real* dst) {
  const auto n = static_cast<Index>(rows.size());
  parallel_for(n,
               plan_chunks(static_cast<double>(n) * static_cast<double>(f),
                           kMinElemsPerChunk, n),
               [&](Index lo, Index hi) {
                 for (Index k = lo; k < hi; ++k) {
                   const Real* from =
                       src.data() + rows[static_cast<std::size_t>(k)] * f;
                   std::copy(from, from + f, dst + k * f);
                 }
               });
}

/// Adaptive staleness target: a peer whose rows changed by relative L2
/// delta `rel` since its last refresh gets interval ~ kStaleTau / rel
/// (clamped to [stale_min_k, stale_max_k]) — 5% drift per refresh keeps
/// a peer at the floor; converged peers drift toward the ceiling.
constexpr double kStaleTau = 0.05;

/// The forward exchange's landed-row offsets: the preagg plan's effective
/// layout when aggregation is armed, the raw plan's otherwise.
const std::vector<std::size_t>& fwd_recv_offsets(const HaloPlan& plan) {
  return plan.preagg.active ? plan.preagg.eff_recv_row_offsets
                            : plan.recv_row_offsets;
}

/// Drop the empty rows of `m` (row order preserved): col_idx/values are
/// untouched, only row_ptr compacts, so the result's row k is the k-th
/// nonzero row of `m` — exactly the order the receiver's agg_land_rows
/// were recorded in.
Csr compact_nonzero_rows(const Csr& m) {
  std::vector<Index> row_ptr;
  row_ptr.reserve(static_cast<std::size_t>(m.rows()) + 1);
  row_ptr.push_back(0);
  for (Index r = 0; r < m.rows(); ++r) {
    if (m.row_degree(r) > 0) row_ptr.push_back(m.row_ptr()[r + 1]);
  }
  std::vector<Index> cols(m.col_idx().begin(), m.col_idx().end());
  std::vector<Real> vals(m.values().begin(), m.values().end());
  // Hoisted: argument evaluation order is unspecified, so reading
  // row_ptr.size() inline could observe the vector already moved-from.
  const Index nzr = static_cast<Index>(row_ptr.size()) - 1;
  return Csr::from_parts(nzr, m.cols(), std::move(row_ptr), std::move(cols),
                         std::move(vals));
}

/// Accumulate one peer's landed forward rows into T: the compacted-block
/// SpMM on the raw path (bitwise the pre-stale/pre-preagg sweep), or a
/// scatter-add of the pre-reduced rows onto their distinct local T rows
/// when the pair aggregates (disjoint chunked writes, deterministic).
void halo_accumulate_peer(HaloPlan& plan, int j, const Real* rows_j, Index f,
                          const MachineModel& machine, EpochStats& stats,
                          Matrix& t) {
  const HaloPlan::PreAggPlan& pa = plan.preagg;
  if (pa.active && pa.agg_recv[static_cast<std::size_t>(j)] != 0) {
    const std::size_t k0 = pa.agg_land_offsets[static_cast<std::size_t>(j)];
    const std::size_t k1 =
        pa.agg_land_offsets[static_cast<std::size_t>(j) + 1];
    if (k0 == k1) return;
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    const auto rows_n = static_cast<Index>(k1 - k0);
    parallel_for(
        rows_n,
        plan_chunks(static_cast<double>(rows_n) * static_cast<double>(f),
                    kMinElemsPerChunk, rows_n),
        [&](Index lo, Index hi) {
          for (Index k = lo; k < hi; ++k) {
            const Real* s = rows_j + k * f;
            Real* d = t.data() +
                      pa.agg_land_rows[k0 + static_cast<std::size_t>(k)] * f;
            for (Index c = 0; c < f; ++c) d[c] += s[c];
          }
        });
    return;
  }
  const Csr& a = plan.blocks[static_cast<std::size_t>(j)];
  if (a.nnz() == 0) return;
  ScopedPhase scope(stats.profiler, Phase::kSpmm);
  spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                        a.values().data(), rows_j, f, t.data(),
                        /*accumulate=*/true);
  stats.work.add_spmm(machine, static_cast<double>(a.nnz()),
                      static_cast<double>(f), block_degree(a));
}

/// The fixed-interval skip epoch: no exchange at all — no pack-buffer
/// claim, no quiesce, zero kHalo latency and words. Every remote stage
/// replays the cached landed rows through the identical accumulation,
/// crediting the avoided exact words to the meter; the self stage runs
/// as usual. Allocation-free (the cache slots were sized by the last
/// refresh epoch).
void halo_stale_replay(const Matrix& h, const Csr* self_block, int self,
                       Comm& comm, HaloPlan& plan,
                       const MachineModel& machine, EpochStats& stats,
                       Matrix& t) {
  HaloPlan::StaleState& st = plan.stale;
  const int p = comm.size();
  const Index f = h.cols();
  const auto slot = static_cast<std::size_t>(st.cur_slot);
  const std::vector<std::size_t>& roff = fwd_recv_offsets(plan);
  CAGNET_CHECK(slot < st.cache.size() && st.cache_f[slot] == f,
               "halo stale replay: cache slot not filled");
  comm.notify_event(CommCategory::kHalo, "halo stale skip");
  for (int j = 0; j < p; ++j) {
    if (j == self) {
      if (self_block != nullptr) {
        ScopedPhase scope(stats.profiler, Phase::kSpmm);
        self_block->spmm(h, t, /*accumulate=*/true);
        stats.work.add_spmm(machine, static_cast<double>(self_block->nnz()),
                            static_cast<double>(f),
                            block_degree(*self_block));
      }
      continue;
    }
    const std::size_t rows_n = roff[static_cast<std::size_t>(j) + 1] -
                               roff[static_cast<std::size_t>(j)];
    if (rows_n == 0) continue;
    comm.meter().add_stale_saved(static_cast<double>(rows_n) *
                                 static_cast<double>(f));
    halo_accumulate_peer(plan, j,
                         st.cache[slot].data() +
                             roff[static_cast<std::size_t>(j)] *
                                 static_cast<std::size_t>(f),
                         f, machine, stats, t);
  }
}

/// Sender side of aggregation-before-communication: stage this epoch's
/// outgoing rows — per aggregating destination a partial SpMM of the
/// dest's compacted coupling segment against the whole local H (one
/// pre-reduced row per distinct dest T row, Phase::kSpmm, metered as
/// local work), per raw destination the plain row gather. With `thin`
/// (an adaptive stale exchange), skipped destinations stage nothing
/// (zero-length chunks keep the collective in lockstep). The staged
/// matrix then rides the ordinary halo_exchange_begin — iota pack rows —
/// so double-buffering, compression, overlap, and charging stay in one
/// place.
void build_preagg_stage(const Matrix& h, int self, HaloPlan& plan, bool thin,
                        const MachineModel& machine, EpochStats& stats) {
  HaloPlan::PreAggPlan& pa = plan.preagg;
  const HaloPlan::StaleState& st = plan.stale;
  const Index f = h.cols();
  const int p = static_cast<int>(plan.blocks.size());
  const auto np = static_cast<std::size_t>(p);
  pa.epoch_stage_offsets.resize(np + 1);
  pa.epoch_stage_offsets[0] = 0;
  for (std::size_t d = 0; d < np; ++d) {
    std::size_t rows_d = 0;
    if (static_cast<int>(d) != self && (!thin || st.send_fresh[d] != 0)) {
      rows_d = pa.agg_send[d] != 0
                   ? static_cast<std::size_t>(pa.seg[d].rows())
                   : plan.send_row_offsets[d + 1] - plan.send_row_offsets[d];
    }
    pa.epoch_stage_offsets[d + 1] = pa.epoch_stage_offsets[d] + rows_d;
  }
  const std::size_t total = pa.epoch_stage_offsets[np];
  {
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    pa.stage.resize(static_cast<Index>(total), f);
    if (pa.stage_rows.size() < total) {
      const std::size_t old = pa.stage_rows.size();
      pa.stage_rows.resize(total);
      for (std::size_t k = old; k < total; ++k) {
        pa.stage_rows[k] = static_cast<Index>(k);
      }
    }
  }
  for (std::size_t d = 0; d < np; ++d) {
    const std::size_t off = pa.epoch_stage_offsets[d];
    const std::size_t rows_d = pa.epoch_stage_offsets[d + 1] - off;
    if (rows_d == 0) continue;
    if (pa.agg_send[d] != 0) {
      const Csr& seg = pa.seg[d];
      ScopedPhase scope(stats.profiler, Phase::kSpmm);
      spmm_csr_kernel<Real>(seg.rows(), seg.row_ptr().data(),
                            seg.col_idx().data(), seg.values().data(),
                            h.data(), f,
                            pa.stage.data() + off * static_cast<std::size_t>(f),
                            /*accumulate=*/false);
      stats.work.add_spmm(machine, static_cast<double>(seg.nnz()),
                          static_cast<double>(f), block_degree(seg));
    } else {
      ScopedPhase scope(stats.profiler, Phase::kHaloPack);
      pack_rows_threaded(
          h,
          std::span<const Index>(plan.send_rows.data() +
                                     plan.send_row_offsets[d],
                                 rows_d),
          f, pa.stage.data() + off * static_cast<std::size_t>(f));
    }
  }
}

}  // namespace

bool halo_backward_profitable(std::size_t landed_rows, double rs_rows,
                              Comm& comm) {
  std::array<double, 1> landed = {static_cast<double>(landed_rows)};
  comm.allreduce_max(std::span<double>(landed), CommCategory::kControl);
  return landed[0] <= 0.5 * rs_rows;
}

void halo_begin_epoch(int epoch, bool halo_active, Comm& comm,
                      HaloPlan& plan) {
  HaloPlan::StaleState& st = plan.stale;
  st.layer = 0;
  st.cur_slot = 0;
  const int mode = stale_k();
  const int p = comm.size();
  if (epoch < 0 || !halo_active || !plan.ready || p <= 1 || mode == 0 ||
      mode == 1) {
    // k = 1 refreshes every exchange — that IS the exact path — so the
    // cache machinery stays disarmed entirely (bitwise parity, incl.
    // per-category meters; tests/stale_test.cpp pins it).
    st.active = false;
    st.epoch_skip = false;
    st.use_eff = false;
    return;
  }
  st.active = true;
  const int self = comm.rank();
  const auto np = static_cast<std::size_t>(p);
  if (st.recv_fresh.size() != np) {
    st.valid.assign(np, 0);
    st.recv_fresh.assign(np, 1);
    st.send_fresh.assign(np, 1);
    st.delta_sq.assign(np, -1.0);
    st.norm_sq.assign(np, 0.0);
    st.next_refresh.assign(np, epoch);
    st.filled_epoch = -1;
    st.prev_epoch = -1;
    st.cache.clear();
    st.cache_f.clear();
  }
  if (mode != kStaleAdaptive) {
    // Fixed interval. filled_epoch evolves identically on every rank
    // (same knob, same epoch sequence, first arm always refreshes), so
    // the skip decision is rank-uniform and skip epochs can elide the
    // collective entirely.
    const bool refresh =
        st.filled_epoch < 0 || epoch - st.filled_epoch >= mode;
    st.epoch_skip = !refresh;
    st.use_eff = false;
    const char fill = refresh ? 1 : 0;
    std::fill(st.recv_fresh.begin(), st.recv_fresh.end(), fill);
    std::fill(st.send_fresh.begin(), st.send_fresh.end(), fill);
    if (refresh) st.filled_epoch = epoch;
    st.prev_epoch = epoch;
    return;
  }
  // Adaptive: fold the deltas accumulated over the previous epoch's
  // refreshes into per-peer intervals. A first fill (delta_sq < 0) has
  // no baseline and stays at the floor; otherwise the relative L2 drift
  // maps to ~ kStaleTau / drift epochs, clamped to the knob bounds.
  if (st.prev_epoch >= 0) {
    for (int j = 0; j < p; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (j == self || st.recv_fresh[js] == 0) continue;
      if (plan.recv_row_offsets[js + 1] == plan.recv_row_offsets[js]) {
        continue;
      }
      int kj = stale_min_k();
      if (st.delta_sq[js] >= 0.0) {
        const double rel =
            std::sqrt(st.delta_sq[js] / (st.norm_sq[js] + 1e-30));
        kj = rel > 0.0 ? static_cast<int>(kStaleTau / rel) : stale_max_k();
        kj = std::clamp(kj, stale_min_k(), stale_max_k());
      }
      st.next_refresh[js] = st.prev_epoch + kj;
    }
  }
  // This epoch's receiver-side wants, and the accumulator reset for the
  // refreshes about to run.
  st.want_flags.assign(np, 0);
  if (st.flag_offsets.size() != np + 1) {
    st.flag_offsets.resize(np + 1);
    for (std::size_t j = 0; j <= np; ++j) st.flag_offsets[j] = j;
  }
  for (int j = 0; j < p; ++j) {
    const auto js = static_cast<std::size_t>(j);
    bool want = false;
    if (j != self &&
        plan.recv_row_offsets[js + 1] > plan.recv_row_offsets[js]) {
      want = st.valid[js] == 0 || epoch >= st.next_refresh[js];
    }
    st.recv_fresh[js] = want ? 1 : 0;
    st.want_flags[js] = want ? 1 : 0;
    if (want && st.valid[js] != 0) {
      st.delta_sq[js] = 0.0;
      st.norm_sq[js] = 0.0;
    }
  }
  // One want-flag per peer, the only adaptive control traffic: collective
  // and in lockstep every epoch, so each sender learns exactly which
  // destinations to thin without any schedule agreement.
  comm.alltoallv_into(std::span<const Index>(st.want_flags),
                      std::span<const std::size_t>(st.flag_offsets),
                      st.peer_wants, CommCategory::kControl);
  bool any_skip = false;
  for (int d = 0; d < p; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const bool fresh = d != self && st.peer_wants.data[ds] != 0;
    st.send_fresh[ds] = fresh ? 1 : 0;
    if (d != self && !fresh &&
        plan.send_row_offsets[ds + 1] > plan.send_row_offsets[ds]) {
      any_skip = true;
    }
  }
  st.epoch_skip = false;
  st.use_eff = any_skip;
  if (any_skip) {
    // Thinned send set: refreshing destinations' send_rows chunks
    // concatenated, zero-length chunks for the rest. The exchange stays
    // in lockstep; only the words drop.
    st.eff_send_rows.clear();
    st.eff_send_row_offsets.assign(np + 1, 0);
    for (std::size_t d = 0; d < np; ++d) {
      if (st.send_fresh[d] != 0) {
        const std::size_t s0 = plan.send_row_offsets[d];
        const std::size_t s1 = plan.send_row_offsets[d + 1];
        st.eff_send_rows.insert(
            st.eff_send_rows.end(),
            plan.send_rows.begin() + static_cast<std::ptrdiff_t>(s0),
            plan.send_rows.begin() + static_cast<std::ptrdiff_t>(s1));
      }
      st.eff_send_row_offsets[d + 1] = st.eff_send_rows.size();
    }
  }
  st.prev_epoch = epoch;
}

void build_preagg_plan(const Csr& at,
                       const std::function<std::pair<Index, Index>(int)>&
                           peer_rows,
                       Index my_row_lo, Index my_row_hi, int self,
                       HaloPlan& plan) {
  CAGNET_CHECK(plan.ready, "build_preagg_plan: halo plan not built");
  HaloPlan::PreAggPlan& pa = plan.preagg;
  const int p = static_cast<int>(plan.blocks.size());
  const auto np = static_cast<std::size_t>(p);
  pa.active = false;
  pa.agg_send.assign(np, 0);
  pa.agg_recv.assign(np, 0);
  pa.seg.assign(np, Csr{});
  pa.stage_row_offsets.assign(np + 1, 0);
  pa.agg_land_offsets.assign(np + 1, 0);
  pa.agg_land_rows.clear();
  pa.eff_recv_row_offsets.assign(np + 1, 0);
  bool any = false;
  // Receiver side: a source whose compacted coupling block touches fewer
  // distinct output rows than it ships source rows profits from landing
  // one pre-reduced row per output row instead.
  for (int s = 0; s < p; ++s) {
    const auto ss = static_cast<std::size_t>(s);
    pa.eff_recv_row_offsets[ss + 1] = pa.eff_recv_row_offsets[ss];
    pa.agg_land_offsets[ss + 1] = pa.agg_land_offsets[ss];
    if (s == self) continue;
    const std::size_t need =
        plan.recv_row_offsets[ss + 1] - plan.recv_row_offsets[ss];
    if (need == 0) continue;
    const Csr& blk = plan.blocks[ss];
    Index nzr = 0;
    for (Index r = 0; r < blk.rows(); ++r) {
      if (blk.row_degree(r) > 0) ++nzr;
    }
    if (static_cast<std::size_t>(nzr) < need) {
      pa.agg_recv[ss] = 1;
      for (Index r = 0; r < blk.rows(); ++r) {
        if (blk.row_degree(r) > 0) pa.agg_land_rows.push_back(r);
      }
      pa.agg_land_offsets[ss + 1] = pa.agg_land_rows.size();
      pa.eff_recv_row_offsets[ss + 1] += static_cast<std::size_t>(nzr);
      any = true;
    } else {
      pa.eff_recv_row_offsets[ss + 1] += need;
    }
  }
  // Sender side: the same verdict from the destination's segment of the
  // global A^T — identical nnz structure to the block the destination
  // inspected, so both endpoints agree without control traffic.
  for (int d = 0; d < p; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    pa.stage_row_offsets[ds + 1] = pa.stage_row_offsets[ds];
    if (d == self) continue;
    const std::size_t sent =
        plan.send_row_offsets[ds + 1] - plan.send_row_offsets[ds];
    if (sent == 0) continue;
    const auto [d_lo, d_hi] = peer_rows(d);
    const Csr segd = at.block(d_lo, d_hi, my_row_lo, my_row_hi);
    Index nzr = 0;
    for (Index r = 0; r < segd.rows(); ++r) {
      if (segd.row_degree(r) > 0) ++nzr;
    }
    if (static_cast<std::size_t>(nzr) < sent) {
      pa.agg_send[ds] = 1;
      pa.seg[ds] = compact_nonzero_rows(segd);
      pa.stage_row_offsets[ds + 1] += static_cast<std::size_t>(nzr);
      any = true;
    } else {
      pa.stage_row_offsets[ds + 1] += sent;
    }
  }
  pa.active = any;
  if (!any) return;
  const std::size_t total = pa.stage_row_offsets[np];
  pa.stage_rows.resize(total);
  for (std::size_t k = 0; k < total; ++k) {
    pa.stage_rows[k] = static_cast<Index>(k);
  }
  pa.epoch_stage_offsets = pa.stage_row_offsets;
}

PendingOp halo_exchange_begin(const Matrix& src, std::span<const Index> rows,
                              std::span<const std::size_t> row_offsets,
                              Comm& comm, HaloPlan& plan, CommCategory cat,
                              Profiler& profiler, bool exact) {
  CAGNET_CHECK(plan.ready, "halo_exchange_begin: plan not built");
  const Index f = src.cols();
  const int p = comm.size();
  HaloPlan::PackBuf& buf =
      plan.pack[static_cast<std::size_t>(plan.next_pack)];
  plan.next_pack ^= 1;
  if (buf.has_release) {
    // Release point for the op that used this buffer: it is two exchanges
    // stale, so peers drained it a whole layer ago — a handful of atomic
    // loads, off the critical path (the reason the staging is
    // double-buffered at all).
    ScopedPhase scope(profiler, Phase::kDenseComm);
    comm.quiesce_op(buf.release_ticket);
    buf.has_release = false;
  }
  {
    ScopedPhase scope(profiler, Phase::kHaloPack);
    buf.send_buf.resize(static_cast<Index>(rows.size()), f);
    pack_rows_threaded(src, rows, f, buf.send_buf.data());
    buf.send_elem_offsets.resize(static_cast<std::size_t>(p) + 1);
    for (std::size_t j = 0; j <= static_cast<std::size_t>(p); ++j) {
      buf.send_elem_offsets[j] =
          row_offsets[j] * static_cast<std::size_t>(f);
    }
  }
  const CompressMode rmode = row_codec(p, exact);
  if (rmode != CompressMode::kOff) {
    // Lossy row payload: re-encode the exact pack per destination chunk
    // (chunk boundaries must fall on codec-chunk starts, which per-
    // destination encoding guarantees) and ship the byte buffer instead.
    // No error feedback — halo rows are fresh activations each layer, not
    // an accumulating signal, so a residual would mix unrelated rows.
    {
      ScopedPhase scope(profiler, Phase::kCompressPack);
      buf.send_byte_offsets.resize(static_cast<std::size_t>(p) + 1);
      buf.send_byte_offsets[0] = 0;
      for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
        const std::size_t elems =
            buf.send_elem_offsets[j + 1] - buf.send_elem_offsets[j];
        buf.send_byte_offsets[j + 1] =
            buf.send_byte_offsets[j] + encoded_size_bytes(rmode, elems);
      }
      buf.send_bytes.resize(
          buf.send_byte_offsets[static_cast<std::size_t>(p)]);
      for (std::size_t j = 0; j < static_cast<std::size_t>(p); ++j) {
        const std::size_t e0 = buf.send_elem_offsets[j];
        const std::size_t e1 = buf.send_elem_offsets[j + 1];
        if (e0 == e1) continue;
        compress_encode(
            rmode,
            std::span<const Real>(buf.send_buf.data() + e0, e1 - e0),
            buf.send_bytes.data() + buf.send_byte_offsets[j],
            /*residual=*/nullptr);
      }
    }
    ScopedPhase scope(profiler, Phase::kDenseComm);
    if (overlap_enabled()) {
      PendingOp op = comm.ialltoallv_post(
          std::span<const std::uint8_t>(buf.send_bytes),
          std::span<const std::size_t>(buf.send_byte_offsets),
          CommCategory::kCompressed);
      buf.release_ticket = op.ticket();
      buf.has_release = true;
      return op;
    }
    comm.alltoallv_into(std::span<const std::uint8_t>(buf.send_bytes),
                        std::span<const std::size_t>(buf.send_byte_offsets),
                        plan.recv_bytes, CommCategory::kCompressed);
    return PendingOp{};
  }
  ScopedPhase scope(profiler, Phase::kDenseComm);
  if (overlap_enabled()) {
    // Post-only: the caller drains each peer's chunk exactly when the
    // stage that consumes it runs, and wait()s the op once all stages are
    // done. Charges (applied per drain) sum bitwise to the blocking
    // form's.
    PendingOp op = comm.ialltoallv_post(
        std::span<const Real>(buf.send_buf.flat()),
        std::span<const std::size_t>(buf.send_elem_offsets), cat);
    buf.release_ticket = op.ticket();
    buf.has_release = true;
    return op;
  }
  comm.alltoallv_into(std::span<const Real>(buf.send_buf.flat()),
                      std::span<const std::size_t>(buf.send_elem_offsets),
                      plan.recv, cat);
  return PendingOp{};
}

void halo_spmm_pipeline(const Matrix& h, const Csr* self_block, int self,
                        Comm& comm, HaloPlan& plan, CommCategory cat,
                        const MachineModel& machine, EpochStats& stats,
                        Matrix& t, bool exact) {
  HaloPlan::StaleState& st = plan.stale;
  const bool stale = st.active && !exact;
  if (stale) {
    // One cache slot per stale-eligible forward exchange of the epoch
    // (each layer has its own width); the counter restarts at
    // halo_begin_epoch. The exact input aggregation claims none, so the
    // slots stay keyed by layer whether or not layer 1 exchanged.
    st.cur_slot = st.layer++;
    if (st.epoch_skip) {
      halo_stale_replay(h, self_block, self, comm, plan, machine, stats, t);
      return;
    }
  } else {
    st.cur_slot = 0;
  }
  PendingOp op;
  if (plan.preagg.active) {
    build_preagg_stage(h, self, plan, /*thin=*/stale && st.use_eff, machine,
                       stats);
    op = halo_exchange_begin(
        plan.preagg.stage,
        std::span<const Index>(plan.preagg.stage_rows.data(),
                               static_cast<std::size_t>(
                                   plan.preagg.stage.rows())),
        std::span<const std::size_t>(plan.preagg.epoch_stage_offsets), comm,
        plan, cat, stats.profiler, exact);
  } else if (stale && st.use_eff) {
    op = halo_exchange_begin(
        h, std::span<const Index>(st.eff_send_rows),
        std::span<const std::size_t>(st.eff_send_row_offsets), comm, plan,
        cat, stats.profiler);
  } else {
    op = halo_exchange_begin(
        h, std::span<const Index>(plan.send_rows),
        std::span<const std::size_t>(plan.send_row_offsets), comm, plan, cat,
        stats.profiler, exact);
  }
  halo_spmm_sweep(op, h, self_block, self, comm, plan, machine, stats, t,
                  exact);
}

void halo_spmm_sweep(PendingOp& op, const Matrix& h, const Csr* self_block,
                     int self, Comm& comm, HaloPlan& plan,
                     const MachineModel& machine, EpochStats& stats,
                     Matrix& t, bool exact) {
  const int p = comm.size();
  const Index f = h.cols();
  const bool pipelined = op.pending();
  HaloPlan::StaleState& st = plan.stale;
  const bool stale_on = st.active && !exact;
  const bool adaptive = stale_on && stale_k() == kStaleAdaptive;
  const auto slot = static_cast<std::size_t>(st.cur_slot);
  // Landed-row offsets of this exchange: the preagg plan's effective
  // layout when aggregation is armed, the raw plan's otherwise.
  const std::vector<std::size_t>& roff = fwd_recv_offsets(plan);
  const CompressMode rmode = row_codec(p, exact);
  if (rmode != CompressMode::kOff) {
    // Decode staging for every peer's landed rows, laid out at the
    // exchange's recv row offsets so each stage decodes into its own
    // slice.
    ScopedPhase scope(stats.profiler, Phase::kCompressPack);
    plan.recv_decode.resize(roff[static_cast<std::size_t>(p)] *
                            static_cast<std::size_t>(f));
  }
  if (stale_on) {
    // Size this layer's cache slot. Only refresh epochs reach the sweep,
    // and only their first visit allocates; replays never get here.
    if (st.cache.size() <= slot) {
      st.cache.resize(slot + 1);
      st.cache_f.resize(slot + 1, 0);
    }
    st.cache[slot].resize(roff[static_cast<std::size_t>(p)] *
                          static_cast<std::size_t>(f));
    st.cache_f[slot] = f;
  }
  // Ascending stage order is the broadcast loops' accumulation order;
  // keeping it makes every per-element sum an identical ordered sum of
  // identical products, so T stays bitwise the broadcast path's. Each
  // drain closes one overlap region: stage j's rows were in flight while
  // the stages before j multiplied — including the self stage, whose
  // SpMM is the pipeline's headline overlap, so the region opens before
  // the sweep.
  OverlapScope region(comm.meter(), stats.work, machine);
  if (pipelined) region.open();
  for (int j = 0; j < p; ++j) {
    const auto js = static_cast<std::size_t>(j);
    if (j == self) {
      if (self_block != nullptr) {
        ScopedPhase scope(stats.profiler, Phase::kSpmm);
        self_block->spmm(h, t, /*accumulate=*/true);
        stats.work.add_spmm(machine, static_cast<double>(self_block->nnz()),
                            static_cast<double>(f),
                            block_degree(*self_block));
      }
      continue;
    }
    const std::size_t base_rows = roff[js + 1] - roff[js];
    if (stale_on && st.recv_fresh[js] == 0) {
      // Stale peer: certify its empty chunk (adaptive exchanges stay in
      // lockstep; the peer shipped a zero-length chunk by the same
      // want-flag) and replay the cached landed rows through the
      // identical accumulation, crediting the avoided exact words.
      if (pipelined) {
        {
          ScopedPhase scope(stats.profiler, Phase::kDenseComm);
          op.skip_source(j);
        }
        region.close();
        region.open();
      }
      if (base_rows == 0) continue;
      comm.notify_event(CommCategory::kHalo, "halo stale skip");
      comm.meter().add_stale_saved(static_cast<double>(base_rows) *
                                   static_cast<double>(f));
      halo_accumulate_peer(
          plan, j,
          st.cache[slot].data() + roff[js] * static_cast<std::size_t>(f), f,
          machine, stats, t);
      continue;
    }
    const std::size_t expect = base_rows * static_cast<std::size_t>(f);
    Real* decode_dst =
        rmode == CompressMode::kOff
            ? nullptr
            : plan.recv_decode.data() +
                  roff[js] * static_cast<std::size_t>(f);
    const Real* rows_j = drain_halo_peer(op, plan, j, expect, pipelined,
                                         rmode, decode_dst, region,
                                         stats.profiler);
    if (stale_on && expect > 0 && rows_j != nullptr) {
      // Refresh this peer's cache slice (and, in adaptive mode, fold the
      // serial L2 delta against the old slice before overwriting it —
      // deterministic double accumulation).
      ScopedPhase scope(stats.profiler, Phase::kHaloPack);
      Real* dst =
          st.cache[slot].data() + roff[js] * static_cast<std::size_t>(f);
      if (adaptive) {
        if (st.valid[js] == 0) {
          st.delta_sq[js] = -1.0;  // first fill: no baseline for a delta
        } else if (st.delta_sq[js] >= 0.0) {
          double d2 = 0.0;
          double n2 = 0.0;
          for (std::size_t k = 0; k < expect; ++k) {
            const double diff = static_cast<double>(rows_j[k]) -
                                static_cast<double>(dst[k]);
            d2 += diff * diff;
            n2 += static_cast<double>(rows_j[k]) *
                  static_cast<double>(rows_j[k]);
          }
          st.delta_sq[js] += d2;
          st.norm_sq[js] += n2;
        }
      }
      std::copy(rows_j, rows_j + expect, dst);
      st.valid[js] = 1;
    }
    halo_accumulate_peer(plan, j, rows_j, f, machine, stats, t);
  }
  region.close();
  if (pipelined) {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    op.wait();  // every source drained; this just releases the channel
  }
}

void halo_exchange_contributions(
    const Matrix& partial, std::span<const Index> pack_rows,
    std::span<const std::size_t> pack_row_offsets, bool self_partial,
    Index self_row0, std::span<const Index> land_rows,
    std::span<const std::size_t> land_row_offsets, int self, Comm& comm,
    HaloPlan& plan, CommCategory cat, const MachineModel& machine,
    EpochStats& stats, Matrix& u) {
  PendingOp op = halo_exchange_begin(partial, pack_rows, pack_row_offsets,
                                     comm, plan, cat, stats.profiler);
  const int p = comm.size();
  const Index f = partial.cols();
  const bool pipelined = op.pending();
  const CompressMode rmode = row_codec(p, /*exact=*/false);
  // A rank that accumulates nothing (a 1.5D non-keeper: no self term and
  // every land chunk empty — its u arrives whole with the team broadcast)
  // only owes the drain bookkeeping: skip every source without touching u
  // or coupling to any peer's schedule.
  if (!self_partial &&
      land_row_offsets[static_cast<std::size_t>(p)] ==
          land_row_offsets[0]) {
    if (pipelined) {
      ScopedPhase scope(stats.profiler, Phase::kDenseComm);
      for (int r = 0; r < p; ++r) {
        if (r != self) op.skip_source(r);
      }
      op.wait();
    }
    return;
  }
  {
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    u.set_zero();
  }
  if (rmode != CompressMode::kOff) {
    ScopedPhase scope(stats.profiler, Phase::kCompressPack);
    plan.recv_decode.resize(
        land_row_offsets[static_cast<std::size_t>(p)] *
        static_cast<std::size_t>(f));
  }
  // Rank-ascending accumulation, the reduce-scatter's exact per-element
  // order (rows a peer did not send are exact +0.0 contributions), so U
  // is bitwise the broadcast path's. The region opens before the sweep
  // so the first drain's charges pair with the accumulation that
  // precedes it.
  OverlapScope region(comm.meter(), stats.work, machine);
  if (pipelined) region.open();
  for (int r = 0; r < p; ++r) {
    if (r == self) {
      if (self_partial) {
        ScopedPhase scope(stats.profiler, Phase::kHaloPack);
        const Real* src = partial.data() + self_row0 * f;
        Real* dst = u.data();
        const Index len = u.rows() * f;
        parallel_for(len,
                     plan_chunks(static_cast<double>(len), kMinElemsPerChunk,
                                 len),
                     [&](Index lo, Index hi) {
                       for (Index k = lo; k < hi; ++k) dst[k] += src[k];
                     });
      }
      continue;
    }
    const std::size_t k0 = land_row_offsets[static_cast<std::size_t>(r)];
    const std::size_t k1 = land_row_offsets[static_cast<std::size_t>(r) + 1];
    Real* decode_dst =
        rmode == CompressMode::kOff
            ? nullptr
            : plan.recv_decode.data() + k0 * static_cast<std::size_t>(f);
    const Real* src =
        drain_halo_peer(op, plan, r, (k1 - k0) * static_cast<std::size_t>(f),
                        pipelined, rmode, decode_dst, region,
                        stats.profiler);
    if (k0 == k1) continue;
    // Scatter-add this peer's landed rows (distinct within a peer, so
    // row chunks write disjoint outputs and threading is deterministic).
    ScopedPhase scope(stats.profiler, Phase::kHaloPack);
    const auto rows_n = static_cast<Index>(k1 - k0);
    parallel_for(
        rows_n,
        plan_chunks(static_cast<double>(rows_n) * static_cast<double>(f),
                    kMinElemsPerChunk, rows_n),
        [&](Index lo, Index hi) {
          for (Index k = lo; k < hi; ++k) {
            const Real* s = src + k * f;
            Real* d = u.data() +
                      land_rows[k0 + static_cast<std::size_t>(k)] * f;
            for (Index c = 0; c < f; ++c) d[c] += s[c];
          }
        });
  }
  region.close();
  if (pipelined) {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    op.wait();  // every source drained; this just releases the channel
  }
}

Csr route_csr(const Csr& mine, int dest, Comm& comm, CommCategory cat) {
  const std::array<Index, 3> my_header = {mine.rows(), mine.cols(),
                                          mine.nnz()};
  const auto header = comm.route(std::span<const Index>(my_header), dest, cat);
  auto row_ptr = comm.route(mine.row_ptr(), dest, cat);
  auto col_idx = comm.route(mine.col_idx(), dest, cat);
  auto vals = comm.route(std::span<const Real>(mine.values()), dest, cat);
  return Csr::from_parts(header[0], header[1], std::move(row_ptr),
                         std::move(col_idx), std::move(vals));
}

}  // namespace dist
}  // namespace cagnet
