// Shared machinery of the distributed GNN trainers (1D / 1.5D / 2D / 3D).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/comm/comm.hpp"
#include "src/comm/grid.hpp"
#include "src/comm/machine.hpp"
#include "src/gnn/model.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/partition.hpp"
#include "src/util/profiler.hpp"

namespace cagnet {

/// Read-only problem state shared by all ranks of a simulated world.
///
/// The simulation keeps one copy of the graph in host memory; each rank
/// extracts only its own blocks in its trainer constructor, mirroring a
/// real distributed loader. A^T is materialized once here rather than per
/// rank (the paper's implementation likewise prepares both orientations).
///
/// Partition-aware form: `prepare(graph, parts, partitioner)` runs a
/// registered partitioner (src/graph/partition.hpp) and relabels the
/// problem once — adjacency, features, and labels are permuted so every
/// part is a contiguous row block — before any rank extracts its blocks.
/// Every algebra therefore trains on the permuted problem transparently;
/// the engine un-permutes gather_output() so callers always see original
/// vertex order. The block boundaries follow the (generally uneven) part
/// sizes via row_range(); algebras whose part count differs from the
/// partition's fall back to even block_range splits of the permuted order.
struct DistProblem {
  const Graph* graph = nullptr;  ///< the (possibly permuted) training graph
  Csr at;  ///< A^T (paper keeps A and A^T distinguishable for directedness)
  Index labeled_count = 0;

  // ---- Partition-aware layout (empty / identity when prepared without a
  // partitioner) ----
  std::string partitioner = "block";
  Partition partition;             ///< owners in permuted order (sorted)
  std::vector<Index> part_offsets; ///< parts+1 row prefix; empty = even blocks
  std::vector<Index> perm;         ///< permuted row r = original vertex
                                   ///< perm[r]; empty = identity
  EdgeCutStats edgecut;            ///< of `partition` on the training graph

  /// Identity layout (the paper's default block distribution).
  static DistProblem prepare(const Graph& graph);

  /// Partitioned layout: run the named registered partitioner for `parts`
  /// parts, permute the problem part-contiguously, and record the
  /// edge-cut statistics the halo path and the cost model consume. The
  /// "block" partitioner keeps the original vertex order (no permutation)
  /// and trains bitwise identically to the identity form.
  static DistProblem prepare(const Graph& graph, int parts,
                             const std::string& partitioner,
                             std::uint64_t seed = 12345);

  /// True when part boundaries (possibly uneven) are recorded.
  bool partitioned() const { return !part_offsets.empty(); }

  /// Row range of block `idx` of `parts`: the partition's own (uneven)
  /// boundaries when its part count matches `parts`, the even block_range
  /// otherwise. The 1D family queries with parts = P, the 1.5D family
  /// with parts = G = P / c.
  std::pair<Index, Index> row_range(int parts, int idx) const {
    if (static_cast<int>(part_offsets.size()) == parts + 1) {
      return {part_offsets[static_cast<std::size_t>(idx)],
              part_offsets[static_cast<std::size_t>(idx) + 1]};
    }
    return block_range(graph->num_vertices(), parts, idx);
  }

 private:
  /// Owning storage of the permuted graph (aliased by `graph`); shared so
  /// DistProblem remains cheaply copyable.
  std::shared_ptr<const Graph> owned_graph_;
};

/// Per-epoch instrumentation, mirroring what Figs. 2-3 report.
struct EpochStats {
  EpochResult result;
  Profiler profiler;    ///< measured host seconds per phase (this rank)
  CostMeter comm;       ///< metered traffic for the epoch (this rank)
  WorkMeter work;       ///< modeled local-kernel seconds (this rank)

  /// Modeled epoch seconds on the target machine: communication under
  /// alpha-beta plus modeled local kernels, with every phase serialized
  /// (the paper's bulk-synchronous reading).
  double modeled_seconds(const MachineModel& m) const {
    return comm.modeled_seconds(m) + work.total_seconds();
  }

  /// Modeled epoch seconds when each overlapped region pays
  /// max(comm, compute) instead of comm + compute (see CostMeter's overlap
  /// accounting). Equals modeled_seconds when nothing was overlapped.
  /// Note: the per-region fold uses the machine the run was recorded with.
  double modeled_seconds_overlap(const MachineModel& m) const {
    return modeled_seconds(m) - comm.overlap_saved_seconds();
  }

  /// Collective: component-wise max over ranks (bulk-synchronous epochs
  /// are paced by the slowest rank), metered as control traffic.
  static EpochStats reduce_max(const EpochStats& mine, Comm& comm);
};

/// Interface shared by the distributed trainers. All methods are
/// *collective*: every rank of the world must call them in lockstep.
class DistTrainer {
 public:
  virtual ~DistTrainer() = default;

  /// One full-batch epoch (forward, loss, backward, SGD step). The returned
  /// loss/accuracy are global (already reduced).
  virtual EpochResult train_epoch() = 0;

  /// Stats of the most recent epoch (this rank's view).
  virtual const EpochStats& last_epoch_stats() const = 0;

  /// Collective: the most recent epoch's stats max-reduced over the world
  /// (bulk-synchronous epochs are paced by the slowest rank).
  virtual EpochStats reduce_epoch_stats() const = 0;

  /// Assemble the full output log-probability matrix H^L on every rank
  /// (control-category traffic; used for parity tests and inference).
  virtual Matrix gather_output() = 0;

  /// Replicated weight matrices (identical on every rank by construction).
  virtual const std::vector<Matrix>& weights() const = 0;

  /// Overwrite the replicated weights (checkpoint restore). Purely local,
  /// but every rank must install identical matrices or the replication
  /// invariant breaks; shapes must match the configured layers.
  virtual void set_weights(const std::vector<Matrix>& weights) = 0;

  /// Align the trainer's absolute-epoch counter after a checkpoint
  /// restore. Full-batch training is epoch-stateless (weights are the
  /// whole state), so the default is a no-op; the sampled trainer keys
  /// its shuffle and sampling RNG streams by absolute epoch, and restart
  /// bitwise-determinism requires resuming those streams at the restored
  /// epoch rather than zero. Purely local.
  virtual void set_start_epoch(int epoch) { (void)epoch; }
};

/// Helpers shared by the trainer implementations.
namespace dist {

/// Process-global switch for the epoch-invariant adjacency caches
/// (default on). When off, every epoch re-runs the epoch-1 communication
/// path; tests flip it to compare the cached and uncached paths
/// in-process. Not per-trainer state: flip it only between run_world
/// invocations.
bool epoch_cache_enabled();
void set_epoch_cache_enabled(bool on);

/// Process-global switch for compute/communication overlap (default on;
/// the CAGNET_OVERLAP env var, read once at startup, can preset it — "0",
/// "off", or "false" disable). When on, the SUMMA-style loops
/// double-buffer their stage broadcasts through the nonblocking layer and
/// the 1.5D replica reduction is overlapped with the next local multiply.
/// Losses, embeddings, and metered words/latency are bitwise identical in
/// both modes (tests/dist_test.cpp asserts it); only wall time and the
/// overlap accounting change. Not per-trainer state: flip it only between
/// run_world invocations.
bool overlap_enabled();
void set_overlap_enabled(bool on);

/// Process-global switch for the sparsity-aware halo exchange of the 1D /
/// 1.5D families (default off; the CAGNET_HALO env var, read once at
/// startup, can preset it — "1", "on", or "true" enable). When on, the
/// rows-whole forward SpMM replaces Algorithm 1's P dense broadcast
/// stages with an individualized request-and-send of exactly the remote
/// H rows the local A^T sparsity touches (metered as kHalo:
/// edgecut_P(A) * f words instead of n(P-1)/P * f), pipelined behind the
/// stage SpMMs in overlap mode (per-source drains; see
/// halo_spmm_pipeline), and the 1D / 1.5D backwards replace their
/// reduce-scatters with the symmetric contribution exchange when the
/// halo_backward_profitable gate passes. Losses, weights, and accuracy
/// are bitwise identical to the broadcast path (tests/halo_test.cpp
/// asserts it); only the metered volume drops. Not per-trainer state:
/// flip it only between run_world invocations.
bool halo_enabled();
void set_halo_enabled(bool on);

/// Process-global switch for sampled mini-batch training (default off;
/// the CAGNET_SAMPLE env var, read once at startup, can preset it — "1",
/// "on", or "true" enable). When on, DistEngine::train_epoch runs the
/// GraphSAGE-style sampled epoch (per-epoch shuffler, per-hop fanout
/// sampling from the local A^T stripe, minibatch halo exchanges of only
/// the sampled rows) instead of the full-batch epoch. Requires a
/// row-partitioned algebra exposing sample_comm(); others raise a typed
/// Error. Not per-trainer state: flip it only between run_world
/// invocations.
bool sample_enabled();
void set_sample_enabled(bool on);

/// Per-hop sampling fanouts, outermost hop first (default 15/10/5; the
/// CAGNET_SAMPLE_FANOUT env var can preset a comma list, with "inf" or
/// "all" for an uncapped hop). The sampled trainer validates the length
/// against the model's layer count. Flip only between run_world
/// invocations.
const std::vector<Index>& sample_fanouts();
void set_sample_fanouts(std::vector<Index> fanouts);

/// Sampled minibatch size over the labeled training vertices (default
/// 64; the CAGNET_SAMPLE_BATCH env var can preset it). Must be positive.
/// Flip only between run_world invocations.
Index sample_batch_size();
void set_sample_batch_size(Index batch);

/// stale_k() value selecting the adaptive per-peer refresh policy.
inline constexpr int kStaleAdaptive = -1;

/// Process-global bounded-staleness refresh interval of the halo forward
/// (default 0 = off; the CAGNET_STALE env var, read once at startup, can
/// preset it — a positive integer k, "adaptive", or "off"). k >= 2 keeps
/// each peer's received halo rows in a per-plan cache and re-exchanges
/// them every k epochs; skipped epochs replay the cached rows
/// allocation-free, charging zero kHalo latency/words (the avoided words
/// are credited to CostMeter::stale_saved_words). kStaleAdaptive tracks
/// the L2 delta of each peer's row block between refreshes and refreshes
/// fast-changing peers more often, inside [stale_min_k, stale_max_k].
/// 0 and 1 are the exact path verbatim — bitwise identical losses,
/// weights, and per-category meters (tests/stale_test.cpp asserts it).
/// Lossy for k >= 2: forward activations use rows up to k-1 epochs old
/// (the backward stays the exact gradient of that stale forward). The
/// cache is per-run transient state — never checkpointed; a restart
/// refreshes every peer on its first epoch (DESIGN.md "Adaptive
/// communication rates contract"). Requires CAGNET_HALO. Not per-trainer
/// state: flip it only between run_world invocations.
int stale_k();
void set_stale_k(int k);

/// Floor / ceiling of the adaptive per-peer refresh interval (defaults
/// 1 / 8; the CAGNET_STALE_MIN / CAGNET_STALE_MAX env vars can preset
/// them). Flip only between run_world invocations.
int stale_min_k();
int stale_max_k();
void set_stale_bounds(int min_k, int max_k);

/// Process-global switch for aggregation-before-communication on the halo
/// forward (default off; the CAGNET_PREAGG env var can preset it — "1",
/// "on", or "true" enable). When on, each (source, dest) pair whose A^T
/// coupling block has fewer distinct nonzero output rows than requested
/// source rows pre-reduces the requested rows through that block on the
/// sender, so one aggregated contribution row per (dest, out-row) crosses
/// the wire instead of every raw source row (the ABC pattern). Lossy only
/// in floating-point association order — deterministic for a fixed world,
/// but not bitwise the exact path. Composes with CAGNET_COMPRESS and
/// CAGNET_STALE. Requires CAGNET_HALO. Flip only between run_world
/// invocations.
bool preagg_enabled();
void set_preagg_enabled(bool on);

/// Row codec of one dense row exchange over `p` ranks (a halo exchange or
/// a backward reduce-scatter): the CAGNET_COMPRESS row mode, or off for a
/// one-rank exchange or an `exact` one (the input-aggregation fill).
CompressMode row_codec(int p, bool exact);

/// Reusable dense/staging buffers for the shared SUMMA helpers. One per
/// algebra instance; after the first epoch the hot path stops allocating.
/// The helpers never nest, so sharing the buffers between them is safe.
struct DistWorkspace {
  Matrix stage_recv;        ///< per-stage dense broadcast receive buffer
  Matrix stage_recv2;       ///< double-buffer partner of stage_recv (the
                            ///< overlapped loops receive stage k+1 here
                            ///< while stage k is still being consumed)
  Matrix w_block;           ///< partial-SUMMA weight sub-block
  Gathered<Real> gathered;  ///< all-gather staging
};

/// Epoch-invariant cache of the sparse blocks a SUMMA-style loop
/// receives. The adjacency never changes across epochs, so stage k of
/// epoch e > 1 re-receives exactly the block it deserialized in epoch 1;
/// after the first pass the blocks are served from memory and the
/// recorded epoch-1 CostMeter charges are replayed instead (all charges
/// are integer-valued in words/latency units, so replaying the summed
/// delta is bitwise-exact). Modeled communication volumes — the paper's
/// measurements — are therefore unchanged while the data movement,
/// deserialization, and allocation disappear.
struct SparseStageCache {
  bool ready = false;
  std::vector<Csr> blocks;      ///< per stage; unused when own_stage[k]
  std::vector<char> own_stage;  ///< stage roots keep using their own block
  /// Per-stage (rows, cols, nnz) header staging for the nonblocking CSR
  /// broadcasts: headers must outlive the loop (peers read a stage root's
  /// header at their own pace), so they live here rather than on the
  /// loop's stack. Rewritten only by the next uncached epoch, behind the
  /// stage-loop entry quiesce.
  std::vector<std::array<Index, 3>> headers;
  CostMeter charges;            ///< epoch-1 sparse charges to replay
};

/// Epoch-invariant cache of a distributed-transpose pair: after epoch 1
/// the materialized A block is kept across epochs and begin/end_backward
/// only replay their recorded charges.
struct TransposeCache {
  bool ready = false;
  CostMeter begin_charges;
  CostMeter end_charges;
};

/// Epoch-invariant cache of the input aggregation T^1 = A^T H^0, owned by
/// each algebra behind its spmm_at. H^0 = X never changes, so neither does
/// T^1: the first armed spmm_at (the fill) aggregates it exactly and keeps
/// this rank's completed block, and every later armed call (a hit) serves
/// a copy instead of aggregating and moving it again. The protocol:
///
///   - begin_epoch calls arm(): the next spmm_at multiplies H^0.
///   - spmm_at calls take_armed(h) first; false means a hidden layer.
///   - On an armed call with ready(), serve(t) (after the path's release
///     point) and return.
///   - Otherwise the armed call aggregates exactly — no row codec, no
///     stale replay, so no lossy T^1 is frozen for the run — and hands
///     the completed block to fill(): at the end of spmm_at, or (1.5D
///     overlap mode) in times_weight, where the team all-reduce lands.
///
/// Metering: the fill charges its traffic once, live; hits charge
/// nothing and nothing is replayed (unlike SparseStageCache), so epoch 1
/// meters exactly what an uncached epoch does and later epochs meter
/// exactly the layer-1 forward charges less (the term cost_*_steady drops
/// from the closed forms). Not
/// gated by epoch_cache_enabled and not checkpointed: a fresh engine
/// refills on its first epoch, bitwise the same block.
class InputAggCache {
 public:
  void arm() { armed_ = true; }
  /// Consume the arming: true when this call multiplies H^0. Records h's
  /// shape and storage for the fill, or, once ready, checks that h is
  /// the block the cache was filled from (a typed Error otherwise, never
  /// a stale T).
  bool take_armed(const Matrix& h);
  bool ready() const { return ready_; }
  /// Copy the cached block into t, row blocks on the persistent pool.
  /// `release` (may be null) is the communicator whose nonblocking
  /// readers may still hold t; in overlap mode it is quiesced first.
  void serve(Matrix& t, Comm* release, Profiler& profiler) const;
  /// Keep the completed T^1 block of the armed call.
  void fill(const Matrix& t);

 private:
  bool armed_ = false;
  bool ready_ = false;
  const Real* h_data_ = nullptr;
  Index h_rows_ = 0;
  Index h_cols_ = 0;
  Matrix t_;
};

/// quiesce() a communicator without propagating abort errors — the
/// building block of DistSpmmAlgebra::drain overrides (no-op on invalid
/// Comms, so never-initialized sub-communicators are safe to pass).
void drain_comm(const Comm& comm) noexcept;

/// Demand-driven halo exchange plan of the rows-whole (1D / 1.5D)
/// families, built once per algebra from the local A^T sparsity and
/// cached across epochs and layers (the analogue of the SUMMA epoch
/// cache). Lifecycle:
///
///   1. *Build* (collective, constructor time): each rank scans its A^T
///      blocks for the distinct peer-local columns they touch (`need`),
///      compacts each block to those columns (Csr::with_remapped_columns),
///      and runs one index alltoallv so every rank learns which of its
///      rows each peer requests (`send`). The index exchange is one-time
///      setup, charged as kControl.
///   2. *Epoch replay*: every forward layer packs the `send` rows of H
///      (threaded on the persistent pool, Phase::kHaloPack) and exchanges
///      them (kHalo; edgecut words). The backward reuses the same plan
///      mirrored — contributions travel along need-rows and land on
///      send-rows. Nothing is rebuilt; the staging buffers are reused
///      allocation-free.
///   3. *Pipeline + release*: in overlap mode the exchange posts through
///      ialltoallv_post and each peer's rows are drained — zero-copy,
///      straight from the peer's pack buffer — exactly when the stage
///      that multiplies them runs (PendingOp::await_source), so the
///      self-block SpMM and every earlier stage execute while later
///      peers' rows are still in flight. Pack staging is double-buffered:
///      exchange k packs into buffer k % 2 after quiescing the op that
///      used that buffer two exchanges ago (quiesce_op) — a release peers
///      finished a whole layer earlier, off the critical path. Blocking
///      mode needs no release (a blocking collective returns only once
///      every peer has completed it) and keeps the one-shot
///      alltoallv_into.
struct HaloPlan {
  bool ready = false;
  /// Forward receives: rows obtained from each source, ascending peer
  /// order. need_rows are peer-local row indices; need_rows_global adds
  /// the peer row offsets (indices into an n-row matrix, the 1D backward
  /// pack addressing).
  std::vector<std::size_t> recv_row_offsets;  ///< P+1
  std::vector<Index> need_rows;
  std::vector<Index> need_rows_global;
  /// Forward sends: this rank's local row indices each destination
  /// requested.
  std::vector<std::size_t> send_row_offsets;  ///< P+1
  std::vector<Index> send_rows;
  /// Column-compacted A^T blocks (self and absent peers left empty; the
  /// self stage multiplies the rank's own uncompacted block against H).
  std::vector<Csr> blocks;
  /// One half of the double-buffered pack staging (see the release
  /// discipline above). Peers read send_buf and send_elem_offsets at
  /// their own drains, so a buffer may be rewritten only after its
  /// recorded op is globally finished.
  struct PackBuf {
    Matrix send_buf;
    std::vector<std::size_t> send_elem_offsets;  ///< P+1, rebuilt per use
    /// Compressed-payload staging (CAGNET_COMPRESS=fp16/int8): the exact
    /// pack above is re-encoded per destination chunk into send_bytes,
    /// and the byte offsets replace the element offsets on the wire.
    /// Same release discipline as send_buf (peers read it at their
    /// drains).
    std::vector<std::uint8_t> send_bytes;
    std::vector<std::size_t> send_byte_offsets;  ///< P+1
    std::uint64_t release_ticket = 0;
    bool has_release = false;
  };
  std::array<PackBuf, 2> pack;
  int next_pack = 0;          ///< which PackBuf the next exchange claims
  Gathered<Real> recv;        ///< blocking-mode receive staging
  Gathered<std::uint8_t> recv_bytes;  ///< compressed blocking staging
  /// Decode target for compressed halo rows: the forward decodes each
  /// peer's chunk at recv_row_offsets[j]*f; the backward at
  /// land_row_offsets[r]*f. Sized by the caller before the sweep.
  std::vector<Real> recv_decode;

  /// Bounded-staleness refresh state (CAGNET_STALE; armed per epoch by
  /// halo_begin_epoch, consumed by halo_spmm_pipeline). The cache holds
  /// the *landed* rows of each forward exchange — one slot per forward
  /// layer, laid out at the exchange's effective receive offsets — so a
  /// skipped epoch replays them through the identical accumulation
  /// without touching the wire. Per-run transient: never checkpointed,
  /// and a rebuilt world starts invalid (uniform refresh on the first
  /// epoch).
  struct StaleState {
    bool active = false;      ///< cache machinery armed for this epoch
    bool epoch_skip = false;  ///< fixed mode: replay every peer, no exchange
    bool use_eff = false;     ///< adaptive: ship the thinned send set
    int cur_slot = 0;         ///< forward-exchange slot of the current call
    /// Stale-eligible forward exchanges begun this epoch (the exact
    /// input-aggregation fill is not one; see halo_spmm_pipeline).
    int layer = 0;
    int filled_epoch = -1;    ///< fixed mode: epoch of the last refresh
    int prev_epoch = -1;      ///< adaptive: epoch of the previous arm
    std::vector<char> valid;       ///< per source: cache slice filled
    std::vector<char> recv_fresh;  ///< per source: refresh this epoch
    std::vector<char> send_fresh;  ///< per dest: dest wants fresh rows
    /// Thinned send set of the current adaptive epoch (refreshing dests'
    /// send_rows chunks concatenated; zero-length chunks for skipped
    /// dests keep the collective in lockstep while the words drop).
    std::vector<Index> eff_send_rows;
    std::vector<std::size_t> eff_send_row_offsets;  ///< P+1
    std::vector<std::vector<Real>> cache;  ///< landed rows per slot
    std::vector<Index> cache_f;            ///< feature width per slot
    /// Adaptive accumulators: sum ||new-old||^2 and ||new||^2 over a
    /// refresh epoch's layers (delta_sq < 0 flags a first fill with no
    /// baseline), folded into per-peer next_refresh at the next arm.
    std::vector<double> delta_sq;
    std::vector<double> norm_sq;
    std::vector<int> next_refresh;  ///< absolute epoch of the next refresh
    std::vector<Index> want_flags;  ///< adaptive flag-exchange send staging
    std::vector<std::size_t> flag_offsets;  ///< P+1, one flag per dest
    Gathered<Index> peer_wants;     ///< adaptive flag-exchange receives
  };
  StaleState stale;

  /// Aggregation-before-communication plan (CAGNET_PREAGG; built once by
  /// build_preagg_plan next to the halo plan). Both endpoints of a
  /// (source, dest) pair derive the same structural decision from the
  /// same A^T coupling block — aggregate exactly when the block has
  /// fewer distinct nonzero output rows than requested source rows — so
  /// no control traffic is needed and the effective wire layout is
  /// rank-consistent by construction.
  struct PreAggPlan {
    bool active = false;         ///< any pair aggregates
    std::vector<char> agg_send;  ///< per dest: this rank pre-reduces
    std::vector<char> agg_recv;  ///< per source: rows land pre-reduced
    /// Per aggregating dest: the dest's A^T coupling segment compacted to
    /// its nonzero output rows (columns stay rank-local H indices), the
    /// operator of the sender-side partial SpMM.
    std::vector<Csr> seg;
    std::vector<std::size_t> stage_row_offsets;    ///< P+1, full refresh
    std::vector<std::size_t> epoch_stage_offsets;  ///< P+1, this epoch
    std::vector<Index> stage_rows;  ///< iota pack indices into stage
    Matrix stage;                   ///< staged outgoing rows (agg + raw)
    /// Per aggregating source: the local T rows its pre-reduced rows
    /// scatter-add onto (ascending; chunked by agg_land_offsets).
    std::vector<Index> agg_land_rows;
    std::vector<std::size_t> agg_land_offsets;      ///< P+1
    std::vector<std::size_t> eff_recv_row_offsets;  ///< P+1 landed rows
  };
  PreAggPlan preagg;
};

/// The (parts+1) partition-aware block boundaries of `problem` for a
/// family splitting rows into `parts` blocks (DistProblem::row_range
/// semantics: the partition's own offsets when aligned, even block_range
/// otherwise). Shared by the 1D (parts = P) and 1.5D (parts = G)
/// constructors.
std::vector<Index> row_starts(const DistProblem& problem, int parts);

/// Build `plan` from this rank's A^T blocks: `block_of(j)` returns the
/// (local_rows x peer_rows(j)) block of peer j's columns, or nullptr when
/// no rows are needed from j (1.5D off-stripe peers); `self` is this
/// rank's index in `comm` (its own block is never exchanged);
/// `peer_row_lo(j)` is peer j's first global row. Collective over `comm`;
/// the index request-and-send is charged as kControl.
void build_halo_plan(const std::function<const Csr*(int)>& block_of,
                     int self, const std::function<Index(int)>& peer_row_lo,
                     Comm& comm, HaloPlan& plan);

/// Arm (or disarm) the plan's bounded-staleness state for one epoch,
/// called by the algebra's begin_epoch hook before the first forward
/// exchange. Fixed mode (stale_k() >= 2) decides refresh-vs-replay from
/// the absolute epoch and the plan's last refresh epoch — both evolve
/// identically on every rank, so skip epochs can elide the collective
/// entirely. Adaptive mode folds the previous refresh's L2 deltas into
/// per-peer intervals, exchanges one want-flag per peer (kControl, the
/// only adaptive control traffic), and thins the send set to the
/// refreshing destinations; the exchange itself stays in lockstep with
/// zero-length chunks for skipped pairs. epoch < 0 disarms (exact path;
/// used by out-of-band forwards like gather_output). No-op state when
/// stale is off, k == 1, the plan is not ready, or p == 1.
void halo_begin_epoch(int epoch, bool halo_active, Comm& comm,
                      HaloPlan& plan);

/// Build the plan's aggregation-before-communication side tables from the
/// global A^T (`at`): `peer_rows(j)` returns peer j's [row_lo, row_hi)
/// global output-row range, [my_row_lo, my_row_hi) is this rank's H-row
/// range, `self` its index in the plan's communicator. Purely local —
/// sender and receiver of each pair inspect the same coupling block and
/// reach the same decision. Leaves preagg.active false when no pair
/// profits. Call after build_halo_plan, once, at construction.
void build_preagg_plan(const Csr& at,
                       const std::function<std::pair<Index, Index>(int)>&
                           peer_rows,
                       Index my_row_lo, Index my_row_hi, int self,
                       HaloPlan& plan);

/// Collective profitability gate of the mirrored backward contribution
/// exchange: the exchange lands per-peer contribution rows (the plan's
/// send side) instead of a pre-reduced chunk, paying pack + scatter-add
/// host work per landed row — a win only when the structural sparsity
/// actually shrinks the volume. Returns true when the busiest rank's
/// landed rows stay under half the reduce-scatter's per-rank row charge
/// (`rs_rows`), max-reduced over `comm` so the decision is rank-uniform
/// (collective order depends on it). One-time setup traffic (kControl).
bool halo_backward_profitable(std::size_t landed_rows, double rs_rows,
                              Comm& comm);

/// Begin one halo exchange: claim the plan's next pack buffer (quiescing
/// the op that last used it — two exchanges stale, so the release has
/// left the critical path), pack the rows of `src` listed in (`rows`,
/// `row_offsets`) on the persistent pool (Phase::kHaloPack), and ship
/// them. In overlap mode the exchange is posted through ialltoallv_post
/// and the returned pending op is the drain handle (per-source zero-copy
/// views; the caller must wait() it after draining). In blocking mode the
/// exchange completes here into plan.recv and the returned op is empty.
/// Charges are identical either way, applied to `cat`. `exact` ships the
/// rows uncoded even under a lossy row codec (the input-aggregation fill).
PendingOp halo_exchange_begin(const Matrix& src, std::span<const Index> rows,
                              std::span<const std::size_t> row_offsets,
                              Comm& comm, HaloPlan& plan, CommCategory cat,
                              Profiler& profiler, bool exact = false);

/// The pipelined halo forward of the rows-whole families: one exchange of
/// the plan's send rows of `h` plus the stage sweep, accumulating into
/// `t` in ascending peer order — bitwise the broadcast loops'
/// accumulation. The self stage (j == self) multiplies the rank's own
/// uncompacted block (`self_block`; null when this rank's block is not a
/// stage, as for 1.5D non-keepers) against `h` and waits on nothing;
/// each remote stage drains exactly its peer's packed rows as they land
/// (overlap mode: zero-copy from the peer's staging, charges applied at
/// the drain) and multiplies the plan's compacted block. Every drain is
/// recorded as one CostMeter overlap region paired against the previous
/// stage's SpMM, so halo mode reports nonzero overlap_regions. Shared by
/// the 1D (comm = world) and 1.5D (comm = slice) forwards.
///
/// `exact` (the input-aggregation fill, see InputAggCache) bypasses the
/// row codec and the bounded-staleness state: it ships the full send set
/// and claims no stale cache slot. Stale slots are therefore keyed by
/// forward layer — slot s serves layer s + 2 — since layer 1 is the exact
/// fill in its first epoch and a cache hit, with no exchange, after it.
void halo_spmm_pipeline(const Matrix& h, const Csr* self_block, int self,
                        Comm& comm, HaloPlan& plan, CommCategory cat,
                        const MachineModel& machine, EpochStats& stats,
                        Matrix& t, bool exact);

/// The stage sweep of halo_spmm_pipeline alone, against an exchange the
/// caller already began (`op` from halo_exchange_begin on the same plan;
/// empty in blocking mode, where the rows sit in plan.recv). Splitting
/// the begin from the sweep lets the sampled minibatch trainer post the
/// next batch's feature exchange a whole compute phase early while
/// keeping the drain/accumulation discipline — ascending peer order,
/// per-source zero-copy drains, one overlap region per stage — in one
/// place. halo_spmm_pipeline is exactly begin + this sweep; `exact`
/// must match the begin's.
void halo_spmm_sweep(PendingOp& op, const Matrix& h, const Csr* self_block,
                     int self, Comm& comm, HaloPlan& plan,
                     const MachineModel& machine, EpochStats& stats,
                     Matrix& t, bool exact = false);

/// The mirrored backward contribution exchange: pack `pack_rows` of
/// `partial` (the structurally nonzero remote contribution rows), ship
/// them along the plan, and accumulate into `u` in ascending peer order —
/// bitwise the reduce-scatter it replaces (skipped rows are exact +0.0
/// terms). The self term adds `partial` rows [self_row0, self_row0 +
/// u.rows()) when `self_partial` is true (1D always; 1.5D only on
/// keepers); remote peers' landed rows scatter-add onto `land_rows`
/// (chunked by `land_row_offsets`), threaded on the pool — rows within a
/// peer are distinct, so chunked writes stay disjoint and deterministic.
/// Overlap mode drains per peer with the same chunk-drain overlap
/// accounting as the forward. Shared by the 1D (full plan mirror) and
/// 1.5D (stripe-stacked pack rows) backwards.
void halo_exchange_contributions(
    const Matrix& partial, std::span<const Index> pack_rows,
    std::span<const std::size_t> pack_row_offsets, bool self_partial,
    Index self_row0, std::span<const Index> land_rows,
    std::span<const std::size_t> land_row_offsets, int self, Comm& comm,
    HaloPlan& plan, CommCategory cat, const MachineModel& machine,
    EpochStats& stats, Matrix& u);

/// Global mean NLL loss and accuracy from a local row block of output
/// log-probabilities. `row_lo` is the first global row of the block.
/// Reduces (loss_sum, hits, labeled) across ranks as control traffic.
/// In overlap mode pass `scratch` — persistent storage (e.g. engine-owned)
/// for the nonblocking reduction's (src, dst) pairs — and quiesce `comm`
/// before the next call overwrites it; with scratch == nullptr the
/// reduction is the blocking all-reduce. Charges are identical.
EpochResult reduce_loss_accuracy(const Matrix& local_log_probs, Index row_lo,
                                 const std::vector<Index>& labels,
                                 Index labeled_count, Comm& comm,
                                 std::array<double, 4>* scratch = nullptr);

/// dL/d(H^L) for the local row block under global-mean NLL.
Matrix local_nll_gradient(const Matrix& local_log_probs, Index row_lo,
                          const std::vector<Index>& labels,
                          Index labeled_count);

/// Average degree of a CSR block (nnz / rows), guarding empty blocks.
double block_degree(const Csr& block);

/// Broadcast a CSR block from `root` within `comm` without staging
/// copies: the root publishes straight from `mine`'s arrays and returns
/// `mine`; every other rank receives into `recv` (reusing its buffers,
/// non-roots pass nullptr for `mine`) and returns `&recv`. Traffic
/// (indices + values) is charged to `cat`; this is the SUMMA
/// sparse-broadcast primitive.
const Csr* broadcast_csr(const Csr* mine, Csr& recv, int root, Comm& comm,
                         CommCategory cat);

/// One dense SUMMA broadcast stage without staging copies: the stage root
/// (comm rank `root`) publishes `mine` directly and returns it; every
/// other rank receives a (rows x cols) block into `recv` (storage reused)
/// and gets `&recv`. Shared by every dense broadcast loop (1D stages,
/// 1.5D stripes, 2D/3D SUMMA stages, partial SUMMA).
const Matrix* broadcast_dense_stage(const Matrix& mine, Matrix& recv,
                                    Index rows, Index cols, int root,
                                    Comm& comm, CommCategory cat);

/// Nonblocking counterpart of broadcast_dense_stage: post() ships the
/// stage without a staging copy and without blocking; wait() completes the
/// receive and returns the usable block (the root's own `mine`, or
/// `recv`). Charges are identical to the blocking form, applied at wait.
/// `mine` (root) and `recv` (everyone else) must stay valid and unmodified
/// until every rank of `comm` has waited.
class PendingDenseStage {
 public:
  void post(const Matrix& mine, Matrix& recv, Index rows, Index cols,
            int root, Comm& comm, CommCategory cat);
  const Matrix* wait();

 private:
  PendingOp op_;
  const Matrix* result_ = nullptr;
};

/// Nonblocking counterpart of broadcast_csr, pipelined in two steps
/// because the receivers cannot size their buffers until the (rows, cols,
/// nnz) header lands: post_header() ships the header; post_parts() —
/// which first completes the header — sizes `recv` and posts the
/// row_ptr/col_idx/values payloads; wait() completes them and returns the
/// usable block (the root's `mine`, or `recv`). The SUMMA loops post the
/// header two stages ahead and the payloads one stage ahead, so the bulk
/// arrays are always in flight behind a whole local SpMM. Charges are
/// identical to broadcast_csr, applied as each piece is waited.
class PendingCsrBcast {
 public:
  /// `mine` non-null exactly on the root; `recv` is the receive block
  /// whose storage is reused (roots may pass their own cache slot — it is
  /// left untouched); `header` is caller-owned (rows, cols, nnz) staging
  /// that must stay valid until the communicator's release point — stack
  /// storage is NOT enough, since the root's wait is passive and peers
  /// read the header at their own pace (SparseStageCache::headers is the
  /// loop's stable slot for it).
  void post_header(const Csr* mine, Csr& recv, std::array<Index, 3>& header,
                   int root, Comm& comm, CommCategory cat);
  /// Complete the header, size the receive buffers, post the payloads.
  void post_parts();
  /// Complete the payloads; returns the usable block.
  const Csr* wait();

 private:
  std::array<Index, 3>* header_ = nullptr;  ///< caller-owned staging
  PendingOp header_op_;
  PendingOp parts_[3];
  const Csr* mine_ = nullptr;
  Csr* recv_ = nullptr;
  Comm* comm_ = nullptr;
  CommCategory cat_ = CommCategory::kSparse;
  int root_ = 0;
  int stage_ = 0;  ///< 0 idle, 1 header posted, 2 payloads posted
};

/// Bookkeeping for CostMeter's overlap accounting in the double-buffered
/// loops: open() marks the start of one overlapped compute block, close()
/// ends it, pairing the modeled local-kernel seconds recorded by `work`
/// in between against the comm charged to `meter` in the same window.
/// The loops call close() right after the waits of stage k+1 (whose
/// charges are the comm that was in flight) and open() right before the
/// stage-k+1 compute, so each region is exactly one stage of overlap.
class OverlapScope {
 public:
  OverlapScope(CostMeter& meter, const WorkMeter& work,
               const MachineModel& machine)
      : meter_(meter), work_(work), machine_(machine) {}
  ~OverlapScope() { close(); }

  OverlapScope(const OverlapScope&) = delete;
  OverlapScope& operator=(const OverlapScope&) = delete;

  void open() {
    meter_.begin_overlap_region();
    work_mark_ = work_.total_seconds();
    open_ = true;
  }
  void close() {
    if (!open_) return;
    meter_.end_overlap_region(machine_, work_.total_seconds() - work_mark_);
    open_ = false;
  }

 private:
  CostMeter& meter_;
  const WorkMeter& work_;
  MachineModel machine_;
  double work_mark_ = 0;
  bool open_ = false;
};

/// The generic dense double-buffer pipeline behind every overlapped
/// broadcast-stage loop: posts stage 0, then for each stage waits its
/// panel, closes the overlap region (so the charges of the waits are
/// paired with the previous stage's compute), posts stage s+1 into the
/// other receive buffer, reopens the region, and runs `compute_stage`.
/// `post_stage(s, dn, recv)` must post stage s's broadcast on `dn`
/// receiving into `recv`; `compute_stage(s, block)` consumes the stage.
/// Keeping the close/post/open ordering in one place keeps the overlap
/// accounting invariant from drifting between the loops. (The 2D/3D
/// summa_stage_loop keeps its own interleaved variant because sparse
/// pipelining is threaded through the same iteration.)
void overlapped_dense_stages(
    int stages,
    const std::function<void(int, PendingDenseStage&, Matrix&)>& post_stage,
    const std::function<void(int, const Matrix*)>& compute_stage,
    Matrix& recv0, Matrix& recv1, CostMeter& meter, const WorkMeter& work,
    const MachineModel& machine, Profiler& profiler);

/// The shared SUMMA accumulation loop of the 2D and 3D algebras: for each
/// stage s, the stage-root's sparse block travels along `sparse_comm`
/// (kSparse; received into and cached by `cache`, replayed from it in
/// cached epochs) and the stage-root's dense block — (stage_rows(s) x
/// my_dense.cols()), root s — travels along `dense_comm` (kDense); the
/// local SpMM of stage 0 writes `acc` (every stage block spans all of its
/// rows, so it needs no zero fill) and later stages accumulate into it.
/// `stages` must be at least 1. With overlap enabled, stage s+1's
/// sparse payloads and dense panel are posted through the nonblocking
/// layer before stage s's SpMM runs (the CSR header travels two stages
/// ahead), cached blocks are served from the same buffers the prefetch
/// lands in, and every stage is recorded as one overlap region. Metered
/// charges are identical in both modes, in the same per-category order.
void summa_stage_loop(const Csr& my_sparse, SparseStageCache& cache,
                      Comm& sparse_comm, const Matrix& my_dense,
                      Comm& dense_comm,
                      const std::function<Index(int)>& stage_rows,
                      int stages, Matrix& acc, const MachineModel& machine,
                      EpochStats& stats, DistWorkspace& ws);

struct PendingGradReduce;

/// Complete a rows-whole weight gradient: move the (f_in x f_out) local
/// partial into `y_full` (buffer swap, no copy) and all-reduce it over
/// `comm`, leaving Y replicated. Shared by the 1D and 1.5D algebras.
/// Under CAGNET_COMPRESS != off the all-reduce runs through the lossy
/// codec with error feedback; `pending` owns the per-layer residual
/// stores (layer order is the call order within an epoch, so each
/// layer's residual is continuous across epochs).
void allreduce_weight_gradient(Matrix& y_partial, Index f_in, Index f_out,
                               Comm& comm, Profiler& profiler,
                               PendingGradReduce& pending, Matrix& y_full);

/// Pairwise CSR exchange with `peer` (the distributed-transpose primitive:
/// rank (i,j) swaps blocks with rank (j,i) and locally transposes).
Csr exchange_csr(const Csr& mine, int peer, Comm& comm, CommCategory cat);

/// Permutation-route a CSR block to `dest` (see Comm::route).
Csr route_csr(const Csr& mine, int dest, Comm& comm, CommCategory cat);

/// Row-wise all-gather of feature slices into full rows: `local` is this
/// rank's (rows x w_j) slice, `parts` ranks along `row_comm` each hold the
/// block_range(full_cols, parts, j) slice. Assembles into `full` (storage
/// reused) via the workspace. Charges kDense. Shared by the 2D and 3D
/// families (log-softmax rows and the U reuse).
void allgather_feature_rows(const Matrix& local, Index full_cols, int parts,
                            Comm& row_comm, Profiler& profiler,
                            DistWorkspace& ws, Matrix& full);

/// Complete a weight gradient from per-rank slice partials: sum `y_slice`
/// (a feat_slice(f_in) x f_out partial, consumed as scratch) over
/// `reduce_comm`, then all-gather the reduced slices along `row_comm`
/// (`parts` ranks, rank j holding block_range(f_in, parts, j)) into the
/// fully replicated (f_in x f_out) gradient `y` (storage reused). Shared
/// by the 2D and 3D families.
void assemble_weight_gradient(Matrix& y_slice, Index f_in, Index f_out,
                              int parts, Comm& reduce_comm, Comm& row_comm,
                              Profiler& profiler, DistWorkspace& ws,
                              PendingGradReduce& pending, Matrix& y);

/// Per-epoch state of the deferred (overlap-mode) gradient reductions:
/// one entry per layer, all storage reused across epochs. The begin_/
/// finish_ helpers below implement DistSpmmAlgebra::begin_reduce_gradients
/// / finish_gradients for the two layout families, so the reductions are
/// in flight behind the remaining backward layers.
struct PendingGradReduce {
  std::vector<Matrix> src;                 ///< staged partials (per layer)
  std::vector<Matrix> reduced;             ///< slice-family reduce targets
  /// Slice-family gather staging. unique_ptr: in-flight gathers hold the
  /// slot's address, which must survive the vector growing more slots.
  std::vector<std::unique_ptr<Gathered<Real>>> gathered;
  std::vector<PendingOp> ops;              ///< in-flight reductions
  std::vector<PendingOp> gather_ops;       ///< slice-family gathers
  std::vector<Matrix*> targets;            ///< y_full per layer
  std::vector<std::pair<Index, Index>> dims;  ///< (f_in, f_out) per layer
  std::size_t count = 0;                   ///< layers posted this epoch
  /// Compressed-path state (CAGNET_COMPRESS != off). One CompressBuf per
  /// layer, error feedback on: the residual store is the codec's memory
  /// across epochs, so slot i must always serve the same layer.
  /// unique_ptr for address stability while in-flight ops hold the slot.
  std::vector<std::unique_ptr<CompressBuf>> cbufs;
  std::vector<PendingCompressedReduce> cops;  ///< in-flight compressed ops
  std::size_t ccount = 0;                  ///< compressed layers posted
  /// Targeted release of the previous cycle's staged sends: the ticket of
  /// the last op waited at finish. Every rank waits its cycle's ops in
  /// posting order, so that op being globally finished implies every
  /// rank's reads of every staged src / encoded send of the cycle are
  /// done. quiesce_op on it at the next cycle's first begin releases the
  /// slots without waiting unrelated in-flight ops (the sampled trainer
  /// deliberately keeps the next minibatch's feature exchange pending
  /// across this point; a global quiesce would deadlock on it).
  std::uint64_t release_ticket = 0;
  bool has_release = false;

  /// Grow-once residual slot for layer `i` (error feedback enabled).
  CompressBuf& compress_slot(std::size_t i) {
    if (cbufs.size() <= i) cbufs.resize(i + 1);
    if (!cbufs[i]) {
      cbufs[i] = std::make_unique<CompressBuf>();
      cbufs[i]->error_feedback = true;
    }
    return *cbufs[i];
  }
};

/// Rows-whole family (1D / 1.5D) deferred gradient reduction: stage a
/// copy of `y_partial` (releasing it immediately) and post its
/// nonblocking all-reduce straight into `y_full`; the finish form waits
/// every posted op. Charges are identical to allreduce_weight_gradient.
void begin_allreduce_weight_gradient(Matrix& y_partial, Index f_in,
                                     Index f_out, Comm& comm,
                                     Profiler& profiler,
                                     PendingGradReduce& pending,
                                     Matrix& y_full);
void finish_allreduce_weight_gradient(Profiler& profiler,
                                      PendingGradReduce& pending);

/// Slice family (2D / 3D) deferred gradient assembly: stage a copy of
/// `y_slice` and post its nonblocking sum over `reduce_comm`; the finish
/// form completes each reduction, all-gathers the reduced slices along
/// `row_comm`, and unpacks into the recorded y_full targets. Charges are
/// identical to assemble_weight_gradient.
void begin_assemble_weight_gradient(Matrix& y_slice, Index f_in,
                                    Index f_out, Comm& reduce_comm,
                                    Profiler& profiler,
                                    PendingGradReduce& pending,
                                    Matrix& y_full);
void finish_assemble_weight_gradient(int parts, Comm& row_comm,
                                     Profiler& profiler,
                                     PendingGradReduce& pending);

/// Partial SUMMA Z = T W with W replicated: only T moves, broadcast along
/// `row_comm` (`parts` ranks; this rank is column `my_col` and contributes
/// `t`, its local feat_slice of T). Writes this rank's Z slice
/// (t.rows() x block_range(w.cols(), parts, my_col) width) into `z`
/// (storage reused). Shared by the 2D and 3D families ("partial SUMMA" /
/// "partial Split-3D-SpMM").
void partial_summa_times_weight(const Matrix& t, const Matrix& w, int parts,
                                int my_col, Comm& row_comm,
                                const MachineModel& machine,
                                EpochStats& stats, DistWorkspace& ws,
                                Matrix& z);

}  // namespace dist

}  // namespace cagnet
