// Simulated message-passing runtime.
//
// This is the repo's stand-in for torch.distributed/NCCL on Summit (see
// DESIGN.md, "Substitutions"). A *world* of P ranks runs as P threads in one
// process. A Comm exposes MPI-flavoured collectives whose semantics match
// the operations the paper's algorithms are written in terms of: broadcast,
// all-reduce, reduce-scatter, all-gather(v), and pairwise exchange. Data is
// genuinely moved between rank-private buffers (so algorithm correctness is
// real), and every operation charges its textbook alpha-beta cost to the
// rank's CostMeter (so communication volumes are real too).
//
// Contract (same as MPI): a collective must be invoked by every member of
// the communicator, in the same program order. All spans must stay alive
// until the call returns.
//
// One engine carries every collective. The i-prefixed collectives
// (ibroadcast_from, ireduce_scatter_sum, iallgatherv_into, iallreduce_sum,
// ialltoallv_*) post immediately and return a PendingOp whose wait()
// completes the data movement and the meter charge. Posts must follow the
// same program order on every rank; waits may be out of order. Between
// post and wait a rank may compute and may run other collectives (blocking
// or nonblocking) on any communicator — this is what the SUMMA
// double-buffering in src/core/ exploits. A blocking collective is the
// same post, waited at once and released before it returns, on a
// dedicated channel of its own, so it never takes a ticket from the
// nonblocking ring. See DESIGN.md, "Nonblocking runtime and overlap
// accounting".
#pragma once

#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/comm/contract_check.hpp"
#include "src/comm/costmeter.hpp"
#include "src/comm/fault.hpp"
#include "src/util/error.hpp"
#include "src/util/types.hpp"

namespace cagnet {

class Profiler;  // src/util/profiler.hpp; compressed collectives time
                 // their codec work under Phase::kCompressPack
class PendingOp;

/// ceil(log2(p)) with ceil_log2(1) == 0: the latency factor of a
/// tree-structured collective.
double ceil_log2(int p);

namespace detail {

/// Channels per communicator for nonblocking collectives; also the cap on
/// posted-but-unwaited operations per rank (posting more is diagnosed, not
/// deadlocked). Each communicator has one more channel, the blocking lane
/// at index kAsyncChannels, outside this ring.
inline constexpr int kAsyncChannels = 16;

/// Which collective a channel generation carries; published per rank so
/// mismatched program order is diagnosed at wait().
enum class OpKind : std::uint8_t {
  kNone = 0,
  kBcast,
  kReduceScatter,
  kAllgatherv,
  kAllreduce,
  kAllreduceMax,
  kAlltoallv,
  kRoute,    ///< root carries the rank's destination
  kBarrier,  ///< publishes nothing
};

/// Display name of an op kind (diagnostics and CommAborted).
const char* op_kind_name(OpKind kind);

/// Which channel a post rides and what it reports.
enum class Lane : std::uint8_t {
  kRing,        ///< nonblocking: ring ticket, 16-in-flight budget, checker
  kBlocking,    ///< blocking collective: the dedicated channel; seam
                ///< events and charges like any op, no checker ledger
  kRendezvous,  ///< barrier / split: the dedicated channel; seam-silent
                ///< and uncharged
};

/// What one post publishes and where its completion writes. Built by each
/// collective entry point; kept by the PendingOp it arms.
struct PostArgs {
  OpKind kind = OpKind::kNone;
  const void* ptr = nullptr;   ///< published source
  const void* ptr2 = nullptr;  ///< alltoallv per-destination offsets
  std::size_t len = 0;         ///< published element count
  int root = 0;                ///< broadcast root / route destination
  void* out = nullptr;  ///< this rank's destination: T* (broadcast,
                        ///< reductions), Gathered<T>* (allgatherv,
                        ///< alltoallv; null for a per-source drain), or
                        ///< std::vector<T>* (route)
  std::size_t src_len = 0;  ///< reduce-scatter contribution length
  void (*complete)(PendingOp&) = nullptr;  ///< typed movement + charge
};

/// Identity of the operation a seam event or abort belongs to: the
/// observing rank, the traffic category, and the op's display name. Built
/// once per collective call and threaded through the publish/await/charge
/// hooks and every abort throw, so a CommAborted always names rank, phase,
/// and op kind no matter where the unwind started.
struct OpContext {
  int rank;
  CommCategory cat;
  const char* op;
};

/// Throw the peer-failure form of CommAborted: the world died under this
/// rank while it was inside `ctx`'s operation.
[[noreturn]] void throw_peer_aborted(const OpContext& ctx, FaultSite site);

/// Rendezvous state of one channel. Channels are recycled in generations:
/// the ring op with ticket T uses channel T % K at generation T / K, and
/// the blocking lane runs generation T for its T-th op. `posted` and
/// `finished` count cumulatively across generations; generation G's
/// payload is readable once posted reaches
/// size*(G+1), and the channel is recyclable for G+1 once finished reaches
/// size*(G+1). Slot writes happen-before the posting increment (release)
/// and slot reads happen-before the finishing increment, so recycling
/// never races with a straggling reader.
struct AsyncChannel {
  explicit AsyncChannel(int n)
      : posted_by(static_cast<std::size_t>(n)),
        ptr(static_cast<std::size_t>(n), nullptr),
        ptr2(static_cast<std::size_t>(n), nullptr),
        len(static_cast<std::size_t>(n), 0),
        kind(static_cast<std::size_t>(n), OpKind::kNone),
        root(static_cast<std::size_t>(n), -1) {}

  std::atomic<std::uint64_t> posted{0};
  std::atomic<std::uint64_t> finished{0};
  /// Per-rank cumulative post counts (posted == sum of these). They give
  /// the per-source drain of an alltoallv something finer to await than
  /// "everyone has posted": rank r's slots for generation G are readable
  /// once posted_by[r] reaches G+1, so a drainer can consume source r's
  /// chunk while slower ranks are still computing toward their posts.
  std::vector<std::atomic<std::uint64_t>> posted_by;
  /// Parked-waiter count gating the notify syscalls: posters bump their
  /// counter (seq_cst) and notify only when this is nonzero; waiters
  /// advertise themselves (seq_cst) before parking. The seq_cst total
  /// order makes a missed wake a cycle, hence impossible.
  std::atomic<int> waiters{0};
  std::vector<const void*> ptr;  ///< per-rank published source
  std::vector<const void*> ptr2; ///< secondary publication (alltoallv: the
                                 ///< per-destination offsets array)
  std::vector<std::size_t> len;  ///< per-rank published element count
  std::vector<OpKind> kind;      ///< per-rank op kind (order validation)
  std::vector<int> root;         ///< per-rank root (order validation)
};

struct CommState;

/// World-wide abort fan-out shared by a world and every communicator split
/// off it. A failing rank sets the flag and poisons every registered
/// state's channels (bump + notify), so waiters parked on futexes anywhere
/// in the communicator tree — nonblocking waits and blocking collectives
/// alike, including on split sub-communicators — wake, observe the flag,
/// and unwind.
struct AbortHub {
  std::atomic<bool> aborted{false};
  std::mutex mutex;
  std::vector<std::weak_ptr<CommState>> states;
  /// World-lifetime fault schedule captured from the process-global plan
  /// at run_world entry; null is the everything-disabled fast path.
  std::shared_ptr<FaultPlan> fault;
  /// Strong refs to every state carrying a contract checker, so run_world
  /// can audit split sub-communicators at teardown even after the rank
  /// threads dropped theirs. Empty when the checker is disabled; run_world
  /// clears it once the world is over (each state holds this hub, so the
  /// pair would otherwise keep each other alive).
  std::vector<std::shared_ptr<CommState>> checked_states;

  void register_state(const std::shared_ptr<CommState>& state);  // comm.cpp
  void poison();  // comm.cpp
};

/// Shared state of one communicator: the ring of AsyncChannels the
/// nonblocking collectives cycle through, plus one more channel (the
/// blocking lane) that the blocking collectives, barrier and split use one
/// generation at a time. Each channel carries its own ordering (see
/// AsyncChannel).
struct CommState {
  CommState(int n, std::shared_ptr<AbortHub> abort_hub)
      : size(n),
        next_ticket(static_cast<std::size_t>(n), 0),
        next_blocking(static_cast<std::size_t>(n), 0),
        outstanding(static_cast<std::size_t>(n), 0),
        staging(static_cast<std::size_t>(n)),
        in_collective(static_cast<std::size_t>(n)),
        hub(std::move(abort_hub)) {
    channels.reserve(kAsyncChannels + 1);
    for (int c = 0; c <= kAsyncChannels; ++c) {
      channels.push_back(std::make_unique<AsyncChannel>(n));
    }
    if (contract::enabled()) {
      checker = std::make_unique<contract::Checker>(n);
    }
  }

  const int size;
  /// Process-unique identity. A raw CommState pointer is NOT a safe
  /// identity across worlds: a rebuilt world's allocation can land on a
  /// freed predecessor's address, and anything keyed on the pointer (the
  /// compress-buffer binding) would silently adopt stale state from the
  /// dead world. The uid is never recycled, so a binding check against it
  /// always detects a new communicator.
  const std::uint64_t uid = next_uid();
  /// kAsyncChannels ring channels, then the blocking lane.
  std::vector<std::unique_ptr<AsyncChannel>> channels;
  std::vector<std::uint64_t> next_ticket;    // per rank; owner-written only
  std::vector<std::uint64_t> next_blocking;  // blocking-lane generations
  std::vector<int> outstanding;              // per-rank posted-unwaited count
  /// Per-rank copy of an in-place all-reduce's contribution: peers read
  /// it while the caller's buffer receives the result. Owner-resized only,
  /// and only between blocking collectives, after the last one released.
  std::vector<std::vector<unsigned char>> staging;
  /// Per-rank count of open slot-reading regions (blocking collectives,
  /// nonblocking waits, per-source drains). On the abort path a dying
  /// rank drains these before its unwind frees the buffers it published —
  /// see CollectiveWindow.
  std::vector<std::atomic<int>> in_collective;
  /// Lifecycle auditor (null unless contract::enabled() held at
  /// construction); split sub-communicators build their own.
  std::unique_ptr<contract::Checker> checker;
  /// Shared with every communicator split off this one, so a rank failure
  /// anywhere in the world also unblocks waits on sub-communicators.
  std::shared_ptr<AbortHub> hub;

  /// The channel of the `ticket`-th post on `lane`: ring channel
  /// ticket % K, or the blocking lane.
  AsyncChannel& channel(Lane lane, std::uint64_t ticket) const {
    return lane == Lane::kRing ? *channels[ticket % kAsyncChannels]
                               : *channels[kAsyncChannels];
  }
  /// Its generation on that channel: ticket / K on the ring; the blocking
  /// lane runs one generation per post.
  static std::uint64_t generation(Lane lane, std::uint64_t ticket) {
    return lane == Lane::kRing ? ticket / kAsyncChannels : ticket;
  }

 private:
  static std::uint64_t next_uid() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

/// Block until `counter` (cumulative across channel generations) reaches
/// `target`: a few yields for the near-miss case, then a futex park
/// (atomic wait) that burns no cycles — on an oversubscribed host the
/// rank being waited on needs them. Throws CommAborted (naming `ctx`'s
/// rank/op/category) as soon as the world aborts: AbortHub::poison bumps
/// and notifies every counter, so parked waiters wake. Posts precede
/// waits by a whole compute stage in the double-buffered loops, so the
/// fast path is a single load.
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const std::atomic<bool>& aborted, const OpContext& ctx);

/// Counter bump + conditional wake, the posting half of await_counter's
/// protocol.
// [[hot-path]]
inline void bump_counter(std::atomic<std::uint64_t>& counter,
                         const std::atomic<int>& waiters) {
  counter.fetch_add(1, std::memory_order_seq_cst);
  if (waiters.load(std::memory_order_seq_cst) != 0) counter.notify_all();
}

/// The transport seam: every payload publication, completion await, and
/// meter charge in the runtime reports itself here. With no fault plan
/// installed this is a null-pointer test (no lock, no allocation, no
/// charge perturbation); with one armed it is where kills, delays, and
/// poisoned payloads are injected (src/comm/fault.hpp).
// [[hot-path]]
inline void seam_event(const CommState& st, const OpContext& ctx,
                       FaultSite site) {
  FaultPlan* plan = st.hub->fault.get();
  if (plan != nullptr) [[unlikely]] {
    try {
      plan->on_event(ctx.rank, ctx.cat, site, ctx.op);
    } catch (...) {
      // Poison at throw time, not at run_world's catch: the dying rank's
      // own stack unwind completes in-flight ops, and those completions
      // block on peers who in turn block on this rank — a mutual wait
      // that only resolves if the abort flag is already up world-wide
      // when the unwind's awaits run.
      st.hub->poison();
      throw;
    }
  }
}

/// Program-order mismatch diagnostic naming this rank, the op it is
/// waiting on (name + category), the offending peer, and what that peer
/// posted instead. Out-of-line (comm.cpp) — built only on the failure
/// path.
std::string order_mismatch(const OpContext& ctx, int peer, OpKind got);

/// Element-count mismatch diagnostic of the size-uniform collectives:
/// names the op, its category, and both ranks with the counts they
/// passed. Out-of-line (comm.cpp) — built only on the failure path.
std::string count_mismatch(const OpContext& ctx, std::size_t mine, int peer,
                           std::size_t theirs);

/// RAII bracket around one slot-reading region (a blocking collective, a
/// nonblocking wait, a per-source drain). Healthy worlds pay two
/// uncontended atomic RMWs. Its real job is the abort path: a rank whose
/// exception escapes the region poisons the world immediately (so no peer
/// starts a new read of this rank's published buffers) and then blocks
/// until every other rank's open regions drain, because a peer that
/// passed its await before the poison landed may still be mid-read of a
/// buffer this rank's unwind is about to free. Peers exit their regions
/// in bounded time — parked ones are poison-woken and throw, active ones
/// throw at their next await — and each dying rank closes its own region
/// before waiting on the others', so mutual aborts cannot cycle. A window
/// opened inside another on the same rank (the wait() of a blocking
/// collective) is inert: only the outermost one counts, so a rank never
/// drains peers while its own region is still open.
/// ThreadSanitizer found the use-after-free window this closes (a killed
/// rank's teardown racing a straggling reader); the acquire/release pair
/// on the region counter is also the happens-before edge that orders the
/// reader's last load before the dying rank's free.
class CollectiveWindow {
 public:
  CollectiveWindow(CommState& st, int rank)
      : st_(st),
        rank_(rank),
        entry_exceptions_(std::uncaught_exceptions()),
        // Only this rank writes its own counter, so a relaxed load sees
        // whether one of its own windows is already open.
        outer_(st.in_collective[static_cast<std::size_t>(rank)].load(
                   std::memory_order_relaxed) == 0) {
    if (outer_) {
      st_.in_collective[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_seq_cst);
    }
  }
  ~CollectiveWindow();  // comm.cpp

  CollectiveWindow(const CollectiveWindow&) = delete;
  CollectiveWindow& operator=(const CollectiveWindow&) = delete;

 private:
  CommState& st_;
  int rank_;
  int entry_exceptions_;  ///< uncaught count at entry; more at exit = unwind
  bool outer_;            ///< false for a window nested in one of this rank's
};

}  // namespace detail

/// Concatenation of per-rank variable-length contributions, with offsets.
template <typename T>
struct Gathered {
  std::vector<T> data;
  std::vector<std::size_t> offsets;  ///< size+1 entries; rank r owns
                                     ///< [offsets[r], offsets[r+1])
  std::span<const T> chunk(int r) const {
    return {data.data() + offsets[static_cast<std::size_t>(r)],
            offsets[static_cast<std::size_t>(r) + 1] -
                offsets[static_cast<std::size_t>(r)]};
  }
};

/// Reusable state of one compressed-collective stream: this rank's
/// encoded wire bytes, the gathered peers' bytes, a decode scratch, and
/// the optional error-feedback residual (see src/comm/compress.hpp).
/// A buf is bound to a (communicator, element count) pair on first use;
/// using it with a different communicator or length resets the residual,
/// because feedback accumulated against other peers or another buffer
/// shape would be meaningless noise (tests/comm_test.cpp asserts the
/// reset). Reuse the same buf across rounds of the same reduction — that
/// reuse is what carries the quantization error forward.
struct CompressBuf {
  std::vector<std::uint8_t> send;    ///< this rank's encoded wire bytes
  Gathered<std::uint8_t> recv;       ///< peers' wire bytes (gathered)
  std::vector<Real> residual;        ///< error-feedback carry
  std::vector<Real> scratch;         ///< decode workspace
  bool error_feedback = false;       ///< apply residual feedback on encode
  std::uint64_t bound_comm = 0;  ///< uid of the bound communicator (0 = none)
  std::size_t bound_n = 0;       ///< bound element count
};

/// Handle to a posted-but-possibly-incomplete nonblocking collective.
/// Move-only. wait() blocks until every member has posted the matching op,
/// performs this rank's data movement, charges the meter exactly as the
/// blocking form would, and releases the channel; a second wait() is a
/// no-op, diagnosed as a ContractViolation when the contract checker is
/// armed (gate repeat waits on pending()). A PendingOp that is destroyed
/// while still pending completes itself first (like a blocking wait),
/// swallowing abort errors so unwinding a failed world never terminates —
/// unless the destruction is part of an exception unwind: then the rank is
/// failing, and the handle poisons the world and waits for peers' open
/// reads to drain instead of completing, so the unwind cannot free a
/// source a peer is still copying.
///
/// Caller contract: every span passed to the posting call must stay valid
/// and unmodified until *every* rank has waited the op (sources are read by
/// peers at their own wait), and output spans must not alias any rank's
/// contribution.
class PendingOp {
 public:
  PendingOp() = default;  ///< empty handle; pending() is false

  PendingOp(PendingOp&& other) noexcept { *this = std::move(other); }
  PendingOp& operator=(PendingOp&& other) noexcept {
    if (this != &other) {
      complete_for_destroy();
      state_ = std::move(other.state_);
      rank_ = other.rank_;
      meter_ = other.meter_;
      ticket_ = other.ticket_;
      cat_ = other.cat_;
      op_ = other.op_;
      lane_ = other.lane_;
      charged_ = other.charged_;
      args_ = other.args_;
      drained_mask_ = other.drained_mask_;
      waited_ = other.waited_;
      other.state_.reset();
      other.waited_ = false;  // moved-from behaves like an empty handle
    }
    return *this;
  }

  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

  ~PendingOp() { complete_for_destroy(); }

  /// True between post and wait.
  bool pending() const { return state_ != nullptr; }

  /// Posting-order index of this op on its communicator (valid while
  /// pending). Record it before wait() to later release this op's
  /// sources with Comm::quiesce_op.
  std::uint64_t ticket() const { return ticket_; }

  /// Complete the op: block for all posts, move this rank's data, charge
  /// the meter, release the channel. No-op when not pending — but a
  /// second wait() on an already-completed handle is diagnosed as a
  /// ContractViolation when the contract checker is armed (gate a
  /// maybe-completed wait on pending() instead of relying on the no-op).
  void wait();

  // ---- Per-source drain (alltoallv-post ops only; see
  // Comm::ialltoallv_post). ----

  /// Block until `src` alone has posted the matching alltoallv, then
  /// return a read-only view of the chunk it addressed to this rank —
  /// straight into src's send buffer, no staging copy. Charges 1 latency
  /// unit + the chunk's words (nothing for src == rank(), mirroring the
  /// blocking form's self-chunk exclusion), so draining every source sums
  /// bitwise to the blocking alltoallv_into charge. Call at most once per
  /// source; the view stays readable until this communicator's release
  /// point for the op (quiesce / quiesce_op), exactly like any posted
  /// source. Worlds wider than 64 ranks are diagnosed (the drain ledger
  /// is a 64-bit mask).
  template <typename T>
  std::span<const T> await_source(int src) {
    CAGNET_CHECK(pending(), "await_source on a non-pending op");
    CAGNET_CHECK(per_source_drain(),
                 "await_source: op was not posted with ialltoallv_post");
    CAGNET_CHECK(src >= 0 && src < state_->size,
                 "await_source: source rank out of range");
    CAGNET_CHECK(src < 64, "await_source: drain supports at most 64 ranks");
    CAGNET_CHECK((drained_mask_ & (std::uint64_t{1} << src)) == 0,
                 "await_source: source already drained");
    const detail::OpContext ctx{rank_, cat_, "ialltoallv_post drain"};
    detail::CollectiveWindow window(*state_, rank_);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    const std::span<const T> chunk = await_chunk<T>(src, ctx);
    if (src != rank_) charge(1.0, chunk.size_bytes());
    drained_mask_ |= std::uint64_t{1} << src;
    return chunk;
  }

  /// Caller-certified empty chunk: charge the per-source latency unit and
  /// mark `src` drained WITHOUT awaiting its post or reading its slots.
  /// Use when the exchange plan guarantees src addressed nothing to this
  /// rank (both sides derive chunk sizes from the same plan): there is
  /// nothing to read, so there is no reason to couple this rank's
  /// progress to that peer's schedule. Safe because publication slots are
  /// per-rank and the counters cumulative — the skipped peer's eventual
  /// post conflicts with nothing. Charges still telescope bitwise to the
  /// blocking form's (1 latency unit, zero words).
  void skip_source(int src) {
    CAGNET_CHECK(pending(), "skip_source on a non-pending op");
    CAGNET_CHECK(per_source_drain(),
                 "skip_source: op was not posted with ialltoallv_post");
    CAGNET_CHECK(src >= 0 && src < state_->size && src < 64,
                 "skip_source: source rank out of range");
    CAGNET_CHECK((drained_mask_ & (std::uint64_t{1} << src)) == 0,
                 "skip_source: source already drained");
    if (src != rank_) charge(1.0, 0);
    drained_mask_ |= std::uint64_t{1} << src;
  }

 private:
  friend class Comm;

  void complete_for_destroy() noexcept;  // comm.cpp

  detail::AsyncChannel& channel() const {
    return state_->channel(lane_, ticket_);
  }
  std::uint64_t generation() const {
    return detail::CommState::generation(lane_, ticket_);
  }

  /// An ialltoallv_post op: completed per source, no gathered destination.
  bool per_source_drain() const {
    return args_.kind == detail::OpKind::kAlltoallv && args_.out == nullptr;
  }

  /// Await `src`'s post of this op, validate it, and view the chunk it
  /// addressed to this rank (alltoallv-post ops).
  template <typename T>
  std::span<const T> await_chunk(int src, const detail::OpContext& ctx) {
    auto& ch = channel();
    const auto s = static_cast<std::size_t>(src);
    if (src != rank_) {
      detail::await_counter(ch.posted_by[s], ch.waiters, generation() + 1,
                            state_->hub->aborted, ctx);
    }
    CAGNET_CHECK(ch.kind[s] == args_.kind && ch.root[s] == args_.root,
                 detail::order_mismatch(ctx, src, ch.kind[s]));
    const auto* offs = static_cast<const std::size_t*>(ch.ptr2[s]);
    const auto me = static_cast<std::size_t>(rank_);
    return {static_cast<const T*>(ch.ptr[s]) + offs[me],
            offs[me + 1] - offs[me]};
  }

  // [[hot-path]]
  void charge(double latency_units, std::size_t bytes) {
    if (!charged_) return;
    detail::seam_event(*state_, {rank_, cat_, op_}, FaultSite::kCharge);
    if (auto* ck = state_->checker.get();
        ck != nullptr && lane_ == detail::Lane::kRing) {
      ck->on_charge(rank_, op_, cat_);
    }
    meter_->add(cat_, latency_units,
                static_cast<double>(bytes) / sizeof(Real));
  }

  template <typename T>
  static void complete_impl(PendingOp& op);

  /// Completion of an ialltoallv_post op: await + charge whatever sources
  /// the caller did not drain (no data is copied — an undrained chunk was
  /// abandoned), then release the channel via the shared wait() epilogue.
  /// Makes wait()/destruction equivalent to a full drain charge-wise.
  template <typename T>
  static void complete_drain_impl(PendingOp& op) {
    const detail::OpContext ctx{op.rank_, op.cat_, "ialltoallv_post drain"};
    for (int r = 0; r < op.state_->size; ++r) {
      if (r == op.rank_ || (op.drained_mask_ & (std::uint64_t{1} << r)) != 0) {
        continue;
      }
      op.charge(1.0, op.await_chunk<T>(r, ctx).size_bytes());
    }
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = 0;
  CostMeter* meter_ = nullptr;
  std::uint64_t ticket_ = 0;  ///< posting index on its lane
  CommCategory cat_ = CommCategory::kControl;
  const char* op_ = "none";   ///< display name (seams, diagnostics)
  detail::Lane lane_ = detail::Lane::kRing;
  bool charged_ = true;
  detail::PostArgs args_;
  std::uint64_t drained_mask_ = 0;  ///< await_source ledger (bit per rank)
  bool waited_ = false;  ///< completed by an explicit wait (double-wait check)
};

/// Handle to a posted compressed reduction (iallreduce_sum_compressed /
/// ireduce_scatter_sum_compressed). Move-only. wait() completes the
/// underlying byte all-gather, decodes and sums this rank's result, and
/// charges CommCategory::kCompressed with the actual post-compression
/// bytes; codec time lands in Phase::kCompressPack when the posting call
/// was given a profiler. Like any nonblocking source, the CompressBuf's
/// send bytes stay readable by peers until the communicator's release
/// point — record ticket() before wait() and release with
/// Comm::quiesce_op (or a later Comm::quiesce). A handle destroyed while
/// still pending completes itself first, like PendingOp.
class PendingCompressedReduce {
 public:
  PendingCompressedReduce() = default;  ///< empty handle; pending() false

  PendingCompressedReduce(PendingCompressedReduce&& other) noexcept {
    *this = std::move(other);
  }
  PendingCompressedReduce& operator=(
      PendingCompressedReduce&& other) noexcept {
    if (this != &other) {
      complete_for_destroy();
      op_ = std::move(other.op_);
      state_ = std::move(other.state_);
      buf_ = other.buf_;
      meter_ = other.meter_;
      profiler_ = other.profiler_;
      mode_ = other.mode_;
      scatter_ = other.scatter_;
      out_ = other.out_;
      out_len_ = other.out_len_;
      n_ = other.n_;
      rank_ = other.rank_;
      size_ = other.size_;
      other.buf_ = nullptr;
    }
    return *this;
  }

  PendingCompressedReduce(const PendingCompressedReduce&) = delete;
  PendingCompressedReduce& operator=(const PendingCompressedReduce&) = delete;

  ~PendingCompressedReduce() { complete_for_destroy(); }

  /// True between post and wait (false for the exact P == 1 fast path,
  /// which completes at post time).
  bool pending() const { return buf_ != nullptr; }

  /// Posting-order ticket of the underlying byte gather (valid while
  /// pending); record it before wait() to release the send bytes with
  /// Comm::quiesce_op.
  std::uint64_t ticket() const { return op_.ticket(); }

  /// Complete: block for all posts, decode + sum, charge kCompressed.
  void wait();  // comm.cpp

 private:
  friend class Comm;

  void complete_for_destroy() noexcept {
    if (!pending()) return;
    if (std::uncaught_exceptions() == 0) {
      try {
        wait();
        return;
      } catch (...) {
      }
    }
    // A failed world, or an unwind: nothing left to finish. An unwind
    // leaves op_ pending, and its own destruction poisons and drains.
    buf_ = nullptr;
    state_.reset();
  }

  PendingOp op_;
  /// Kept alongside op_ so wait() can reach the contract checker for
  /// charge attribution.
  std::shared_ptr<detail::CommState> state_;
  CompressBuf* buf_ = nullptr;
  CostMeter* meter_ = nullptr;
  Profiler* profiler_ = nullptr;
  CompressMode mode_ = CompressMode::kOff;
  bool scatter_ = false;
  Real* out_ = nullptr;
  std::size_t out_len_ = 0;
  std::size_t n_ = 0;  ///< full contribution element count
  int rank_ = 0;
  int size_ = 0;
};

/// One rank's endpoint of a simulated communicator. Default-constructed
/// Comms are *invalid* (valid() is false); every collective, barrier, and
/// split on an invalid Comm fails with a diagnostic instead of crashing.
/// Obtain valid Comms from run_world or split(). Copies share the
/// communicator state and the rank's meter, so they are interchangeable.
class Comm {
 public:
  Comm() = default;  ///< invalid; assign from run_world / split

  /// This rank's index in [0, size()).
  int rank() const { return rank_; }
  /// Number of members; 0 for an invalid Comm.
  int size() const { return state_ ? state_->size : 0; }
  /// False for a default-constructed Comm (no collective may be called).
  bool valid() const { return state_ != nullptr; }

  /// The calling rank's cost meter (shared across split communicators).
  CostMeter& meter() const {
    check_valid("meter");
    return *meter_;
  }

  /// Synchronize all members (one rendezvous; charges nothing and reports
  /// no seam event).
  void barrier();

  /// Report a named zero-cost protocol event at the transport seam
  /// (FaultSite::kCharge) without moving data or charging the meter. This
  /// gives fault plans a deterministic, nameable injection point for
  /// decisions that suppress communication — e.g. the bounded-staleness
  /// halo path reports "halo stale skip" when it replays cached rows
  /// instead of exchanging, so chaos drills can kill or delay a rank at
  /// exactly that seam. Purely local: no rendezvous, no ordering effect.
  void notify_event(CommCategory cat, const char* op) {
    check_valid("notify_event");
    detail::seam_event(*state_, {rank_, cat, op}, FaultSite::kCharge);
  }

  /// Block until every member has completed (waited) every nonblocking op
  /// posted so far on this communicator — the release point after which
  /// the source buffers of those ops may be modified or freed. Unlike
  /// barrier() this is not a rendezvous: it costs a handful of atomic
  /// loads when peers have already drained, and it charges nothing. The
  /// double-buffered loops call it before reusing a broadcast source.
  /// CAUTION: quiescing while an op that peers deliberately wait *later*
  /// (e.g. a deferred gradient reduction) is outstanding deadlocks; use
  /// quiesce_op to release one specific op instead.
  void quiesce() const;

  /// Block until every member has completed one specific op, identified
  /// by the PendingOp::ticket() recorded at post time — the single-op
  /// release form of quiesce. Waits only on that op's channel (channel
  /// generations complete in order), so deliberately-still-pending ops
  /// elsewhere cause no deadlock.
  void quiesce_op(std::uint64_t ticket) const;

  /// Collective split into disjoint sub-communicators by color; ranks are
  /// ordered by (key, parent rank) within each color. Every member of this
  /// communicator must call. The sub-communicator shares this rank's meter
  /// and the world's abort flag. Charges nothing and reports no seam
  /// event.
  Comm split(int color, int key) const;

  // ---- Collectives. `cat` selects the CostMeter category. Each blocking
  // form is its nonblocking post, waited at once and released before it
  // returns; it rides the blocking lane, so it takes no ticket from the
  // nonblocking ring and may run while ring ops are in flight. ----

  /// In-place broadcast from `root` to all members. Charges lg(P) latency
  /// units and data.size() words to every rank (nothing when P == 1).
  template <typename T>
  void broadcast(std::span<T> data, int root, CommCategory cat) {
    check_valid("broadcast");
    check_member(root);
    run_blocking({rank_, cat, "broadcast"}, bcast_args<T>(data, data, root));
  }

  /// Broadcast that reads directly from the root's existing buffer: the
  /// root passes its data as `src` (left untouched) and an empty `dst`;
  /// every other rank passes an empty `src` and receives into `dst`. This
  /// is the zero-staging-copy form the SUMMA loops use so roots never
  /// materialize a second copy of the block they already hold. Charged
  /// exactly like broadcast.
  template <typename T>
  void broadcast_from(std::span<const T> src, std::span<T> dst, int root,
                      CommCategory cat) {
    check_valid("broadcast_from");
    check_member(root);
    run_blocking({rank_, cat, "broadcast_from"},
                 bcast_args<T>(src, dst, root));
  }

  /// In-place elementwise sum over all members; every rank ends with the
  /// total. Cost: Rabenseifner (reduce-scatter + all-gather): 2 lg(P)
  /// latency units and 2 n (P-1)/P words.
  template <typename T>
  void allreduce_sum(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_sum");
    reduce_in_place(data, cat, detail::OpKind::kAllreduce, "allreduce_sum");
  }

  /// In-place elementwise max over all members. Charged like
  /// allreduce_sum.
  template <typename T>
  void allreduce_max(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_max");
    reduce_in_place(data, cat, detail::OpKind::kAllreduceMax,
                    "allreduce_max");
  }

  /// Reduce-scatter with sum: `contrib` (same length on every rank) is the
  /// full-length vector of partial sums; rank r receives the reduced slice
  /// [chunk_offset(r), chunk_offset(r)+out.size()) into `out`, where chunk
  /// boundaries are the concatenation of every rank's out.size(). `out`
  /// must not alias any rank's `contrib`. Charges lg(P) latency units and
  /// total (P-1)/P words.
  template <typename T>
  void reduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                          CommCategory cat) {
    check_valid("reduce_scatter_sum");
    run_blocking({rank_, cat, "reduce_scatter_sum"},
                 reduce_scatter_args(contrib, out));
  }

  /// All-gather of equal-size chunks: every rank contributes `mine`, and
  /// receives the rank-ordered concatenation. Charged like allgatherv.
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine, CommCategory cat) {
    check_valid("allgather");
    Gathered<T> all = allgatherv(mine, cat);
    for (int r = 0; r < size(); ++r) {
      const std::size_t theirs = all.chunk(r).size();
      CAGNET_CHECK(theirs == mine.size(),
                   detail::count_mismatch({rank_, cat, "allgather"},
                                          mine.size(), r, theirs));
    }
    return std::move(all.data);
  }

  /// All-gather of variable-size chunks. Charges lg(P) latency units and
  /// the received words (everything but this rank's own chunk).
  template <typename T>
  Gathered<T> allgatherv(std::span<const T> mine, CommCategory cat) {
    Gathered<T> result;
    allgatherv_into(mine, result, cat);
    return result;
  }

  /// All-gather of variable-size chunks into a caller-owned Gathered whose
  /// storage is reused across calls (the allocation-free hot-path form).
  /// `mine` must not alias `out.data`. Charged like allgatherv.
  template <typename T>
  void allgatherv_into(std::span<const T> mine, Gathered<T>& out,
                       CommCategory cat) {
    check_valid("allgatherv_into");
    run_blocking({rank_, cat, "allgatherv_into"}, allgatherv_args(mine, out));
  }

  /// Pairwise exchange: send `send` to `peer` and receive its message.
  /// Both sides must name each other; peer == rank() is a local copy.
  /// Charges 1 latency unit and the received words (nothing for self).
  /// A route whose permutation is the pairing.
  template <typename T>
  std::vector<T> exchange(std::span<const T> send, int peer,
                          CommCategory cat) {
    check_valid("exchange");
    return route_as(send, peer, {rank_, cat, "exchange"});
  }

  /// Permutation all-to-all: every rank sends one message to `dest`; the
  /// destinations across ranks must form a permutation (each rank receives
  /// exactly one message). This is the redistribution primitive of the 3D
  /// distributed transpose. dest == rank() is a local copy. Charges 1
  /// latency unit and the received words (nothing for self-delivery).
  template <typename T>
  std::vector<T> route(std::span<const T> send, int dest, CommCategory cat) {
    check_valid("route");
    return route_as(send, dest, {rank_, cat, "route"});
  }

  /// Individualized all-to-all with variable chunk sizes: `send` holds this
  /// rank's outgoing data split per destination by `send_offsets` (size()+1
  /// monotone element offsets; destination d's chunk is
  /// [send_offsets[d], send_offsets[d+1])). Every rank receives the
  /// rank-ordered concatenation of the chunks addressed to it into `out`
  /// (storage reused). This is the request-and-send primitive of the
  /// sparsity-aware halo exchange (Section IV-A.8). Charges P-1 latency
  /// units and the received words (everything but the self chunk).
  template <typename T>
  void alltoallv_into(std::span<const T> send,
                      std::span<const std::size_t> send_offsets,
                      Gathered<T>& out, CommCategory cat) {
    check_valid("alltoallv_into");
    check_offsets(send.size(), send_offsets, "alltoallv_into");
    run_blocking({rank_, cat, "alltoallv_into"},
                 alltoallv_args(send, send_offsets, &out));
  }

  // ---- Nonblocking collectives. Posts are nonblocking (no rendezvous);
  // data moves and the meter is charged at PendingOp::wait(), with
  // charges identical to the blocking forms. `charged = false`
  // suppresses the automatic charge for callers that account the traffic
  // themselves (e.g. an op split into chunks whose per-chunk integer
  // charges would not sum to the unsplit op's). ----

  /// Nonblocking broadcast_from: the root posts `src` (left untouched and
  /// readable by peers until every rank has waited); every other rank
  /// receives into `dst` at its own wait(). Charged like broadcast.
  template <typename T>
  PendingOp ibroadcast_from(std::span<const T> src, std::span<T> dst,
                            int root, CommCategory cat, bool charged = true) {
    check_valid("ibroadcast_from");
    check_member(root);
    return post_ring(cat, charged, bcast_args<T>(src, dst, root));
  }

  /// Nonblocking reduce_scatter_sum (same chunking contract as the
  /// blocking form). `out` must not alias any rank's `contrib`. Charged
  /// like reduce_scatter_sum.
  template <typename T>
  PendingOp ireduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                                CommCategory cat, bool charged = true) {
    check_valid("ireduce_scatter_sum");
    return post_ring(cat, charged, reduce_scatter_args(contrib, out));
  }

  /// Nonblocking allgatherv_into. `out` (resized at wait) must outlive the
  /// op and `mine` must not alias `out.data`. Charged like allgatherv.
  template <typename T>
  PendingOp iallgatherv_into(std::span<const T> mine, Gathered<T>& out,
                             CommCategory cat, bool charged = true) {
    check_valid("iallgatherv_into");
    return post_ring(cat, charged, allgatherv_args(mine, out));
  }

  /// Nonblocking *out-of-place* all-reduce sum: every rank posts `contrib`
  /// (stable until all ranks waited) and receives the elementwise total
  /// into `out` (same length, must not alias any contribution). The
  /// out-of-place form is what allows peers to complete at different
  /// times without a trailing rendezvous. Charged like allreduce_sum.
  template <typename T>
  PendingOp iallreduce_sum(std::span<const T> contrib, std::span<T> out,
                           CommCategory cat, bool charged = true) {
    check_valid("iallreduce_sum");
    CAGNET_CHECK(contrib.size() == out.size(),
                 "iallreduce_sum: contrib/out length mismatch");
    return post_ring(cat, charged,
                     allreduce_args(contrib.data(), out,
                                    detail::OpKind::kAllreduce));
  }

  /// Nonblocking alltoallv_into. `send` AND `send_offsets` must stay valid
  /// and unmodified until every rank has waited (peers read both at their
  /// own waits); `out` (resized at wait) must outlive the op and must not
  /// alias any rank's send buffer. Charged like alltoallv_into.
  template <typename T>
  PendingOp ialltoallv_into(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            Gathered<T>& out, CommCategory cat,
                            bool charged = true) {
    check_valid("ialltoallv_into");
    check_offsets(send.size(), send_offsets, "ialltoallv_into");
    return post_ring(cat, charged, alltoallv_args(send, send_offsets, &out));
  }

  /// Nonblocking alltoallv without a gathered destination, made for
  /// per-source draining: the caller pulls each peer's chunk with
  /// PendingOp::await_source — zero-copy views into the peers' send
  /// buffers, available as soon as *that* peer has posted — and the final
  /// wait() awaits + charges any sources left undrained, so total charges
  /// are bitwise the blocking alltoallv_into's regardless of how many
  /// chunks the caller consumed. `send` and `send_offsets` obey the same
  /// lifetime contract as ialltoallv_into. This is the halo pipeline's
  /// primitive (remote rows are multiplied as they land; see
  /// dist_common.cpp). At most 64 ranks (the drain ledger is a bitmask).
  template <typename T>
  PendingOp ialltoallv_post(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            CommCategory cat, bool charged = true) {
    check_valid("ialltoallv_post");
    check_offsets(send.size(), send_offsets, "ialltoallv_post");
    CAGNET_CHECK(size() <= 64,
                 "ialltoallv_post: per-source drain supports at most 64 "
                 "ranks; use ialltoallv_into");
    detail::PostArgs args = alltoallv_args<T>(send, send_offsets, nullptr);
    args.complete = &PendingOp::complete_drain_impl<T>;
    return post_ring(cat, charged, args);
  }

  // ---- Compressed collectives (the CAGNET_COMPRESS paths). All charge
  // CommCategory::kCompressed with the ACTUAL post-compression bytes
  // (converted to Real-sized words, hence fractional values appear), and
  // time codec work under Phase::kCompressPack when given a profiler —
  // call sites must NOT wrap these in their own ScopedPhase. The lossy
  // result is sum over ranks of decode(encode(contrib_r)), decoded in
  // ascending rank order on every rank, so it is identical across ranks
  // and bitwise reproducible for any thread count. P == 1 degenerates to
  // the exact copy (no codec round-trip) and charges nothing, like the
  // exact collectives. ----

  /// Blocking in-place lossy all-reduce sum. Implemented as an all-gather
  /// of encoded bytes plus a local decode-sum; returns after a trailing
  /// release rendezvous, so `buf` may be reused immediately. Charges
  /// 2 lg(P) latency units and 2 E (P-1)/P bytes, E the encoded size.
  void allreduce_sum_compressed(std::span<Real> data, CompressMode mode,
                                CompressBuf& buf,
                                Profiler* profiler = nullptr);

  /// Nonblocking out-of-place lossy all-reduce sum: `out` (same length as
  /// `contrib`, or aliasing it exactly) receives the decoded total at
  /// wait(). `contrib` is consumed at post time (the encode is the
  /// staging copy); buf.send must stay unmodified until the op's release
  /// point (quiesce / quiesce_op on ticket()).
  PendingCompressedReduce iallreduce_sum_compressed(
      std::span<const Real> contrib, std::span<Real> out, CompressMode mode,
      CompressBuf& buf, Profiler* profiler = nullptr);

  /// Blocking lossy reduce-scatter sum, same chunking contract as
  /// reduce_scatter_sum (chunk boundaries are the concatenation of every
  /// rank's out.size(), which may differ per rank — the 1.5D keeper-only
  /// form). Wire format per rank: [u64 out-length header][encoded full
  /// contribution]; every rank gathers all of them and decodes only its
  /// own slice. Charges lg(P) latency units and the gathered bytes'
  /// (P-1)/P (headers included — they are real wire bytes).
  void reduce_scatter_sum_compressed(std::span<const Real> contrib,
                                     std::span<Real> out, CompressMode mode,
                                     CompressBuf& buf,
                                     Profiler* profiler = nullptr);

  /// Nonblocking form of reduce_scatter_sum_compressed; same contract as
  /// iallreduce_sum_compressed regarding buf.send's lifetime.
  PendingCompressedReduce ireduce_scatter_sum_compressed(
      std::span<const Real> contrib, std::span<Real> out, CompressMode mode,
      CompressBuf& buf, Profiler* profiler = nullptr);

 private:
  friend void run_world(int, const std::function<void(Comm&)>&,
                        std::vector<CostMeter>*);

  Comm(std::shared_ptr<detail::CommState> state, int rank, CostMeter* meter)
      : state_(std::move(state)), rank_(rank), meter_(meter) {}

  void check_member(int r) const {
    CAGNET_CHECK(r >= 0 && r < size(), "rank out of range");
  }

  /// Diagnose use of a default-constructed (invalid) Comm.
  void check_valid(const char* what) const {
    CAGNET_CHECK(state_ != nullptr,
                 std::string(what) +
                     " on an invalid Comm (default-constructed; obtain one "
                     "from run_world or split)");
  }

  /// Purely local alltoallv offsets validation: size()+1 monotone entries
  /// spanning exactly the send buffer.
  void check_offsets(std::size_t send_len,
                     std::span<const std::size_t> offsets,
                     const char* what) const {
    CAGNET_CHECK(offsets.size() == static_cast<std::size_t>(size()) + 1,
                 std::string(what) + ": offsets must have size()+1 entries");
    CAGNET_CHECK(offsets.front() == 0 && offsets.back() == send_len,
                 std::string(what) + ": offsets must span the send buffer");
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      CAGNET_CHECK(offsets[i] <= offsets[i + 1],
                   std::string(what) + ": offsets must be monotone");
    }
  }

  /// Bind `buf` to this communicator and element count; a change of
  /// either resets the error-feedback residual (feedback accumulated on
  /// another communicator or buffer shape must not leak into this one).
  void rebind_compress_buf(CompressBuf& buf, std::size_t n) const {
    if (buf.bound_comm != state_->uid || buf.bound_n != n) {
      buf.residual.clear();
      buf.bound_comm = state_->uid;
      buf.bound_n = n;
    }
  }

  // ---- Post arguments shared by the blocking and nonblocking forms. ----

  /// The root publishes `src`; every other rank publishes its
  /// dst.size() and receives into `dst`.
  template <typename T>
  detail::PostArgs bcast_args(std::span<const T> src, std::span<T> dst,
                              int root) const {
    const bool is_root = rank_ == root;
    return {.kind = detail::OpKind::kBcast,
            .ptr = is_root ? static_cast<const void*>(src.data()) : nullptr,
            .len = is_root ? src.size() : dst.size(),
            .root = root,
            .out = dst.data(),
            .complete = &PendingOp::complete_impl<T>};
  }

  template <typename T>
  detail::PostArgs reduce_scatter_args(std::span<const T> contrib,
                                       std::span<T> out) const {
    return {.kind = detail::OpKind::kReduceScatter,
            .ptr = contrib.data(),
            .len = out.size(),
            .out = out.data(),
            .src_len = contrib.size(),
            .complete = &PendingOp::complete_impl<T>};
  }

  template <typename T>
  detail::PostArgs allgatherv_args(std::span<const T> mine,
                                   Gathered<T>& out) const {
    return {.kind = detail::OpKind::kAllgatherv,
            .ptr = mine.data(),
            .len = mine.size(),
            .out = &out,
            .complete = &PendingOp::complete_impl<T>};
  }

  template <typename T>
  detail::PostArgs allreduce_args(const T* contrib, std::span<T> out,
                                  detail::OpKind kind) const {
    return {.kind = kind,
            .ptr = contrib,
            .len = out.size(),
            .out = out.data(),
            .complete = &PendingOp::complete_impl<T>};
  }

  template <typename T>
  detail::PostArgs alltoallv_args(std::span<const T> send,
                                  std::span<const std::size_t> send_offsets,
                                  Gathered<T>* out) const {
    return {.kind = detail::OpKind::kAlltoallv,
            .ptr = send.data(),
            .ptr2 = send_offsets.data(),
            .len = send.size(),
            .out = out,
            .complete = &PendingOp::complete_impl<T>};
  }

  /// Claim the next ticket on `lane`, publish this rank's slot on its
  /// channel, and hand back the armed PendingOp. Out-of-line (comm.cpp).
  PendingOp post_async(detail::Lane lane, const detail::OpContext& ctx,
                       bool charged, const detail::PostArgs& args) const;

  /// A nonblocking post, named by its op kind.
  PendingOp post_ring(CommCategory cat, bool charged,
                      const detail::PostArgs& args) const {
    return post_async(detail::Lane::kRing,
                      {rank_, cat, detail::op_kind_name(args.kind)}, charged,
                      args);
  }

  /// A blocking collective: post on the blocking lane, wait, and return
  /// only once every member has completed the op, so the caller may reuse
  /// or free its buffers. The whole call is one CollectiveWindow.
  /// Out-of-line (comm.cpp).
  void run_blocking(const detail::OpContext& ctx,
                    const detail::PostArgs& args,
                    detail::Lane lane = detail::Lane::kBlocking) const;

  template <typename T>
  std::vector<T> route_as(std::span<const T> send, int dest,
                          const detail::OpContext& ctx) {
    check_member(dest);
    std::vector<T> recv;
    run_blocking(ctx, {.kind = detail::OpKind::kRoute,
                       .ptr = send.data(),
                       .len = send.size(),
                       .root = dest,
                       .out = &recv,
                       .complete = &PendingOp::complete_impl<T>});
    return recv;
  }

  /// In-place all-reduce: the contribution is staged in this rank's
  /// staging buffer, because peers read it while `data` takes the result.
  template <typename T>
  void reduce_in_place(std::span<T> data, CommCategory cat,
                       detail::OpKind kind, const char* op) {
    auto& stage = state_->staging[static_cast<std::size_t>(rank_)];
    stage.resize(data.size_bytes());
    if (!data.empty()) std::memcpy(stage.data(), data.data(), stage.size());
    run_blocking({rank_, cat, op},
                 allreduce_args(reinterpret_cast<const T*>(stage.data()),
                                data, kind));
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = 0;
  CostMeter* meter_ = nullptr;
};

template <typename T>
void PendingOp::complete_impl(PendingOp& op) {
  const auto& ch = op.channel();
  const detail::PostArgs& a = op.args_;
  const detail::OpContext ctx{op.rank_, op.cat_, op.op_};
  const int p = op.state_->size;
  const auto me = static_cast<std::size_t>(op.rank_);
  if (a.kind == detail::OpKind::kBcast && op.rank_ == a.root) {
    // Passive root completion: peers may not have posted yet (wait()
    // skipped the await), so validate nothing and charge from this
    // rank's own published length.
    if (p > 1) op.charge(ceil_log2(p), a.len * sizeof(T));
    return;
  }
  for (int r = 0; r < p; ++r) {
    const auto s = static_cast<std::size_t>(r);
    // A route's root is each rank's own destination.
    CAGNET_CHECK(ch.kind[s] == a.kind && (a.kind == detail::OpKind::kRoute ||
                                          ch.root[s] == a.root),
                 detail::order_mismatch(ctx, r, ch.kind[s]));
  }
  const auto source = [&](int r) {
    return static_cast<const T*>(ch.ptr[static_cast<std::size_t>(r)]);
  };
  switch (a.kind) {
    case detail::OpKind::kBcast: {
      const std::size_t n = ch.len[me];
      for (int r = 0; r < p; ++r) {
        const std::size_t theirs = ch.len[static_cast<std::size_t>(r)];
        CAGNET_CHECK(theirs == n, detail::count_mismatch(ctx, n, r, theirs));
      }
      if (n > 0) std::memcpy(a.out, source(a.root), n * sizeof(T));
      if (p > 1) op.charge(ceil_log2(p), n * sizeof(T));
      break;
    }
    case detail::OpKind::kReduceScatter: {
      std::size_t offset = 0;
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) {
        if (r == op.rank_) offset = total;
        total += ch.len[static_cast<std::size_t>(r)];
      }
      CAGNET_CHECK(a.src_len == total,
                   "reduce_scatter: contribution length != sum of outputs");
      // Chunk by chunk with contiguous inner loops so the accumulation
      // vectorizes; the per-element order is zero, then ranks ascending.
      T* out = static_cast<T*>(a.out);
      std::fill(out, out + a.len, T{});
      for (int r = 0; r < p; ++r) {
        const T* src = source(r) + offset;
        for (std::size_t i = 0; i < a.len; ++i) out[i] += src[i];
      }
      op.charge(ceil_log2(p),
                total * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAllgatherv: {
      auto& out = *static_cast<Gathered<T>*>(a.out);
      out.offsets.resize(static_cast<std::size_t>(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        const auto s = static_cast<std::size_t>(r);
        out.offsets[s + 1] = out.offsets[s] + ch.len[s];
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        const auto len = ch.len[static_cast<std::size_t>(r)];
        if (len == 0) continue;
        std::memcpy(out.data.data() + out.offsets[static_cast<std::size_t>(r)],
                    source(r), len * sizeof(T));
      }
      op.charge(ceil_log2(p), (out.data.size() - a.len) * sizeof(T));
      break;
    }
    case detail::OpKind::kAllreduce:
    case detail::OpKind::kAllreduceMax: {
      const std::size_t n = a.len;
      for (int r = 0; r < p; ++r) {
        const std::size_t theirs = ch.len[static_cast<std::size_t>(r)];
        CAGNET_CHECK(theirs == n, detail::count_mismatch(ctx, n, r, theirs));
      }
      // Every element accumulates ranks in ascending order on every rank,
      // so all ranks hold bitwise the same result.
      T* out = static_cast<T*>(a.out);
      const auto reduce = [&](auto combine) {
        for (std::size_t i = 0; i < n; ++i) {
          T acc = source(0)[i];
          for (int r = 1; r < p; ++r) acc = combine(acc, source(r)[i]);
          out[i] = acc;
        }
      };
      if (a.kind == detail::OpKind::kAllreduceMax) {
        reduce([](T acc, T v) { return v > acc ? v : acc; });
      } else {
        reduce([](T acc, T v) { return acc + v; });
      }
      op.charge(2.0 * ceil_log2(p),
                2 * n * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAlltoallv: {
      // Rank r's chunk for this rank is [offs_r[me], offs_r[me+1]) of its
      // send buffer; the self chunk is not charged.
      auto& out = *static_cast<Gathered<T>*>(a.out);
      const auto chunk_len = [&](int r) {
        const auto* offs = static_cast<const std::size_t*>(
            ch.ptr2[static_cast<std::size_t>(r)]);
        return offs[me + 1] - offs[me];
      };
      out.offsets.resize(static_cast<std::size_t>(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        const auto s = static_cast<std::size_t>(r);
        out.offsets[s + 1] = out.offsets[s] + chunk_len(r);
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        const std::size_t len = chunk_len(r);
        if (len == 0) continue;
        const auto* offs = static_cast<const std::size_t*>(
            ch.ptr2[static_cast<std::size_t>(r)]);
        std::memcpy(out.data.data() + out.offsets[static_cast<std::size_t>(r)],
                    source(r) + offs[me], len * sizeof(T));
      }
      op.charge(p > 1 ? static_cast<double>(p - 1) : 0.0,
                (out.data.size() - chunk_len(op.rank_)) * sizeof(T));
      break;
    }
    case detail::OpKind::kRoute: {
      int src = -1;
      for (int r = 0; r < p; ++r) {
        if (ch.root[static_cast<std::size_t>(r)] == op.rank_) {
          src = r;
          break;
        }
      }
      CAGNET_CHECK(src >= 0, "route: destinations do not form a permutation");
      auto& recv = *static_cast<std::vector<T>*>(a.out);
      recv.resize(ch.len[static_cast<std::size_t>(src)]);
      if (!recv.empty()) {
        std::memcpy(recv.data(), source(src), recv.size() * sizeof(T));
      }
      if (src != op.rank_) op.charge(1.0, recv.size() * sizeof(T));
      break;
    }
    case detail::OpKind::kBarrier:
      break;
    case detail::OpKind::kNone:
      CAGNET_CHECK(false, "completing an unarmed PendingOp");
  }
}

/// Launch a world of `p` ranks, each running `fn(comm)` on its own thread.
/// Rethrows the first rank exception after joining all threads. Peers
/// blocked anywhere — nonblocking waits, per-source drains, or blocking
/// collectives, on the world or any split sub-communicator — are released
/// by the abort machinery (every channel counter is poison-wakeable) and
/// unwind with a typed CommAborted naming their rank, op, and category. The thread pool and
/// the process-wide knobs are untouched by an abort, so the caller may
/// immediately launch a fresh world (the recovery driver in
/// src/core/recovery.hpp does). The world consults the process-global
/// fault plan (src/comm/fault.hpp) at entry; with none installed the
/// transport seam is inert. If `meters_out` is non-null it receives each
/// rank's final CostMeter.
void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out = nullptr);

}  // namespace cagnet
