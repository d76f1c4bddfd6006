#include "src/comm/comm.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "src/util/parallel.hpp"
#include "src/util/profiler.hpp"

namespace cagnet {

namespace {

/// ScopedPhase over a nullable profiler: the compressed collectives time
/// their codec and wait work only when the caller supplied one.
class MaybePhase {
 public:
  MaybePhase(Profiler* profiler, Phase phase) {
    if (profiler != nullptr) scope_.emplace(*profiler, phase);
  }

 private:
  std::optional<ScopedPhase> scope_;
};

}  // namespace

double ceil_log2(int p) {
  CAGNET_CHECK(p >= 1, "ceil_log2 of non-positive value");
  double bits = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    bits += 1;
  }
  return bits;
}

namespace detail {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kNone:
      return "none";
    case OpKind::kBcast:
      return "ibroadcast_from";
    case OpKind::kReduceScatter:
      return "ireduce_scatter_sum";
    case OpKind::kAllgatherv:
      return "iallgatherv_into";
    case OpKind::kAllreduce:
      return "iallreduce_sum";
    case OpKind::kAllreduceMax:
      return "allreduce_max";
    case OpKind::kAlltoallv:
      return "ialltoallv";
    case OpKind::kRoute:
      return "route";
    case OpKind::kBarrier:
      return "barrier";
  }
  return "?";
}

void throw_peer_aborted(const OpContext& ctx, FaultSite site) {
  throw CommAborted(ctx.rank, ctx.op, ctx.cat, site, "a peer rank failed");
}

std::string order_mismatch(const OpContext& ctx, int peer, OpKind got) {
  std::string msg = "collective: ranks disagree on op order: rank ";
  msg += std::to_string(ctx.rank);
  msg += " waiting on ";
  msg += ctx.op;
  msg += " [";
  msg += comm_category_name(ctx.cat);
  msg += "], rank ";
  msg += std::to_string(peer);
  msg += " posted ";
  msg += op_kind_name(got);
  return msg;
}

std::string count_mismatch(const OpContext& ctx, std::size_t mine, int peer,
                           std::size_t theirs) {
  return std::string(ctx.op) + " [" + comm_category_name(ctx.cat) +
         "]: ranks disagree on element count (rank " +
         std::to_string(ctx.rank) + " passed " + std::to_string(mine) +
         ", rank " + std::to_string(peer) + " passed " +
         std::to_string(theirs) + ")";
}

void AbortHub::register_state(const std::shared_ptr<CommState>& state) {
  std::lock_guard<std::mutex> lock(mutex);
  states.push_back(state);
  // A checked state is also retained strongly: run_world audits every
  // communicator (world and splits) after the rank threads joined, by
  // which time the ranks' own refs to split states are gone.
  if (state->checker != nullptr) checked_states.push_back(state);
}

void AbortHub::poison() {
  aborted.store(true);
  std::lock_guard<std::mutex> lock(mutex);
  for (const auto& weak : states) {
    const auto state = weak.lock();
    if (!state) continue;
    // Any value change wakes parked waiters; they observe the flag and
    // unwind. The counters are meaningless once the world is dead. The
    // blocking lane is one of the channels, so this also releases peers
    // parked in a blocking collective, on split sub-communicators too.
    for (const auto& channel : state->channels) {
      channel->posted.fetch_add(1, std::memory_order_release);
      channel->posted.notify_all();
      channel->finished.fetch_add(1, std::memory_order_release);
      channel->finished.notify_all();
      for (auto& by : channel->posted_by) {
        by.fetch_add(1, std::memory_order_release);
        by.notify_all();
      }
    }
  }
}

// [[hot-path]]
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const std::atomic<bool>& aborted, const OpContext& ctx) {
  // Fast path: the double-buffered loops post a whole compute stage before
  // they wait, so the counter usually already covers the target. When it
  // does not, park on the counter's futex — on an oversubscribed host the
  // cycles a spinning waiter would burn are cycles the rank it waits on
  // needs, and a sleep loop pays its wake-up latency on every sync.
  std::uint64_t cur = counter.load(std::memory_order_acquire);
  int spins = 0;
  while (cur < target) {
    if (aborted.load(std::memory_order_relaxed)) {
      throw_peer_aborted(ctx, FaultSite::kWait);
    }
    if (++spins <= 4) {
      std::this_thread::yield();  // let the posting rank run first
    } else {
      waiters.fetch_add(1, std::memory_order_seq_cst);
      counter.wait(cur, std::memory_order_seq_cst);
      waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
    cur = counter.load(std::memory_order_acquire);
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw_peer_aborted(ctx, FaultSite::kWait);
  }
}

namespace {

/// Block until every rank but `rank` has left its slot-reading regions.
/// Abort-path only; must not throw (it runs inside unwinds), and `rank`
/// must hold no open region itself. Terminates because every open region
/// exits in bounded time once the world is poisoned: parked readers are
/// woken by the poison bumps and throw at their abort checks, active
/// readers throw at their next await, and each region exit under an
/// aborted world notifies this waiter.
void await_window_drain(CommState& st, int rank) noexcept {
  for (int r = 0; r < st.size; ++r) {
    if (r == rank) continue;
    auto& depth = st.in_collective[static_cast<std::size_t>(r)];
    // The acquire load pairs with the region exit's release decrement:
    // everything the reader did inside the region happens-before this
    // rank's subsequent buffer frees.
    int cur = depth.load(std::memory_order_acquire);
    while (cur > 0) {
      depth.wait(cur, std::memory_order_acquire);
      cur = depth.load(std::memory_order_acquire);
    }
  }
}

}  // namespace

CollectiveWindow::~CollectiveWindow() {
  if (!outer_) return;
  const bool unwinding = std::uncaught_exceptions() > entry_exceptions_;
  if (unwinding) {
    // Poison before closing the region: once the flag is up (seq_cst, as
    // is the region entry), no peer can pass an abort check and start a
    // new read of this rank's published buffers — any later region entry
    // is ordered after the poison in the seq_cst total order, so its
    // first await observes the flag and throws before touching a slot.
    st_.hub->poison();
  }
  auto& me = st_.in_collective[static_cast<std::size_t>(rank_)];
  me.fetch_sub(1, std::memory_order_release);
  if (st_.hub->aborted.load(std::memory_order_seq_cst)) {
    me.notify_all();  // a dying peer may be draining our region
    // Close-own-then-wait: this rank's region is already closed, so two
    // ranks dying at once drain each other without a cycle. Only after
    // every straggling reader left may the unwind free this rank's
    // published sources.
    await_window_drain(st_, rank_);
  }
}

}  // namespace detail

void Comm::barrier() {
  check_valid("barrier");
  run_blocking({rank_, CommCategory::kControl, "barrier"},
               {.kind = detail::OpKind::kBarrier,
                .complete = &PendingOp::complete_impl<unsigned char>},
               detail::Lane::kRendezvous);
}

void Comm::quiesce() const {
  check_valid("quiesce");
  const detail::OpContext ctx{rank_, CommCategory::kControl, "quiesce"};
  auto& st = *state_;
  // A release point frees this rank's sources once it returns; if the
  // world dies while it waits, the window drains peers still reading them
  // before the unwind frees them.
  detail::CollectiveWindow window(st, rank_);
  // All ranks post in the same program order, so this rank's ticket count
  // is the communicator-wide count of posted ops. Channel C carried the
  // tickets congruent to C mod K; each must be finished by every rank.
  const std::uint64_t n = st.next_ticket[static_cast<std::size_t>(rank_)];
  for (std::uint64_t c = 0; c < detail::kAsyncChannels; ++c) {
    if (n <= c) break;
    const std::uint64_t ops_on_channel =
        (n - 1 - c) / static_cast<std::uint64_t>(detail::kAsyncChannels) + 1;
    detail::await_counter(
        st.channels[c]->finished, st.channels[c]->waiters,
        static_cast<std::uint64_t>(st.size) * ops_on_channel,
        st.hub->aborted, ctx);
  }
}

void Comm::quiesce_op(std::uint64_t ticket) const {
  check_valid("quiesce_op");
  const detail::OpContext ctx{rank_, CommCategory::kControl, "quiesce_op"};
  auto& st = *state_;
  if (auto* ck = st.checker.get()) ck->on_release(rank_, ticket, ctx.op);
  detail::CollectiveWindow window(st, rank_);  // as in quiesce()
  // Generations on a channel complete strictly in order (the recycle gate
  // serializes them), so finishing this op's generation implies the op —
  // and nothing on any other channel — is globally finished.
  auto& ch = st.channel(detail::Lane::kRing, ticket);
  const std::uint64_t gen =
      detail::CommState::generation(detail::Lane::kRing, ticket);
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * (gen + 1),
                        st.hub->aborted, ctx);
}

PendingOp Comm::post_async(detail::Lane lane, const detail::OpContext& ctx,
                           bool charged, const detail::PostArgs& args) const {
  auto& st = *state_;
  const auto rank = static_cast<std::size_t>(rank_);
  const bool ring = lane == detail::Lane::kRing;
  CAGNET_CHECK(
      !ring || st.outstanding[rank] < detail::kAsyncChannels,
      "too many posted-but-unwaited nonblocking collectives on one "
      "communicator (max 16 in flight per rank); wait() some first");
  if (lane != detail::Lane::kRendezvous) {
    detail::seam_event(st, ctx, FaultSite::kPost);
  }
  const std::uint64_t ticket =
      ring ? st.next_ticket[rank]++ : st.next_blocking[rank]++;
  auto& ch = st.channel(lane, ticket);
  const std::uint64_t gen = detail::CommState::generation(lane, ticket);
  // Recycle gate: every rank must have finished the channel's previous
  // generation before its slots may be overwritten.
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * gen,
                        st.hub->aborted, ctx);
  if (auto* ck = st.checker.get(); ck != nullptr && ring) {
    // Re-assert the gate with the value this rank just observed, and audit
    // ticket issuance, before any slot is overwritten.
    ck->on_post(rank_, ticket, ctx.op, ctx.cat,
                ch.finished.load(std::memory_order_acquire),
                static_cast<std::uint64_t>(st.size) * gen);
  }
  ch.ptr[rank] = args.ptr;
  ch.ptr2[rank] = args.ptr2;
  ch.len[rank] = args.len;
  ch.kind[rank] = args.kind;
  ch.root[rank] = args.root;
  // Per-rank counter first: a per-source drainer that sees it also sees
  // the slot writes above (release/acquire through the counter).
  detail::bump_counter(ch.posted_by[rank], ch.waiters);
  detail::bump_counter(ch.posted, ch.waiters);
  if (ring) st.outstanding[rank]++;

  PendingOp op;
  op.state_ = state_;
  op.rank_ = rank_;
  op.meter_ = meter_;
  op.ticket_ = ticket;
  op.cat_ = ctx.cat;
  op.op_ = ctx.op;
  op.lane_ = lane;
  op.charged_ = charged && lane != detail::Lane::kRendezvous;
  op.args_ = args;
  return op;
}

void PendingOp::wait() {
  if (!pending()) {
    // The no-op is the documented idempotent behaviour; under the
    // contract checker a repeated wait on a completed handle is a
    // diagnosed misuse (it usually means two owners think they complete
    // the same op).
    if (waited_) contract::diagnose_double_wait(rank_, op_, cat_);
    return;
  }
  // A handle can legally outlive its Comm (the teardown audit diagnoses
  // it, but diagnosing requires surviving it): hold the state so the
  // window and channel stay valid past the state_.reset() below even when
  // this handle carried the last reference.
  const std::shared_ptr<detail::CommState> keep = state_;
  auto& st = *keep;
  detail::CollectiveWindow window(st, rank_);
  auto& ch = channel();
  // A broadcast root moves no data and reads no peer slot at its own
  // wait: it completes passively (charge + bookkeeping) without awaiting
  // peers' posts, so stage roots never stall on stragglers. Its source —
  // like every op source — stays readable until the communicator's
  // release point (quiesce / quiesce_op, or the end of a blocking
  // collective). Per-source-drain alltoallvs likewise skip the aggregate
  // await: their completer awaits exactly the sources still undrained, so
  // a rank that drained or skipped every source never stalls on peers it
  // needs nothing from.
  const bool passive_root =
      args_.kind == detail::OpKind::kBcast && rank_ == args_.root;
  const detail::OpContext ctx{rank_, cat_, op_};
  if (lane_ != detail::Lane::kRendezvous) {
    detail::seam_event(st, ctx, FaultSite::kWait);
  }
  if (!passive_root && !per_source_drain()) {
    detail::await_counter(ch.posted, ch.waiters,
                          static_cast<std::uint64_t>(st.size) *
                              (generation() + 1),
                          st.hub->aborted, ctx);
  }
  args_.complete(*this);
  detail::bump_counter(ch.finished, ch.waiters);
  if (lane_ == detail::Lane::kRing) {
    st.outstanding[static_cast<std::size_t>(rank_)]--;
    if (auto* ck = st.checker.get()) ck->on_complete(rank_);
  }
  waited_ = true;
  state_.reset();
}

void PendingOp::complete_for_destroy() noexcept {
  if (!pending()) return;
  if (std::uncaught_exceptions() > 0) {
    // Destroyed by an unwind: this rank is failing. Completing here would
    // let the unwind go on to free this rank's sources while a peer's own
    // wait still copies from them — and a window opened now would count
    // the unwind's exception as its entry state and never poison. So
    // poison first (no peer starts a new read), drain the reads already
    // under way, and leave the op incomplete.
    const std::shared_ptr<detail::CommState> st = std::move(state_);
    st->hub->poison();
    // An open window of this rank drains as it closes; draining here too
    // would wait on peers that wait on that window.
    if (st->in_collective[static_cast<std::size_t>(rank_)].load(
            std::memory_order_relaxed) == 0) {
      detail::await_window_drain(*st, rank_);
    }
    return;
  }
  try {
    wait();
  } catch (...) {
    // A failed world: peers were released by the abort flag; there is
    // nothing left to complete.
    state_.reset();
  }
}

void Comm::run_blocking(const detail::OpContext& ctx,
                        const detail::PostArgs& args,
                        detail::Lane lane) const {
  // Declared before the window, so an unwind closes the window (poison,
  // drain) before the still-pending op is abandoned.
  PendingOp op;
  detail::CollectiveWindow window(*state_, rank_);
  op = post_async(lane, ctx, /*charged=*/true, args);
  auto& ch = op.channel();
  const std::uint64_t gen = op.generation();
  op.wait();
  // Release: every member has completed the op, so no peer still reads
  // this rank's sources and the caller may reuse them at once.
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(size()) * (gen + 1),
                        state_->hub->aborted, ctx);
}

Comm Comm::split(int color, int key) const {
  CAGNET_CHECK(valid(), "split on an invalid communicator");
  const detail::OpContext ctx{rank_, CommCategory::kControl, "split"};
  const auto rendezvous = [&](const detail::PostArgs& args) {
    run_blocking(ctx, args, detail::Lane::kRendezvous);
  };

  // Round 1: every member learns every member's (color, key).
  const std::array<int, 2> mine{color, key};
  Gathered<int> all;
  rendezvous(allgatherv_args(std::span<const int>(mine), all));
  std::vector<std::pair<int, int>> group;  // (key, parent rank) per member
  for (int r = 0; r < size(); ++r) {
    if (all.chunk(r)[0] == color) group.emplace_back(all.chunk(r)[1], r);
  }
  std::sort(group.begin(), group.end());
  const int new_rank = static_cast<int>(
      std::find(group.begin(), group.end(), std::make_pair(key, rank_)) -
      group.begin());

  // Round 2: each group's first member makes the sub-communicator (it
  // registers with the world's abort hub, so failures anywhere wake its
  // waiters too) and every member copies a reference to it.
  using StatePtr = std::shared_ptr<detail::CommState>;
  StatePtr made;
  if (new_rank == 0) {
    made = std::make_shared<detail::CommState>(
        static_cast<int>(group.size()), state_->hub);
    state_->hub->register_state(made);
  }
  const auto published =
      reinterpret_cast<std::uintptr_t>(made ? &made : nullptr);
  Gathered<std::uintptr_t> leaders;
  rendezvous(allgatherv_args(std::span<const std::uintptr_t>(&published, 1),
                             leaders));
  StatePtr state = *reinterpret_cast<const StatePtr*>(
      leaders.chunk(group.front().second)[0]);

  // Round 3: `made` must outlive every member's copy of it.
  rendezvous({.kind = detail::OpKind::kBarrier,
              .complete = &PendingOp::complete_impl<unsigned char>});
  return Comm(std::move(state), new_rank, meter_);
}

void PendingCompressedReduce::wait() {
  if (!pending()) return;
  const std::shared_ptr<detail::CommState> st = std::move(state_);
  const char* op_name = scatter_ ? "ireduce_scatter_sum_compressed"
                                 : "iallreduce_sum_compressed";
  // The decode's charge below is attributed to the byte gather, so audit
  // it while that op is still open.
  if (auto* ck = st->checker.get()) {
    ck->on_charge(rank_, op_name, CommCategory::kCompressed);
  }
  CompressBuf& buf = *buf_;
  buf_ = nullptr;
  {
    MaybePhase scope(profiler_, Phase::kDenseComm);
    op_.wait();
  }
  const int p = size_;
  const std::size_t enc = encoded_size_bytes(mode_, n_);
  MaybePhase scope(profiler_, Phase::kCompressPack);
  if (!scatter_) {
    for (int r = 0; r < p; ++r) {
      CAGNET_CHECK(
          buf.recv.chunk(r).size() == enc,
          "iallreduce_sum_compressed: ranks disagree on element count");
    }
    // Decode-sum in ascending rank order (matching the exact all-reduce's
    // per-element accumulation order), identically on every rank.
    buf.scratch.resize(n_);
    for (int r = 0; r < p; ++r) {
      const std::uint8_t* bytes = buf.recv.chunk(r).data();
      if (r == 0) {
        compress_decode(mode_, bytes, n_, out_);
      } else {
        compress_decode(mode_, bytes, n_, buf.scratch.data());
        for (std::size_t i = 0; i < n_; ++i) out_[i] += buf.scratch[i];
      }
    }
    // Whole wire bytes, like the exact collectives: a fractional byte
    // count would make epoch sums depend on charge order.
    const std::size_t wire =
        2 * enc * static_cast<std::size_t>(p - 1) / static_cast<std::size_t>(p);
    meter_->add(CommCategory::kCompressed, 2.0 * ceil_log2(p),
                static_cast<double>(wire) / sizeof(Real));
    return;
  }
  // Reduce-scatter wire format per rank: [u64 out-length][encoded full
  // contribution]. The headers give every rank the chunk boundaries (the
  // out sizes may differ per rank); each rank decodes only its own slice
  // of every contribution.
  std::size_t my_lo = 0;
  std::size_t total_out = 0;
  for (int r = 0; r < p; ++r) {
    const auto chunk = buf.recv.chunk(r);
    CAGNET_CHECK(
        chunk.size() == sizeof(std::uint64_t) + enc,
        "ireduce_scatter_sum_compressed: ranks disagree on element count");
    std::uint64_t out_len = 0;
    std::memcpy(&out_len, chunk.data(), sizeof(out_len));
    if (r == rank_) my_lo = total_out;
    total_out += static_cast<std::size_t>(out_len);
  }
  CAGNET_CHECK(total_out == n_,
               "reduce_scatter: contribution length != sum of outputs");
  // Zero, then accumulate ranks ascending — the exact form's order.
  std::fill(out_, out_ + out_len_, Real{0});
  buf.scratch.resize(out_len_);
  for (int r = 0; r < p; ++r) {
    compress_decode_range(mode_,
                          buf.recv.chunk(r).data() + sizeof(std::uint64_t),
                          n_, my_lo, my_lo + out_len_, buf.scratch.data());
    for (std::size_t i = 0; i < out_len_; ++i) out_[i] += buf.scratch[i];
  }
  const std::size_t wire = buf.recv.data.size() *
                           static_cast<std::size_t>(p - 1) /
                           static_cast<std::size_t>(p);
  meter_->add(CommCategory::kCompressed, ceil_log2(p),
              static_cast<double>(wire) / sizeof(Real));
}

PendingCompressedReduce Comm::iallreduce_sum_compressed(
    std::span<const Real> contrib, std::span<Real> out, CompressMode mode,
    CompressBuf& buf, Profiler* profiler) {
  check_valid("iallreduce_sum_compressed");
  CAGNET_CHECK(mode != CompressMode::kOff,
               "iallreduce_sum_compressed: mode must be a lossy codec (use "
               "iallreduce_sum for exact traffic)");
  CAGNET_CHECK(contrib.size() == out.size(),
               "iallreduce_sum_compressed: contrib/out length mismatch");
  rebind_compress_buf(buf, contrib.size());
  PendingCompressedReduce op;
  op.meter_ = meter_;
  op.profiler_ = profiler;
  op.mode_ = mode;
  op.out_ = out.data();
  op.out_len_ = out.size();
  op.n_ = contrib.size();
  op.rank_ = rank_;
  op.size_ = size();
  if (size() == 1) {
    if (!out.empty() && out.data() != contrib.data()) {
      std::memcpy(out.data(), contrib.data(), out.size() * sizeof(Real));
    }
    return op;  // exact self-reduction; nothing pending, nothing charged
  }
  {
    MaybePhase scope(profiler, Phase::kCompressPack);
    buf.send.resize(encoded_size_bytes(mode, contrib.size()));
    compress_encode(mode, contrib, buf.send.data(),
                    buf.error_feedback ? &buf.residual : nullptr);
  }
  op.op_ = iallgatherv_into(std::span<const std::uint8_t>(buf.send),
                            buf.recv, CommCategory::kCompressed,
                            /*charged=*/false);
  op.state_ = state_;
  op.buf_ = &buf;
  return op;
}

PendingCompressedReduce Comm::ireduce_scatter_sum_compressed(
    std::span<const Real> contrib, std::span<Real> out, CompressMode mode,
    CompressBuf& buf, Profiler* profiler) {
  check_valid("ireduce_scatter_sum_compressed");
  CAGNET_CHECK(mode != CompressMode::kOff,
               "ireduce_scatter_sum_compressed: mode must be a lossy codec "
               "(use ireduce_scatter_sum for exact traffic)");
  rebind_compress_buf(buf, contrib.size());
  PendingCompressedReduce op;
  op.meter_ = meter_;
  op.profiler_ = profiler;
  op.mode_ = mode;
  op.scatter_ = true;
  op.out_ = out.data();
  op.out_len_ = out.size();
  op.n_ = contrib.size();
  op.rank_ = rank_;
  op.size_ = size();
  if (size() == 1) {
    CAGNET_CHECK(out.size() == contrib.size(),
                 "reduce_scatter: contribution length != sum of outputs");
    if (!out.empty() && out.data() != contrib.data()) {
      std::memcpy(out.data(), contrib.data(), out.size() * sizeof(Real));
    }
    return op;
  }
  {
    MaybePhase scope(profiler, Phase::kCompressPack);
    const std::size_t enc = encoded_size_bytes(mode, contrib.size());
    buf.send.resize(sizeof(std::uint64_t) + enc);
    const std::uint64_t out_len = out.size();
    std::memcpy(buf.send.data(), &out_len, sizeof(out_len));
    compress_encode(mode, contrib, buf.send.data() + sizeof(std::uint64_t),
                    buf.error_feedback ? &buf.residual : nullptr);
  }
  op.op_ = iallgatherv_into(std::span<const std::uint8_t>(buf.send),
                            buf.recv, CommCategory::kCompressed,
                            /*charged=*/false);
  op.state_ = state_;
  op.buf_ = &buf;
  return op;
}

void Comm::allreduce_sum_compressed(std::span<Real> data, CompressMode mode,
                                    CompressBuf& buf, Profiler* profiler) {
  check_valid("allreduce_sum_compressed");
  PendingCompressedReduce op = iallreduce_sum_compressed(
      std::span<const Real>(data.data(), data.size()), data, mode, buf,
      profiler);
  if (!op.pending()) return;
  const std::uint64_t ticket = op.ticket();
  op.wait();
  // Trailing release rendezvous: the blocking contract lets the caller
  // rewrite buf.send (e.g. the next layer's encode) immediately, so wait
  // until every peer has copied this one.
  MaybePhase scope(profiler, Phase::kDenseComm);
  quiesce_op(ticket);
}

void Comm::reduce_scatter_sum_compressed(std::span<const Real> contrib,
                                         std::span<Real> out,
                                         CompressMode mode, CompressBuf& buf,
                                         Profiler* profiler) {
  check_valid("reduce_scatter_sum_compressed");
  PendingCompressedReduce op =
      ireduce_scatter_sum_compressed(contrib, out, mode, buf, profiler);
  if (!op.pending()) return;
  const std::uint64_t ticket = op.ticket();
  op.wait();
  MaybePhase scope(profiler, Phase::kDenseComm);
  quiesce_op(ticket);
}

namespace {

/// True for the "a peer rank failed" form of CommAborted: a casualty of
/// someone else's failure, not a root cause. Which rank wins the race to
/// run_world's error slot is timing-dependent (under TSan's scheduling a
/// casualty regularly beats the rank that actually died), so run_world
/// keeps the first *root-cause* error it sees and only reports a casualty
/// when nothing better ever arrives.
bool is_secondary_abort(const std::exception_ptr& error) noexcept {
  try {
    std::rethrow_exception(error);
  } catch (const CommAborted& e) {
    return e.cause() == "a peer rank failed";
  } catch (...) {
    return false;
  }
}

}  // namespace

void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out) {
  CAGNET_CHECK(p >= 1, "world size must be at least 1");
  auto hub = std::make_shared<detail::AbortHub>();
  // Capture the process-global fault schedule for this world's lifetime
  // (null keeps the transport seam inert). The lazy CAGNET_FAULT parse
  // happens here, on the launching thread, so a malformed spec is a
  // catchable Error at the run_world call site.
  hub->fault = fault_plan();
  auto state = std::make_shared<detail::CommState>(p, hub);
  hub->register_state(state);
  std::vector<CostMeter> meters(static_cast<std::size_t>(p));
  // P rank threads run concurrently; split the kernel thread budget among
  // them so nested SpMM parallelism cannot oversubscribe the host.
  ScopedThreadBudgetShare budget_share(p);

  std::exception_ptr first_error = nullptr;
  bool first_error_secondary = false;
  std::mutex error_mutex;

  // The rank threads ARE the simulated machine, not pool work — the one
  // sanctioned raw-thread site. lint:allow(naked-thread)
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(state, r, &meters[static_cast<std::size_t>(r)]);
      try {
        fn(comm);
      } catch (...) {
        // Classify the exception on its OWN thread, before publishing:
        // each rank owns its in-flight exception object, so reading it
        // here is race-free, whereas rethrowing the stored first_error
        // would read another rank's exception object while that rank's
        // unwind may be freeing it. The flag travels with the pointer.
        const bool mine_secondary =
            is_secondary_abort(std::current_exception());
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error || (first_error_secondary && !mine_secondary)) {
            first_error = std::current_exception();
            first_error_secondary = mine_secondary;
          }
        }
        // Poison every registered communicator state: the abort flag goes
        // up, then every channel counter is bumped and notified, so peers
        // parked anywhere — nonblocking waits, per-source drains, or
        // blocking collectives, on the world or any split
        // sub-communicator — wake, observe the flag, and unwind with a
        // typed CommAborted.
        hub->poison();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every checked state holds the hub, so the hub's strong refs to them
  // form a cycle: take them out, whichever way the world ended, and let
  // them go when this call returns or throws.
  std::vector<std::shared_ptr<detail::CommState>> checked;
  {
    std::lock_guard<std::mutex> lock(hub->mutex);
    checked.swap(hub->checked_states);
  }
  if (first_error) std::rethrow_exception(first_error);
  // Teardown audit (contract checker armed, non-abort path only — a
  // poisoned world tears down mid-op by design): every communicator this
  // world created, splits included, must have retired all its posted ops.
  for (const auto& state : checked) state->checker->verify_teardown();
  if (meters_out) *meters_out = std::move(meters);
}

}  // namespace cagnet
