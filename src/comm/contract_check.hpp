// Runtime contract checker for the comm runtime.
//
// The nonblocking layer has a documented lifecycle discipline (DESIGN.md,
// "Nonblocking runtime and overlap accounting"): every posted PendingOp is
// waited or quiesced before its communicator is torn down, a channel slot
// is never republished before every rank has retired the previous
// generation, tickets are issued in monotone posting order, release
// requests name ops that were actually posted, and every CommCategory
// charge the runtime issues is attributed to an op that is open at charge
// time. Nothing enforced any of that at runtime — a violation surfaced as
// a deadlock, a corrupted meter, or silence. The Checker validates each
// rule at the runtime's own hook points and reports violations as typed
// ContractViolation diagnostics naming rank, op, and category, exactly
// like CommAborted does for injected faults.
//
// Cost model: one Checker per CommState (so split sub-communicators are
// covered), a handful of relaxed-ish atomics per hook, no locks, no
// allocation after construction. It is on by default in Debug builds and
// off in Release; CAGNET_CHECK=1 / CAGNET_CHECK=0 overrides either way.
// The checker only observes — enabling it never changes data movement,
// meter values, or result bits (tests/contract_test.cpp asserts bitwise
// identity of metered runs with the checker on and off).
//
// Scope note: the checker audits the nonblocking ring and the charges of
// its ops (PendingOp::charge, the compressed waits). A blocking collective
// is a post on a lane of its own that completes before its call returns,
// so it leaves no handle to audit and stays off the ledger. Core-layer
// cache replays that add to a CostMeter directly (the bounded-staleness
// epoch replay) are deliberate bypasses of the runtime and are outside
// its jurisdiction — see DESIGN.md, "Correctness tooling".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/comm/costmeter.hpp"
#include "src/util/error.hpp"

namespace cagnet {

/// Typed diagnostic for a comm-runtime lifecycle violation. Carries the
/// observing rank, the op's display name, and the traffic category, like
/// CommAborted — so a harness can assert on structure, not just text.
class ContractViolation : public Error {
 public:
  ContractViolation(int rank, const char* op, CommCategory cat,
                    const std::string& detail);

  int rank() const { return rank_; }
  const char* op() const { return op_; }
  CommCategory category() const { return cat_; }

 private:
  int rank_;
  const char* op_;
  CommCategory cat_;
};

namespace contract {

/// Whether the checker is armed for newly created communicators: the
/// CAGNET_CHECK env knob when set ("0"/"off" disables, anything else
/// enables), otherwise on in Debug builds (!NDEBUG) and off in Release.
bool enabled();

/// Test hook: force the checker on (1), off (0), or back to the
/// env/build-type default (-1). Affects communicators created after the
/// call; in-process only.
void set_enabled_for_testing(int value);

/// Diagnose a second wait() on an already-completed PendingOp. A no-op
/// when the checker is disabled (the documented idempotent-wait
/// behaviour); throws ContractViolation when armed. Out-of-line so the
/// hot wait() entry stays a flag test.
void diagnose_double_wait(int rank, const char* op, CommCategory cat);

/// Per-communicator lifecycle auditor. One instance lives in each
/// CommState (world and splits) when enabled() was true at construction.
/// All hooks are called from the owning rank's thread; the atomics exist
/// so verify_teardown may read from the launching thread after join and
/// so a future multi-threaded transport backend stays data-race-free.
class Checker {
 public:
  explicit Checker(int size);

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// A nonblocking post claimed `ticket` and is about to publish its
  /// channel slots. Validates monotone ticket issuance and re-asserts the
  /// recycle gate: `finished_count` (the channel's cumulative finished
  /// counter as observed by the poster) must have reached
  /// `recycle_target`, or the slot overwrite could race a parked reader
  /// of the previous generation.
  void on_post(int rank, std::uint64_t ticket, const char* op,
               CommCategory cat, std::uint64_t finished_count,
               std::uint64_t recycle_target);

  /// A posted op completed (waited, drained, or destroyed-and-completed).
  void on_complete(int rank);

  /// A meter charge is being issued. Legal only while the rank has an
  /// open op: a posted-but-uncompleted nonblocking op.
  void on_charge(int rank, const char* op, CommCategory cat);

  /// A release request (quiesce_op) named `ticket`. The ticket must have
  /// been issued by a post on this communicator.
  void on_release(int rank, std::uint64_t ticket, const char* op);

  /// End-of-world audit, called after every rank thread joined (and only
  /// on the non-abort path — a poisoned world tears down mid-op by
  /// design). Every posted op must be completed.
  void verify_teardown() const;

 private:
  struct PerRank {
    std::atomic<std::uint64_t> posted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> next_ticket{0};
    /// Display name of the most recent post, for teardown
    /// diagnostics. Points at string literals / static storage only.
    std::atomic<const char*> last_op{nullptr};
    std::atomic<int> last_cat{0};
  };

  PerRank& at(int rank);
  const PerRank& at(int rank) const;

  int size_;
  std::unique_ptr<PerRank[]> ranks_;
};

}  // namespace contract
}  // namespace cagnet
