// Shard primitives for the parallel discrete-event engine: shard/source ids,
// the batched cross-shard event record, and the reusable synchronization
// barrier the window loop runs on.
//
// Sharding model (see sharded_simulator.h for the full contract): peers are
// partitioned across K shards, each with its own event queue, executed by a
// pool of W <= K workers that claim shards per window — home block first,
// then any shard still unclaimed (work stealing). Shards only exchange events
// through per-(src-shard, dst-shard) mailboxes that are flushed at window
// barriers, so the hot path between barriers is lock-free — the claim flags
// and stat counters are the only shared atomics.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "sim/event_queue.h"
#include "sim/sim_time.h"

namespace locaware::sim {

/// Index of a shard (worker) inside a ShardedSimulator.
using ShardId = uint32_t;

/// Sentinel: "not executing on any shard" (controller thread, tests).
inline constexpr ShardId kNoShard = UINT32_MAX;

/// \brief One event in flight between shards.
///
/// Cross-shard sends are appended to the sender's outbox during a window and
/// moved into the destination shard's queue at the next barrier — the
/// "batch event delivery per (src, dst) link" lever: one vector append per
/// message instead of one synchronized heap push.
struct ShardEvent {
  SimTime time = 0;
  SourceId src = 0;
  uint64_t seq = 0;
  EventFn fn;
};

/// \brief Reusable counting barrier with a completion hook.
///
/// ArriveAndWait blocks until all `parties` threads arrive; the last arriver
/// runs `on_last` (under the barrier lock) before releasing the others. The
/// window loop uses the hook for its global min-time reduction, which is why
/// this is hand-rolled instead of std::barrier (whose completion functor is
/// fixed at construction).
///
/// Memory ordering: everything written by a thread before ArriveAndWait is
/// visible to every thread after the same barrier phase (the shared mutex
/// orders it), which is what makes the lock-free mailbox handoff sound.
class ShardBarrier {
 public:
  explicit ShardBarrier(uint32_t parties) : parties_(parties) {}

  ShardBarrier(const ShardBarrier&) = delete;
  ShardBarrier& operator=(const ShardBarrier&) = delete;

  /// Blocks until all parties arrive; the last arriver runs `on_last` first.
  template <typename F>
  void ArriveAndWait(F&& on_last) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t phase = phase_;
    if (++arrived_ == parties_) {
      on_last();
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return phase_ != phase; });
    }
  }

  /// Barrier without a completion hook.
  void ArriveAndWait() {
    ArriveAndWait([] {});
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const uint32_t parties_;
  uint32_t arrived_ = 0;
  uint64_t phase_ = 0;  ///< generation counter; wait predicate per phase
};

}  // namespace locaware::sim
