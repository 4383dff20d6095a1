// Discrete-event simulation engine — the PeerSim substitute, sharded for
// multiple cores.
//
// The paper evaluates Locaware on PeerSim's event-driven framework, which
// models per-link latencies but neither bandwidth nor CPU (paper §5.1). This
// engine reproduces exactly that model — an event loop over time-ordered
// queues — and is the only engine there is: at one shard it is a plain
// sequential loop on the caller's thread.
//
// Peers (event destinations) are partitioned across K shards; a pool of W
// worker threads (W <= K, default W = K) executes them under a
// topology-aware conservative scheduler:
//
//  * Per-shard-pair lookahead. Instead of one scalar bound ("no cross-shard
//    event arrives sooner than the global minimum link latency"), the
//    scheduler takes a K x K matrix LA where LA[s][d] lower-bounds the delay
//    of any event shard s creates for shard d. Each window, every shard d
//    gets its own end
//
//        end[d] = min over s != d of (L[s] + LA[s][d])
//
//    where L[s] is the earliest instant shard s could possibly execute any
//    event — the fixpoint of L[s] = min(T_s, min over e of L[e] + LA[e][s])
//    over the current per-shard next-event times T_s (the transitive closure
//    matters: an empty shard still relays causality at its incoming-edge
//    horizons). Shards whose incoming edges are all long-latency run deep
//    windows while nearby shards stay tightly coupled, so one close pair no
//    longer throttles the whole fleet. A scalar lookahead is the uniform
//    matrix, and the single-shard case runs inline with no windows at all.
//
//  * Deterministic intra-window work stealing, always on. Within a window
//    each shard's runnable prefix (its events strictly before end[d]) is one
//    sequential task; workers claim tasks atomically, own-shard-block first,
//    then steal whole remaining shard sub-queues. A stolen shard's events
//    still execute one at a time in (time, source, seq) order against that
//    shard's own state — stealing moves *which thread* runs a shard, never
//    the order or the ownership — so results are byte-identical for every
//    worker count. Over-decomposition (K > W) is what gives the thief
//    something to take: a skewed shard keeps one worker busy while the
//    others drain the rest.
//
// How much the matrix beats the scalar bound is decided upstream, by the
// peer → shard map (sim::ShardPlacement, built once at Engine::Create). The
// historical modulo partition spreads every underlay location across every
// shard, so each LA[s][d] mins over near-identical location sets and the
// matrix collapses toward the scalar floor; the locality-clustered placement
// gives each shard a spatially tight location set, which is what makes the
// off-diagonal bounds — and the window depths they permit — actually large.
// Either way the placement is a wall-clock knob only: results are identical
// for every placement strategy (see the determinism contract below).
//
// One barrier per window. Cross-shard sends are appended to per-(src-shard,
// dst-shard) mailboxes with two sides: a window sends into one, and each
// claimed shard task first drains the other — the mail the previous window
// sent it — before running its window. The barrier hook, run while every
// worker is parked, takes each T_s as the minimum of the shard's queue head
// and its earliest pending mail, then flips the sides. That mail was created
// in the window that just ended, so it lands at or after that window's
// end[d]: no drain can deliver an event that predates execution already done.
//
// Events are *inline values* (see sim/event_queue.h): an EventFn stores its
// capture inside the entry — move-only, nothrow-movable, no heap fallback —
// so a mailbox append, a mailbox drain, and a heap sift are all plain
// relocations that never touch the allocator, and a capture that outgrows
// kEventInlineBytes is a compile error at the ScheduleAt site rather than a
// silent per-event malloc. Closures crossing shards must therefore carry
// their payload by value (or share a big immutable one via shared_ptr): the
// relocation through the mailbox is also what makes the handoff thread-safe,
// since the capture is owned by exactly one shard's storage at every moment.
//
// Determinism contract (the reason sharding never changes results): every
// event carries a (time, source, per-source sequence) key assigned at
// creation, where `source` is the *logical* creator (a peer, not a thread or
// shard). Queues pop in key order, and the conservative windows guarantee a
// cross-shard event is enqueued before any event with a larger key executes
// at its destination. Per-destination execution order is therefore a pure
// function of the simulation — identical for every shard count, worker
// count, and lookahead bound, including 1 shard. Callers must keep event
// handlers shard-local (mutate only state owned by the destination's shard)
// and derive any randomness from stable identities rather than shared
// sequential streams.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/shard.h"
#include "sim/sim_time.h"

namespace locaware::sim {

/// Construction parameters for the sharded engine.
struct ShardedSimulatorConfig {
  /// Number of shards (event-queue partitions). 1 runs inline on the
  /// caller's thread with no windows or barriers — the sequential fast path.
  uint32_t num_shards = 1;
  /// Worker threads executing the shards. 0 means one per shard; values
  /// above num_shards are clamped down. Fewer workers than shards
  /// over-decomposes the run, which is what gives work stealing something
  /// to take.
  uint32_t num_workers = 0;
  /// Scalar conservative lookahead: a positive lower bound on the delay of
  /// every cross-shard event. Used for every shard pair without a matrix
  /// entry. Unused (may be 0) when num_shards == 1 or a full matrix is given.
  SimTime lookahead = 0;
  /// Optional K x K row-major matrix of per-shard-pair lower bounds:
  /// entry [src * K + dst] bounds the delay of events src creates for dst.
  /// Off-diagonal entries must be positive; diagonal entries are ignored
  /// (intra-shard scheduling is unconstrained). Empty means "use the scalar
  /// lookahead everywhere".
  std::vector<SimTime> lookahead_matrix;
  /// Size of the source-id space (ids are [0, num_sources)). Source 0 is
  /// conventionally the controller; the engine maps peer p to source p + 1.
  SourceId num_sources = 1;
};

/// Lifetime counters of the parallel scheduler (all zero for single-shard
/// runs, which need no windows). `idle_ns` is wall-clock and therefore the
/// one non-deterministic quantity here — report it in benches, never in
/// byte-compared artifacts.
struct SchedulerStats {
  uint64_t windows = 0;   ///< synchronization windows completed
  /// Non-empty shard windows executed by a non-home worker (idle claims of
  /// event-less shards are not steals — this counts relocated work).
  uint64_t steals = 0;
  uint64_t idle_ns = 0;   ///< summed worker wait at the window barrier
};

/// \brief K event queues over W worker threads under per-pair conservative
/// windows with intra-window work stealing.
///
/// Typical use:
///   ShardedSimulator sim({.num_shards = 4, .lookahead = FromMs(5), ...});
///   sim.ScheduleAt(dst_shard, src, at, fn);   // pre-run, from the controller
///   sim.Run(horizon);                          // spawns workers, joins them
///
/// Scheduling rules:
///  - Before/after Run(): any (dst, src, at) is accepted (controller phase).
///  - Inside an event handler: intra-shard events may target any time >= the
///    shard clock; cross-shard events must satisfy `at >= end[dst]` (which
///    the per-pair lookahead bound guarantees for real message delays).
///    Violations CHECK-fail rather than silently reorder.
///  - Each source's events must only ever be created from one shard (the
///    shard owning that source's peer) — single-writer sequence counters.
///    The one exception writes no counter: the controller may reserve a
///    block of a source's sequence numbers (ReserveSequence) and shards
///    then spend them on intra-shard pushes (ScheduleReserved).
class ShardedSimulator {
 public:
  explicit ShardedSimulator(const ShardedSimulatorConfig& config);

  // Not copyable/movable: event callbacks routinely capture `this`.
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Schedules `fn` at absolute time `at` on shard `dst`, created by logical
  /// source `src`. See the class comment for the phase rules.
  void ScheduleAt(ShardId dst, SourceId src, SimTime at, EventFn fn);

  /// Takes the next `count` sequence numbers of source `src` and returns the
  /// first. Controller phase only. The caller spends them through
  /// ScheduleReserved, possibly much later and from the shard each event
  /// belongs to — which is how the engine streams query arrivals under the
  /// exact keys an up-front schedule would have given them.
  uint64_t ReserveSequence(SourceId src, uint64_t count);

  /// Schedules `fn` on shard `dst` under the caller-reserved key (at, src,
  /// seq), which must come from ReserveSequence and be spent once. Writes no
  /// sequence counter, so the single-writer rule still holds. Inside an event
  /// handler only intra-shard pushes are allowed.
  void ScheduleReserved(ShardId dst, SourceId src, uint64_t seq, SimTime at,
                        EventFn fn);

  /// Current time: the executing shard's clock inside an event handler, the
  /// last Run()'s final time (max over shards) on the controller thread.
  SimTime Now() const;

  /// Runs until every queue and mailbox drains, or `horizon` is crossed
  /// (events at t > horizon stay queued). Returns events executed by this
  /// call. num_shards == 1 runs inline; otherwise spawns the worker pool and
  /// joins it before returning.
  uint64_t Run(SimTime horizon = kNoHorizon);

  /// Pre-allocates shard `shard`'s event-queue capacity.
  void ReserveEvents(ShardId shard, size_t expected_events);

  /// Shard the calling thread is executing events for, or kNoShard outside
  /// event execution (controller thread, tests).
  static ShardId current_shard();

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t num_workers() const { return num_workers_; }
  /// The lookahead bound the scheduler uses for events src creates for dst
  /// (the matrix entry, or the scalar fallback). Meaningless for src == dst.
  SimTime LookaheadBetween(ShardId src, ShardId dst) const;
  SimTime lookahead() const { return lookahead_; }

  /// Total events executed over the simulator's lifetime.
  uint64_t executed_count() const;
  /// Events currently queued across all shards and mailboxes.
  size_t pending_count() const;
  /// Sum over shards of each queue's high-water mark: an upper bound on the
  /// events ever queued at once (exact at one shard). Reporting only — it
  /// depends on the shard count and on when mailboxes drain, so it stays
  /// out of metric JSON.
  size_t queued_high_water() const;
  /// Sum over shards of the capacity last asked for with ReserveEvents: the
  /// budget queued_high_water() should stay within. Reporting only, like it.
  size_t reserved_events() const;
  /// Synchronization windows completed over the simulator's lifetime (0 for
  /// single-shard runs, which need none).
  uint64_t windows() const { return windows_; }
  /// Snapshot of the scheduler counters. Call between runs, not during one.
  SchedulerStats stats() const;

  static constexpr SimTime kNoHorizon = INT64_MAX;

 private:
  /// Events one shard sends another, and the earliest of their times. Padded
  /// so no two share a cache line: within a window each destination's task
  /// empties its own mailboxes on one side while senders append on the other.
  struct alignas(64) Mailbox {
    std::vector<ShardEvent> events;
    SimTime min_time = kNoHorizon;
  };

  /// One shard's private state. Padded so adjacent shards' hot fields do not
  /// share cache lines.
  struct alignas(64) Shard {
    EventQueue queue;
    size_t reserved = 0;  ///< last ReserveEvents request
    SimTime now = 0;
    uint64_t executed = 0;
    /// outbox[side][d]: events bound for shard d. A window sends into side
    /// send_; shard d's task drains side send_ ^ 1 in the window after.
    std::array<std::vector<Mailbox>, 2> outbox;
  };

  uint64_t RunSingle(SimTime horizon);
  void WorkerLoop(uint32_t worker, SimTime horizon);
  /// Drains the mail the last window sent shard `sid`, then executes its
  /// events strictly before window_ends_[sid].
  void RunShardWindow(ShardId sid);
  /// Barrier hook: seeds every shard's T_s from its queue head and its
  /// pending mail, derives the window ends from the per-pair lookahead
  /// fixpoint and flips the mailbox side, or flags completion.
  void BeginWindow(SimTime horizon);
  /// Claims the next unclaimed shard for `worker` (home block first, then
  /// steals), or kNoShard when none remain.
  ShardId ClaimShard(uint32_t worker);

  SimTime La(ShardId src, ShardId dst) const {
    return lookahead_matrix_.empty() ? lookahead_
                                     : lookahead_matrix_[src * shards_.size() + dst];
  }

  std::vector<Shard> shards_;
  std::vector<uint64_t> next_seq_;  ///< per-source; single-writer by contract
  SimTime lookahead_ = 0;
  std::vector<SimTime> lookahead_matrix_;  ///< K*K row-major, empty = scalar
  uint32_t num_workers_ = 1;
  ShardBarrier barrier_;

  // Per-window claim state: one flag per shard, reset under the barrier lock.
  // Claiming is the only inter-worker communication inside a window; the
  // shard a worker wins is drained and run exactly once, sequentially.
  std::unique_ptr<std::atomic<uint8_t>[]> claims_;

  // Window state, written only by the barrier completion hook (and
  // therefore ordered by the barrier) or before workers start.
  std::vector<SimTime> earliest_;     ///< T_s, then the fixpoint; T_s after Run
  std::vector<SimTime> window_ends_;  ///< per-shard window bound
  uint32_t send_ = 0;                 ///< outbox side this window sends into
  bool done_ = false;
  bool running_ = false;
  SimTime controller_now_ = 0;
  uint64_t windows_ = 0;

  // Scheduler stats; steals/idle are touched concurrently by workers.
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> idle_ns_{0};
};

}  // namespace locaware::sim
