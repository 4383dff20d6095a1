#include "sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"

namespace locaware::sim {

namespace {
/// Which shard the calling thread is executing events for. Thread-local so
/// several simulators (e.g. one engine per protocol in the figure benches)
/// can run concurrently on disjoint thread sets.
thread_local ShardId tls_current_shard = kNoShard;

/// t + delta without overflowing past the kNoHorizon sentinel.
inline SimTime SaturatingAdd(SimTime t, SimTime delta) {
  return (t > ShardedSimulator::kNoHorizon - delta) ? ShardedSimulator::kNoHorizon
                                                    : t + delta;
}
}  // namespace

ShardedSimulator::ShardedSimulator(const ShardedSimulatorConfig& config)
    : shards_(config.num_shards),
      next_seq_(config.num_sources, 0),
      lookahead_(config.lookahead),
      lookahead_matrix_(config.lookahead_matrix),
      num_workers_(config.num_workers == 0
                       ? config.num_shards
                       : std::min(config.num_workers, config.num_shards)),
      barrier_(num_workers_),
      local_min_(config.num_shards, kNoHorizon),
      earliest_(config.num_shards, kNoHorizon),
      window_ends_(config.num_shards, 0),
      executed_at_window_start_(config.num_shards, 0) {
  LOCAWARE_CHECK_GT(config.num_shards, 0u);
  LOCAWARE_CHECK_GT(config.num_sources, 0u);
  LOCAWARE_CHECK_GT(num_workers_, 0u);
  const uint32_t k = config.num_shards;
  if (k > 1) {
    if (lookahead_matrix_.empty()) {
      LOCAWARE_CHECK_GT(lookahead_, 0) << "multi-shard runs need positive lookahead";
    } else {
      LOCAWARE_CHECK_EQ(lookahead_matrix_.size(), static_cast<size_t>(k) * k)
          << "lookahead matrix must be num_shards^2 row-major";
      for (ShardId s = 0; s < k; ++s) {
        for (ShardId d = 0; d < k; ++d) {
          if (s == d) continue;
          LOCAWARE_CHECK_GT(lookahead_matrix_[s * k + d], 0)
              << "pairwise lookahead " << s << "->" << d << " must be positive";
        }
      }
    }
  }
  drain_claims_ = std::make_unique<std::atomic<uint8_t>[]>(k);
  exec_claims_ = std::make_unique<std::atomic<uint8_t>[]>(k);
  for (ShardId s = 0; s < k; ++s) {
    drain_claims_[s].store(0, std::memory_order_relaxed);
    exec_claims_[s].store(0, std::memory_order_relaxed);
  }
  for (Shard& shard : shards_) shard.outbox.resize(k);
}

ShardId ShardedSimulator::current_shard() { return tls_current_shard; }

SimTime ShardedSimulator::LookaheadBetween(ShardId src, ShardId dst) const {
  LOCAWARE_CHECK_LT(src, shards_.size());
  LOCAWARE_CHECK_LT(dst, shards_.size());
  return La(src, dst);
}

void ShardedSimulator::ScheduleAt(ShardId dst, SourceId src, SimTime at, EventFn fn) {
  LOCAWARE_CHECK_LT(src, next_seq_.size());
  const uint64_t seq = next_seq_[src]++;

  const ShardId cur = tls_current_shard;
  if (cur == kNoShard || dst == cur) {
    ScheduleReserved(dst, src, seq, at, std::move(fn));
    return;
  }
  LOCAWARE_CHECK_LT(dst, shards_.size());
  Shard& me = shards_[cur];
  LOCAWARE_CHECK_GE(at, me.now) << "scheduling into the past";
  // Conservative-window soundness: a remote event may only land at or beyond
  // the *destination's* window end, where it has provably not executed yet.
  // Real message delays satisfy this via the per-pair lookahead lower bound:
  // at = now + delay >= L[cur] + LA[cur][dst] >= end[dst].
  LOCAWARE_CHECK_GE(at, window_ends_[dst])
      << "cross-shard event inside the destination's lookahead window";
  me.outbox[dst].push_back(ShardEvent{at, src, seq, std::move(fn)});
}

uint64_t ShardedSimulator::ReserveSequence(SourceId src, uint64_t count) {
  LOCAWARE_CHECK_LT(src, next_seq_.size());
  LOCAWARE_CHECK(tls_current_shard == kNoShard && !running_)
      << "sequence blocks are reserved by the controller";
  const uint64_t first = next_seq_[src];
  next_seq_[src] += count;
  return first;
}

void ShardedSimulator::ScheduleReserved(ShardId dst, SourceId src, uint64_t seq,
                                        SimTime at, EventFn fn) {
  LOCAWARE_CHECK_LT(dst, shards_.size());
  LOCAWARE_CHECK_LT(src, next_seq_.size());
  const ShardId cur = tls_current_shard;
  if (cur == kNoShard) {
    // Controller phase: workers are not running, direct pushes are safe.
    LOCAWARE_CHECK(!running_) << "non-worker scheduling during a parallel run";
  } else {
    LOCAWARE_CHECK_EQ(dst, cur) << "keyed push into another shard's queue";
    LOCAWARE_CHECK_GE(at, shards_[cur].now) << "scheduling into the past";
  }
  shards_[dst].queue.PushKeyed(at, src, seq, std::move(fn));
}

SimTime ShardedSimulator::Now() const {
  const ShardId cur = tls_current_shard;
  if (cur != kNoShard && cur < shards_.size()) return shards_[cur].now;
  return controller_now_;
}

void ShardedSimulator::ReserveEvents(ShardId shard, size_t expected_events) {
  LOCAWARE_CHECK_LT(shard, shards_.size());
  shards_[shard].queue.Reserve(expected_events);
  shards_[shard].reserved = expected_events;
}

uint64_t ShardedSimulator::executed_count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) total += shard.executed;
  return total;
}

size_t ShardedSimulator::pending_count() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.queue.size();
    for (const auto& box : shard.outbox) total += box.size();
  }
  return total;
}

size_t ShardedSimulator::queued_high_water() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.queue.high_water();
  return total;
}

size_t ShardedSimulator::reserved_events() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.reserved;
  return total;
}

SchedulerStats ShardedSimulator::stats() const {
  SchedulerStats stats;
  stats.windows = windows_;
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.idle_ns = idle_ns_.load(std::memory_order_relaxed);
  return stats;
}

uint64_t ShardedSimulator::RunSingle(SimTime horizon) {
  Shard& shard = shards_[0];
  tls_current_shard = 0;
  // A single shard has no remote senders, so windows are unnecessary: this is
  // the plain sequential loop over the same keyed queue, guaranteeing the
  // identical execution order the windowed path produces.
  uint64_t executed_this_run = 0;
  while (!shard.queue.empty() && shard.queue.PeekTime() <= horizon) {
    SimTime t;
    EventFn fn = shard.queue.Pop(&t);
    LOCAWARE_CHECK_GE(t, shard.now);
    shard.now = t;
    ++shard.executed;
    ++executed_this_run;
    fn();
  }
  tls_current_shard = kNoShard;
  if (shard.queue.empty() && horizon != kNoHorizon && shard.now < horizon) {
    shard.now = horizon;  // idle advance so repeated Run(horizon) calls compose
  }
  controller_now_ = shard.now;
  return executed_this_run;
}

void ShardedSimulator::DrainInbound(ShardId sid) {
  Shard& me = shards_[sid];
  for (Shard& sender : shards_) {
    std::vector<ShardEvent>& box = sender.outbox[sid];
    for (ShardEvent& ev : box) {
      me.queue.PushKeyed(ev.time, ev.src, ev.seq, std::move(ev.fn));
    }
    box.clear();
  }
}

ShardId ShardedSimulator::ClaimShard(uint32_t worker, std::atomic<uint8_t>* claims) {
  const uint32_t k = static_cast<uint32_t>(shards_.size());
  const auto try_claim = [&](ShardId s) {
    uint8_t expected = 0;
    return claims[s].compare_exchange_strong(expected, 1, std::memory_order_acq_rel);
  };
  // Home block first (shard s is worker s % W's home): keeps a shard's state
  // on the same core window after window when the load is balanced.
  for (ShardId s = worker; s < k; s += num_workers_) {
    if (try_claim(s)) return s;
  }
  for (ShardId s = 0; s < k; ++s) {
    if (s % num_workers_ == worker) continue;  // home block already scanned
    if (try_claim(s)) return s;
  }
  return kNoShard;
}

void ShardedSimulator::RunShardWindow(ShardId sid) {
  Shard& me = shards_[sid];
  tls_current_shard = sid;
  // The claim guarantees a single executor per shard per window, so this loop
  // is exactly the sequential drain a statically bound worker would run: pop
  // in (time, source, seq) order against the shard's own queue and clock.
  const SimTime end = window_ends_[sid];
  while (!me.queue.empty() && me.queue.PeekTime() < end) {
    SimTime t;
    EventFn fn = me.queue.Pop(&t);
    LOCAWARE_CHECK_GE(t, me.now);
    me.now = t;
    ++me.executed;
    fn();
  }
  tls_current_shard = kNoShard;
}

void ShardedSimulator::BeginWindow(SimTime horizon) {
  const uint32_t k = static_cast<uint32_t>(shards_.size());
  SimTime t_min = kNoHorizon;
  for (SimTime t : local_min_) t_min = std::min(t_min, t);
  if (t_min == kNoHorizon || t_min > horizon) {
    done_ = true;
    return;
  }
  ++windows_;

  // earliest_[s]: a lower bound on the next instant shard s could execute
  // ANY event — its own queue head, or causality relayed through its
  // incoming edges. The transitive part is what makes empty shards safe: a
  // shard with no events still cannot produce one for its neighbors sooner
  // than something could first reach *it*. Fixpoint by relaxation; K is
  // small and every pass only lowers values, so this terminates quickly.
  earliest_ = local_min_;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ShardId s = 0; s < k; ++s) {
      if (earliest_[s] == kNoHorizon) continue;
      for (ShardId d = 0; d < k; ++d) {
        if (s == d) continue;
        const SimTime via = SaturatingAdd(earliest_[s], La(s, d));
        if (via < earliest_[d]) {
          earliest_[d] = via;
          changed = true;
        }
      }
    }
  }

  for (ShardId d = 0; d < k; ++d) {
    SimTime end = kNoHorizon;
    for (ShardId s = 0; s < k; ++s) {
      if (s == d || earliest_[s] == kNoHorizon) continue;
      end = std::min(end, SaturatingAdd(earliest_[s], La(s, d)));
    }
    // Events at exactly `horizon` still run; the +1 keeps the strict `<`
    // window comparison while never overflowing (horizon < kNoHorizon here).
    if (horizon != kNoHorizon) end = std::min(end, horizon + 1);
    window_ends_[d] = end;
    executed_at_window_start_[d] = shards_[d].executed;
    exec_claims_[d].store(0, std::memory_order_relaxed);
  }
}

void ShardedSimulator::EndWindow() {
  for (ShardId s = 0; s < shards_.size(); ++s) {
    drain_claims_[s].store(0, std::memory_order_relaxed);
  }
}

void ShardedSimulator::WorkerLoop(uint32_t worker, SimTime horizon) {
  while (true) {
    // 1. Pull everything other shards batched in the last window and publish
    // each drained shard's next-event time (claimed, like execution, so a
    // lopsided inbound burst does not serialize on one worker).
    for (ShardId sid = ClaimShard(worker, drain_claims_.get()); sid != kNoShard;
         sid = ClaimShard(worker, drain_claims_.get())) {
      DrainInbound(sid);
      local_min_[sid] = shards_[sid].queue.empty() ? kNoHorizon
                                                   : shards_[sid].queue.PeekTime();
    }

    // 2. Reduce to this window's per-shard bounds (or completion).
    barrier_.ArriveAndWait([this, horizon] { BeginWindow(horizon); });
    if (done_) break;

    // 3. Execute claimed shards inside their windows, batching remote sends.
    // The home shard block comes first; whatever is left afterwards is a
    // steal — whole remaining sub-queues, never event-level interleaving. A
    // steal only counts when the shard actually ran events this window, so
    // the stat measures relocated work, not claim churn over idle shards.
    for (ShardId sid = ClaimShard(worker, exec_claims_.get()); sid != kNoShard;
         sid = ClaimShard(worker, exec_claims_.get())) {
      RunShardWindow(sid);
      if (sid % num_workers_ != worker &&
          shards_[sid].executed > executed_at_window_start_[sid]) {
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // 4. Publish our outboxes to the next window's drain. The wait here is
    // the idle time stealing exists to shrink: a worker parked at this
    // barrier has run out of claimable shard windows.
    const auto idle_start = std::chrono::steady_clock::now();
    barrier_.ArriveAndWait([this] { EndWindow(); });
    idle_ns_.fetch_add(static_cast<uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - idle_start)
                               .count()),
                       std::memory_order_relaxed);
  }
}

uint64_t ShardedSimulator::Run(SimTime horizon) {
  const uint64_t executed_before = executed_count();
  if (shards_.size() == 1) return RunSingle(horizon);

  running_ = true;
  done_ = false;
  for (ShardId s = 0; s < shards_.size(); ++s) {
    drain_claims_[s].store(0, std::memory_order_relaxed);
    exec_claims_[s].store(0, std::memory_order_relaxed);
  }
  std::vector<std::thread> workers;
  workers.reserve(num_workers_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    workers.emplace_back([this, w, horizon] { WorkerLoop(w, horizon); });
  }
  for (std::thread& worker : workers) worker.join();
  running_ = false;

  SimTime now = 0;
  for (Shard& shard : shards_) {
    if (shard.queue.empty() && horizon != kNoHorizon && shard.now < horizon) {
      shard.now = horizon;  // idle advance so repeated Run(horizon) calls compose
    }
    now = std::max(now, shard.now);
  }
  controller_now_ = now;
  return executed_count() - executed_before;
}

}  // namespace locaware::sim
