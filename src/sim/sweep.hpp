// Parallel parameter sweeps under one process-wide thread budget.
//
// Benchmark harnesses run one simulation per figure cell; cells are
// independent, so they fan out across hardware threads (hpc-parallel
// idiom: parallelize the outer, embarrassingly parallel loop). Results are
// written by index, so output order is deterministic regardless of
// scheduling.
//
// Parallel layers compose: a sweep of cells may call into the node-sharded
// simulator, which is itself parallel. Each layer leases its extra threads
// from the shared ThreadBudget (hardware_concurrency - 1 spare threads
// beyond the thread that asks), so a sweep that already owns every core
// hands zero extra workers to the cells inside it instead of
// oversubscribing the machine with sweep-width x cell-width threads.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace gcube {

/// Process-wide accounting of spare worker threads. The process starts
/// with hardware_concurrency() - 1 spares (the calling thread itself is
/// always available for work and is never counted). acquire() grants at
/// most what is left; callers return their grant with release() — via
/// ThreadLease in practice.
class ThreadBudget {
 public:
  [[nodiscard]] static ThreadBudget& instance();

  /// Grants min(want, spare threads left), deducting from the budget.
  [[nodiscard]] unsigned acquire(unsigned want) noexcept;
  void release(unsigned granted) noexcept;

 private:
  explicit ThreadBudget(unsigned spare);

  struct State;
  State* state_;  // intentionally leaked (the budget lives process-long)
};

/// RAII lease of spare threads from the process budget. granted() may be
/// anything from 0 (machine already saturated — run on the calling thread
/// alone) to `want`.
class ThreadLease {
 public:
  explicit ThreadLease(unsigned want)
      : granted_(ThreadBudget::instance().acquire(want)) {}
  ~ThreadLease() { ThreadBudget::instance().release(granted_); }
  ThreadLease(const ThreadLease&) = delete;
  ThreadLease& operator=(const ThreadLease&) = delete;

  [[nodiscard]] unsigned granted() const noexcept { return granted_; }

 private:
  unsigned granted_;
};

/// Invokes fn(0) .. fn(count - 1) across the calling thread plus however
/// many extra workers the ThreadBudget grants, never more than
/// `max_threads` total (0 = no cap beyond hardware concurrency). fn must
/// be safe to call concurrently for distinct indices. Exceptions thrown by
/// fn are rethrown on the caller's thread after all workers finish.
void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& fn,
                        unsigned max_threads = 0);

/// Maps fn over [0, count) in parallel and collects the results by index —
/// the common "one simulation cell per figure row" shape. fn must be
/// default-constructible-result and safe to call concurrently.
template <typename Fn>
auto parallel_map(std::size_t count, Fn&& fn, unsigned max_threads = 0)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> results(count);
  parallel_for_index(
      count, [&](std::size_t i) { results[i] = fn(i); }, max_threads);
  return results;
}

}  // namespace gcube
