#include "sim/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace gcube {

struct ThreadBudget::State {
  std::atomic<unsigned> spare;
};

ThreadBudget::ThreadBudget(unsigned spare) : state_(new State{{spare}}) {}

ThreadBudget& ThreadBudget::instance() {
  const unsigned hw = std::thread::hardware_concurrency();
  static ThreadBudget budget(hw == 0 ? 0 : hw - 1);
  return budget;
}

unsigned ThreadBudget::acquire(unsigned want) noexcept {
  unsigned cur = state_->spare.load(std::memory_order_relaxed);
  while (true) {
    const unsigned grant = cur < want ? cur : want;
    if (grant == 0) return 0;
    if (state_->spare.compare_exchange_weak(cur, cur - grant,
                                            std::memory_order_relaxed)) {
      return grant;
    }
  }
}

void ThreadBudget::release(unsigned granted) noexcept {
  if (granted != 0) {
    state_->spare.fetch_add(granted, std::memory_order_relaxed);
  }
}

void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& fn,
                        unsigned max_threads) {
  if (count == 0) return;
  // Total worker cap including the calling thread; the budget decides how
  // many of the extras actually materialize.
  unsigned cap = max_threads != 0 ? max_threads
                                  : std::thread::hardware_concurrency();
  if (cap == 0) cap = 1;
  if (cap > count) cap = static_cast<unsigned>(count);

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto work = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Fast-fail: exhaust the iteration counter so no worker starts
        // more cells once one has already failed the whole sweep.
        next.store(count, std::memory_order_relaxed);
      }
    }
  };

  if (cap <= 1) {
    work();
  } else {
    const ThreadLease lease(cap - 1);
    {
      std::vector<std::jthread> pool;
      pool.reserve(lease.granted());
      for (unsigned w = 0; w < lease.granted(); ++w) {
        pool.emplace_back(work);
      }
      work();  // the caller is worker 0, not a bystander
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gcube
