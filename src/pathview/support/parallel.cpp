#include "pathview/support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pathview::support {

std::uint32_t resolve_threads(std::uint32_t nthreads) {
  return nthreads != 0 ? nthreads
                       : std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::uint32_t nthreads) {
  const std::size_t workers =
      std::min<std::size_t>(resolve_threads(nthreads), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
        next.store(n, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace pathview::support
