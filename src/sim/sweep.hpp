#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"

namespace openmx::sim {

struct SweepOptions {
  /// Worker threads; 0 = auto (the shared pool's soft capacity, i.e.
  /// hardware concurrency), 1 = run inline on the calling thread (useful
  /// as the determinism reference).  Explicit counts > 1 are honoured
  /// exactly; auto-sized runs only use helpers the shared pool has idle,
  /// so nested fan-outs never oversubscribe the machine.
  unsigned threads = 0;
};

/// Honours OPENMX_SWEEP_THREADS so benchmark drivers can pin the worker
/// count (e.g. =1 to take a sequential reference run) without rebuilds.
inline SweepOptions sweep_options_from_env() {
  SweepOptions opts;
  if (const char* env = std::getenv("OPENMX_SWEEP_THREADS"))
    opts.threads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  return opts;
}

/// Fans independent experiment points across the shared worker pool.
///
/// Each job must be self-contained: it builds its own Cluster/Engine
/// (the simulator substrate has no mutable global state, so engines in
/// different threads never interact) and derives any randomness from
/// sweep_seed(base, index).  Results are written to the slot matching
/// the job index, so the output — and therefore every downstream
/// statistic — is bit-identical to sequential execution regardless of
/// the worker count or OS scheduling (asserted by test_determinism).
///
/// This parallelizes *across* experiments; each simulation itself is
/// either strictly single-threaded or internally parallelized by the
/// multi-LP scheduler (sim/lp.hpp) — both draw from the same
/// ThreadPool::shared(), so the combination cannot oversubscribe.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

  /// Runs `point(i)` for i in [0, n) and returns the results in index
  /// order.  Rethrows the first job exception after all workers stop.
  template <typename R>
  std::vector<R> map(std::size_t n, const std::function<R(std::size_t)>& point) {
    std::vector<R> out(n);
    for_each(n, [&](std::size_t i) { out[i] = point(i); });
    return out;
  }

  /// Runs `point(i)` for i in [0, n); jobs are claimed from an atomic
  /// counter, so workers stay busy even when job durations are skewed.
  /// The calling thread always works too — helpers only add parallelism.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& point) {
    unsigned nthreads =
        opts_.threads ? opts_.threads : ThreadPool::shared().soft_cap();
    if (nthreads == 0) nthreads = 1;
    if (static_cast<std::size_t>(nthreads) > n)
      nthreads = static_cast<unsigned>(n);
    if (nthreads <= 1) {
      for (std::size_t i = 0; i < n; ++i) point(i);
      return;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    auto worker = [&](unsigned) {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          point(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    };
    ThreadPool::Team team = ThreadPool::shared().spawn(
        nthreads - 1, /*exact=*/opts_.threads != 0, worker);
    worker(nthreads - 1);
    ThreadPool::shared().join(team);
    if (error) std::rethrow_exception(error);
  }

 private:
  SweepOptions opts_;
};

}  // namespace openmx::sim
