#pragma once

#include <ucontext.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace openmx::sim {

/// Thrown inside a SimThread body when the simulation is torn down while
/// the thread is still blocked (e.g. a test that expects a deadlock).
struct SimAborted : std::runtime_error {
  SimAborted() : std::runtime_error("simulated process aborted") {}
};

/// A simulated process: a stackful fiber (glibc ucontext) on its own stack.
///
/// Exactly one entity executes at a time: either the engine's event loop or
/// one SimThread.  Control is handed over by switching stacks, so process
/// code can be written in the natural blocking style (`wait()` loops in the
/// MX library, blocking MPI_Recv, ...) while the simulation stays fully
/// deterministic — all wake-ups are routed through engine events and
/// therefore ordered by (time, schedule sequence).
///
/// While a SimThread runs, it owns the simulation: it may call
/// Engine::schedule and mutate any simulation state without synchronization.
///
/// A fiber runs on the OS thread that dispatches its engine's events, and
/// only on that one: LpScheduler keeps LP i on worker i % workers for a
/// whole run, and Cluster::run throws unless every process finished (only
/// teardown aborts a blocked fiber elsewhere).  Thread-local state (the
/// WallProfiler zone stack, the C++ exception globals) survives a yield —
/// advance() or pause() — because no OMX_WALL_ZONE scope and no `catch`
/// block may contain one.
class SimThread {
 public:
  /// Creates a simulated process; `body` runs on its own stack once start()
  /// has been called and the engine dispatches its first resume.
  SimThread(Engine& engine, std::string name, std::function<void()> body);

  /// If the body never finished (stuck blocked), it is aborted by resuming
  /// it with SimAborted thrown from its yield point, unwinding its stack.
  ~SimThread();

  SimThread(const SimThread&) = delete;
  SimThread& operator=(const SimThread&) = delete;

  /// Schedules the first execution of the body at the current virtual time.
  /// Must be called from engine context.
  void start();

  /// --- Calls below are made from *inside* the thread body. ---

  /// Consumes `dt` of virtual time, then continues.  Does not model core
  /// occupancy; see cpu::Machine::thread_advance for the core-aware version.
  void advance(Time dt);

  /// Blocks until some engine-context code calls wake().  Spurious wake-ups
  /// do not occur; one wake() releases one pause().
  void pause();

  /// --- Calls below are made from engine context (or another process that
  ///     currently owns the simulation). ---

  /// Wakes a paused thread by scheduling its resume `delay` ns from now.
  /// If the thread is not currently paused the wake is remembered and the
  /// next pause() returns immediately (no lost-wake-up race).
  void wake(Time delay = 0);

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] bool failed() const { return static_cast<bool>(error_); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Rethrows any exception that escaped the body.
  void rethrow_if_failed() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  static void entry(unsigned hi, unsigned lo);  // the fiber's first frame
  void resume();           // engine side: run the fiber until it yields
  void yield_to_engine();  // fiber side: switch back to the resumer

  Engine& engine_;
  std::string name_;
  std::function<void()> body_;

  ucontext_t fiber_{};   // the process's saved context
  ucontext_t caller_{};  // the resumer's context while the fiber runs
  char* stack_ = nullptr;  // lowest byte; a PROT_NONE guard lies below
  const void* caller_stack_ = nullptr;  // the resumer's, for AddressSanitizer
  std::size_t caller_stack_size_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool aborting_ = false;
  bool pending_wake_ = false;
  bool paused_ = false;
  std::exception_ptr error_;
};

/// A FIFO of paused SimThreads, used wherever the real stack would use a
/// kernel wait queue (event rings, request completion).
class WaitQueue {
 public:
  /// Registers the calling thread and pauses it.  Engine-context code calls
  /// wake_one/wake_all to release waiters.
  void sleep(SimThread& t) {
    waiters_.push_back(&t);
    t.pause();
  }

  void wake_one(Time delay = 0) {
    if (waiters_.empty()) return;
    SimThread* t = waiters_.front();
    waiters_.erase(waiters_.begin());
    t->wake(delay);
  }

  void wake_all(Time delay = 0) {
    auto ws = std::move(waiters_);
    waiters_.clear();
    for (SimThread* t : ws) t->wake(delay);
  }

  [[nodiscard]] bool empty() const { return waiters_.empty(); }
  [[nodiscard]] std::size_t size() const { return waiters_.size(); }

 private:
  std::vector<SimThread*> waiters_;
};

}  // namespace openmx::sim
