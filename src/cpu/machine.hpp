#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "obs/timeline.hpp"
#include "sim/engine.hpp"
#include "sim/sim_thread.hpp"
#include "sim/time.hpp"

namespace openmx::cpu {

/// What a core is busy doing.  Figure 9 of the paper breaks receive-side
/// CPU usage into exactly these buckets (user library, driver command
/// processing in syscalls, bottom-half receive processing), so the
/// accounting is kept per category.
enum class Cat : std::uint8_t {
  App = 0,        // application compute (not counted as stack overhead)
  UserLib,        // MX library: matching, ring copies, polling
  DriverSyscall,  // driver work inside syscalls: pinning, command posting
  BottomHalf,     // receive callback run by the interrupt bottom half
  kCount,
};

inline constexpr std::size_t kNumCats = static_cast<std::size_t>(Cat::kCount);

// The utilization timeline encodes these categories as raw bytes; keep
// the two enumerations aligned.
static_assert(static_cast<std::uint8_t>(Cat::App) == obs::kCatApp);
static_assert(static_cast<std::uint8_t>(Cat::UserLib) == obs::kCatUserLib);
static_assert(static_cast<std::uint8_t>(Cat::DriverSyscall) == obs::kCatDriver);
static_assert(static_cast<std::uint8_t>(Cat::BottomHalf) ==
              obs::kCatBottomHalf);

inline const char* cat_name(Cat c) {
  switch (c) {
    case Cat::App: return "app";
    case Cat::UserLib: return "user-library";
    case Cat::DriverSyscall: return "driver";
    case Cat::BottomHalf: return "bottom-half";
    default: return "?";
  }
}

/// Result of a unit of core work: how long it occupies the core, and a
/// continuation to run when the core time has elapsed.  Side effects that
/// logically happen *when the work finishes* (data becoming visible,
/// packets handed to the NIC) belong in `done`.
struct TaskResult {
  sim::Time cost = 0;
  std::function<void()> done;
};

/// A node's CPUs: dual quad-core Xeon E5345 "Clovertown" topology as used
/// in the paper (2 sockets x 2 dual-core subchips per socket; each subchip
/// pair shares an L2 cache).
///
/// Each core serializes the work submitted to it, which is how core
/// contention emerges: a bottom half that saturates its core delays the
/// next packet's processing, capping receive throughput exactly as the
/// paper's Figure 3 shows.
class Machine {
 public:
  static constexpr int kSockets = 2;
  static constexpr int kSubchipsPerSocket = 2;
  static constexpr int kCoresPerSubchip = 2;
  static constexpr int kNumCores =
      kSockets * kSubchipsPerSocket * kCoresPerSubchip;

  explicit Machine(sim::Engine& engine) : engine_(engine), cores_(kNumCores) {}

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// First timeline track of this machine's cores (obs::cpu_track of the
  /// owning node); set by Node so multi-node timelines do not collide.
  void set_track_base(int base) { track_base_ = base; }
  [[nodiscard]] int track_base() const { return track_base_; }

  [[nodiscard]] static int socket_of(int core) {
    return core / (kSubchipsPerSocket * kCoresPerSubchip);
  }
  /// Global subchip index; cores on the same subchip share an L2 cache.
  [[nodiscard]] static int subchip_of(int core) {
    return core / kCoresPerSubchip;
  }
  [[nodiscard]] static bool share_l2(int a, int b) {
    return subchip_of(a) == subchip_of(b);
  }

  /// Submits serialized work to a core from engine context.  `work` runs
  /// when the core becomes free and returns the time it occupies the core;
  /// its `done` continuation runs when that time has elapsed.
  void submit(int core, Cat cat, std::function<TaskResult()> work) {
    submit_keyed(core, cat, 0, std::move(work));
  }

  /// Like submit(), but tagged with a latency-attribution key: when the
  /// work reaches the front of the core's run queue, the time it sat
  /// waiting is stamped as obs::Wait::BhQueueWait for that message.  A
  /// zero key (the default) records nothing.
  void submit_keyed(int core, Cat cat, std::uint64_t attrib_key,
                    std::function<TaskResult()> work) {
    check_core(core);
    Core& c = cores_[core];
    c.queue.push_back(Item{cat, attrib_key,
                           attrib_key ? engine_.now() : sim::Time{0},
                           std::move(work)});
    if (!c.running) start_next(core);
  }

  /// Convenience: fixed-cost work whose effects all happen at completion.
  void submit_fixed(int core, Cat cat, sim::Time cost,
                    std::function<void()> done = {}) {
    submit(core, cat, [cost, done = std::move(done)]() mutable {
      return TaskResult{cost, std::move(done)};
    });
  }

  /// Called from *inside* a SimThread: occupies `core` for `dur` in
  /// category `cat`, queueing behind any other work on that core, and
  /// returns when the time has elapsed.
  void thread_advance(sim::SimThread& t, int core, sim::Time dur, Cat cat) {
    submit_fixed(core, cat, dur, [&t] { t.wake(); });
    t.pause();
  }

  /// Cumulative busy time of `core` in category `cat`.
  [[nodiscard]] sim::Time busy(int core, Cat cat) const {
    check_core(core);
    return cores_[core].busy[static_cast<std::size_t>(cat)];
  }

  /// Cumulative busy time of `core` across all categories.
  [[nodiscard]] sim::Time busy_total(int core) const {
    check_core(core);
    sim::Time t = 0;
    for (auto b : cores_[core].busy) t += b;
    return t;
  }

  /// Busy time in `cat` summed over all cores.
  [[nodiscard]] sim::Time busy_all_cores(Cat cat) const {
    sim::Time t = 0;
    for (int c = 0; c < kNumCores; ++c) t += busy(c, cat);
    return t;
  }

  void reset_accounting() {
    for (auto& c : cores_) c.busy.fill(0);
  }

 private:
  struct Item {
    Cat cat;
    std::uint64_t attrib_key = 0;
    sim::Time enqueued_at = 0;
    std::function<TaskResult()> work;
  };

  struct Core {
    std::deque<Item> queue;
    bool running = false;
    std::array<sim::Time, kNumCats> busy{};
  };

  void check_core(int core) const {
    if (core < 0 || core >= kNumCores)
      throw std::out_of_range("Machine: bad core index");
  }

  void start_next(int core) {
    Core& c = cores_[core];
    if (c.queue.empty()) {
      c.running = false;
      return;
    }
    c.running = true;
    Item item = std::move(c.queue.front());
    c.queue.pop_front();
    if (item.attrib_key)
      engine_.spans().add(item.attrib_key, obs::Wait::BhQueueWait,
                          engine_.now() - item.enqueued_at);
    TaskResult r = item.work();
    c.busy[static_cast<std::size_t>(item.cat)] += r.cost;
    engine_.timeline().record(track_base_ + core,
                              static_cast<std::uint8_t>(item.cat),
                              engine_.now(), r.cost);
    // Every bottom-half task and thread_advance completes through this
    // closure ({this, core, std::function} is exactly 48 bytes), so it
    // must stay inside EventFn's inline buffer.
    auto complete = [this, core, done = std::move(r.done)] {
      if (done) done();
      start_next(core);
    };
    static_assert(sim::EventFn::fits_inline<decltype(complete)>(),
                  "the per-task completion closure must not heap-allocate");
    engine_.schedule(r.cost, std::move(complete));
  }

  sim::Engine& engine_;
  std::vector<Core> cores_;
  int track_base_ = 0;
};

}  // namespace openmx::cpu
