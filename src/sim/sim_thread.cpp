#include "sim/sim_thread.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstdint>
#include <system_error>

// AddressSanitizer must hear of every stack switch — before it, the stack
// that runs next (a null fake-stack slot: the fiber is done); after it, the
// one just left — or a throw on a fiber stack draws false positives.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#define OMX_SWITCH_START __sanitizer_start_switch_fiber
#define OMX_SWITCH_FINISH __sanitizer_finish_switch_fiber
#else
#define OMX_SWITCH_START(fake, bottom, size) (void)(fake)
#define OMX_SWITCH_FINISH(fake, bottom, size) (void)(fake)
#endif

namespace openmx::sim {

// Each fiber maps a PROT_NONE guard (64 KiB: a multiple of every page
// size) below a 1 MiB stack; MAP_NORESERVE commits only touched pages.
constexpr std::size_t kGuardBytes = std::size_t{64} << 10;
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

SimThread::SimThread(Engine& engine, std::string name,
                     std::function<void()> body)
    : engine_(engine), name_(std::move(name)), body_(std::move(body)) {
  void* map = mmap(nullptr, kGuardBytes + kStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (map == MAP_FAILED || mprotect(map, kGuardBytes, PROT_NONE) != 0 ||
      getcontext(&fiber_) != 0) {
    const int err = errno;
    if (map != MAP_FAILED) munmap(map, kGuardBytes + kStackBytes);
    throw std::system_error(err, std::generic_category(), "SimThread stack");
  }
  stack_ = static_cast<char*>(map) + kGuardBytes;
  fiber_.uc_stack.ss_sp = stack_;
  fiber_.uc_stack.ss_size = kStackBytes;
  // makecontext passes int arguments only: split `this` into two halves.
  const std::uint64_t self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&fiber_, reinterpret_cast<void (*)()>(&SimThread::entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
}

SimThread::~SimThread() {
  if (started_ && !finished_) {
    aborting_ = true;
    resume();
  }
  munmap(stack_ - kGuardBytes, kGuardBytes + kStackBytes);
}

void SimThread::entry(unsigned hi, unsigned lo) {
  auto* t = reinterpret_cast<SimThread*>(
      static_cast<std::uintptr_t>(std::uint64_t{hi} << 32 | lo));
  OMX_SWITCH_FINISH(nullptr, &t->caller_stack_, &t->caller_stack_size_);
  try {
    if (!t->aborting_) t->body_();
  } catch (const SimAborted&) {
    // Clean teardown of a stuck process.
  } catch (...) {
    t->error_ = std::current_exception();
  }
  t->finished_ = true;
  OMX_SWITCH_START(nullptr, t->caller_stack_, t->caller_stack_size_);
  setcontext(&t->caller_);  // never returns
}

void SimThread::start() {
  if (started_) throw std::logic_error("SimThread started twice: " + name_);
  started_ = true;
  engine_.schedule(0, [this] { resume(); });
}

void SimThread::resume() {
  if (finished_) return;
  void* fake = nullptr;
  OMX_SWITCH_START(&fake, stack_, kStackBytes);
  swapcontext(&caller_, &fiber_);
  OMX_SWITCH_FINISH(fake, nullptr, nullptr);
}

void SimThread::yield_to_engine() {
  void* fake = nullptr;
  OMX_SWITCH_START(&fake, caller_stack_, caller_stack_size_);
  swapcontext(&fiber_, &caller_);
  OMX_SWITCH_FINISH(fake, &caller_stack_, &caller_stack_size_);
  if (aborting_) throw SimAborted{};
}

void SimThread::advance(Time dt) {
  engine_.schedule(dt, [this] { resume(); });
  yield_to_engine();
}

void SimThread::pause() {
  if (pending_wake_) {
    pending_wake_ = false;
    return;
  }
  paused_ = true;
  yield_to_engine();
}

void SimThread::wake(Time delay) {
  if (!paused_) {
    pending_wake_ = true;
    return;
  }
  paused_ = false;
  engine_.schedule(delay, [this] { resume(); });
}

}  // namespace openmx::sim
