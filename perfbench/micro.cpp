#include "micro.hpp"

#include <cstdint>
#include <thread>
#include <vector>

#include "core/wire.hpp"
#include "dma/ioat.hpp"
#include "harness.hpp"
#include "mem/cache_model.hpp"
#include "sim/engine.hpp"
#include "sim/lp.hpp"
#include "sim/sim_thread.hpp"

namespace perfbench::micro {

namespace core = openmx::core;
namespace dma = openmx::dma;
namespace mem = openmx::mem;
namespace sim = openmx::sim;

namespace {

constexpr int kReps = 3;

/// Median over kReps of `body()`'s wall time divided by `units`.
template <typename F>
double per_unit_ns(double units, F&& body) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    body();
    v.push_back(seconds_since(t0) * 1e9 / units);
  }
  return median(v);
}

volatile std::uint64_t g_sink = 0;

}  // namespace

double engine_ns_per_event() {
  constexpr std::uint64_t kEvents = 400000;
  return per_unit_ns(kEvents, [] {
    sim::Engine engine;
    std::uint64_t left = kEvents;
    struct Tick {
      sim::Engine* e;
      std::uint64_t* left;
      void operator()() const {
        if (--*left) e->schedule(1, Tick{e, left});
      }
    };
    engine.schedule(1, Tick{&engine, &left});
    engine.run();
  });
}

double thread_ns_per_handoff() {
  constexpr int kHandoffs = 5000;
  return per_unit_ns(kHandoffs, [] {
    sim::Engine engine;
    sim::SimThread* self = nullptr;
    sim::SimThread t(engine, "handoff", [&] {
      for (int i = 0; i < kHandoffs; ++i) self->advance(1);
    });
    self = &t;
    t.start();
    engine.run();
  });
}

double lp_ns_per_barrier() {
  constexpr int kParties = 4, kRounds = 20000;
  return per_unit_ns(kRounds, [] {
    sim::SpinBarrier barrier(kParties);
    auto loop = [&barrier] {
      for (int i = 0; i < kRounds; ++i) barrier.arrive_and_wait();
    };
    std::vector<std::thread> helpers;
    for (int i = 1; i < kParties; ++i) helpers.emplace_back(loop);
    loop();
    for (auto& h : helpers) h.join();
  });
}

double wire_csum_ns_per_byte() {
  constexpr std::size_t kBytes = 8192;
  constexpr int kFrames = 2000;
  core::PullReplyPkt pkt;
  pkt.data.resize(kBytes);
  Rng rng(42);
  for (auto& b : pkt.data) b = static_cast<std::uint8_t>(rng.next());
  return per_unit_ns(static_cast<double>(kBytes) * kFrames, [&] {
    std::uint64_t acc = 0;
    for (int i = 0; i < kFrames; ++i) {
      pkt.frag_idx = static_cast<std::uint32_t>(i);
      acc += core::pkt_checksum(pkt);
    }
    g_sink = g_sink + acc;
  });
}

double ioat_ns_per_descriptor() {
  constexpr std::size_t kLen = 4096;
  constexpr int kBatch = 64, kBatches = 200;
  std::vector<std::uint8_t> src(kLen * kBatch, 1), dst(kLen * kBatch, 0);
  return per_unit_ns(static_cast<double>(kBatch) * kBatches, [&] {
    sim::Engine engine;
    dma::IoatEngine ioat(engine);
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kBatch; ++i) {
        const std::size_t off = static_cast<std::size_t>(i) * kLen;
        ioat.submit(ioat.pick_channel(), src.data() + off, dst.data() + off, kLen);
      }
      engine.run();
    }
  });
}

double cache_ns_per_mib_touch() {
  constexpr std::size_t kMiB = 1 << 20;
  constexpr std::size_t kCache = 4 * kMiB;
  constexpr int kTouches = 256;
  // touch() only maps addresses to pages, so a synthetic address range
  // four times the cache size is enough to keep it evicting.
  const std::uintptr_t base = std::uintptr_t{1} << 32;
  return per_unit_ns(kTouches, [&] {
    mem::CacheModel cache(kCache);
    for (int i = 0; i < kTouches; ++i) {
      const std::uintptr_t addr = base + (static_cast<std::size_t>(i) % 16) * kMiB;
      cache.touch(reinterpret_cast<const void*>(addr), kMiB);
    }
    g_sink = g_sink + cache.resident_pages();
  });
}

}  // namespace perfbench::micro
