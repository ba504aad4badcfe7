// Tests for the paper's discussion/future-work extensions and the
// ablation switches: threshold auto-tuning, predicted-completion sleep,
// cache-warm head copies, overlapped registration, multi-channel
// striping, synchronous medium offload, and the cleanup-cadence and
// no-overlap ablations.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace cpu = openmx::cpu;

namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  std::uint8_t x = seed;
  for (auto& b : v) {
    x = static_cast<std::uint8_t>(x * 31 + 7);
    b = x;
  }
  return v;
}

struct Outcome {
  sim::Time elapsed = 0;
  sim::Time driver_busy = 0;
  std::uint64_t ioat_bytes = 0;
  std::uint64_t memcpy_bytes = 0;
};

/// One large transfer node0->node1 (or intra-node), returning timing and
/// path counters from the receiving node.
Outcome transfer(const core::OmxConfig& cfg, std::size_t len,
                 bool local = false) {
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  core::Node& rx_node = local ? cluster.node(0) : cluster.node(1);
  auto src = pattern(len);
  std::vector<std::uint8_t> dst(len);
  Outcome out;

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), len,
                     core::Addr{rx_node.id(), 1}, 1));
  });
  cluster.spawn(rx_node, local ? 2 : 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    core::Request* r = ep.irecv(dst.data(), len, 1);
    const sim::Time t0 = p.now();
    ep.wait(r);
    out.elapsed = p.now() - t0;
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  out.driver_busy = rx_node.machine().busy_all_cores(cpu::Cat::DriverSyscall);
  out.ioat_bytes = rx_node.driver().counters().get("driver.large_ioat_bytes") +
                   rx_node.driver().counters().get("driver.shm_ioat_bytes");
  out.memcpy_bytes =
      rx_node.driver().counters().get("driver.large_memcpy_bytes") +
      rx_node.driver().counters().get("driver.shm_memcpy_bytes");
  return out;
}

}  // namespace

// ----- Section VI: startup auto-tuning of the offload thresholds -----

TEST(Autotune, PicksThresholdsNearPaperValues) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.autotune_thresholds = true;
  core::Cluster cluster;
  cluster.add_nodes(1, cfg);
  const auto& tuned = cluster.node(0).driver().config();
  // Paper's empirical choice: fragments >= ~1 kB, messages >= 64 kB.
  EXPECT_GE(tuned.ioat_min_frag, 512u);
  EXPECT_LE(tuned.ioat_min_frag, 4096u);
  EXPECT_GE(tuned.ioat_min_msg, 32u * sim::KiB);
  EXPECT_LE(tuned.ioat_min_msg, 128u * sim::KiB);
}

TEST(Autotune, TransfersStillWork) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.autotune_thresholds = true;
  const Outcome o = transfer(cfg, sim::MiB);
  EXPECT_GT(o.ioat_bytes, 0u);
}

// ----- Section VI: predicted-completion sleep for synchronous copies ----

TEST(SleepSyncCopy, ReducesDriverBusyTimeAtSameSpeed) {
  core::OmxConfig poll;
  poll.ioat_shm = true;
  core::OmxConfig sleep = poll;
  sleep.sleep_sync_copy = true;
  const std::size_t len = 4 * sim::MiB;
  const Outcome o_poll = transfer(poll, len, /*local=*/true);
  const Outcome o_sleep = transfer(sleep, len, /*local=*/true);
  // Sleeping frees the CPU during the engine's copy...
  EXPECT_LT(o_sleep.driver_busy, o_poll.driver_busy / 2);
  // ...without changing the transfer time materially.
  EXPECT_NEAR(static_cast<double>(o_sleep.elapsed),
              static_cast<double>(o_poll.elapsed),
              0.05 * static_cast<double>(o_poll.elapsed));
}

// ----- Section V: cache-warming head copies -----

TEST(CacheWarmHead, SplitsMessageBetweenMemcpyAndIoat) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.cache_warm_head = true;
  const std::size_t len = sim::MiB;
  const Outcome o = transfer(cfg, len);
  // The head (up to the eager threshold) goes through memcpy to warm the
  // cache; the tail is offloaded.
  EXPECT_GE(o.memcpy_bytes, 32u * sim::KiB);
  EXPECT_LE(o.memcpy_bytes, 64u * sim::KiB);
  EXPECT_EQ(o.ioat_bytes + o.memcpy_bytes, len);
}

// ----- Section V: overlapped registration -----

TEST(OverlapRegistration, ShrinksSynchronousPinCost) {
  core::OmxConfig base;
  base.regcache = false;
  core::OmxConfig ovl = base;
  ovl.overlap_registration = true;
  const std::size_t len = 8 * sim::MiB;
  const Outcome o_base = transfer(base, len);
  const Outcome o_ovl = transfer(ovl, len);
  // The receive completes sooner because only the first block's pages are
  // pinned before the pull starts.
  EXPECT_LT(o_ovl.elapsed, o_base.elapsed);
}

// ----- Section V / [22]: multiple DMA channels -----

class Channels : public ::testing::TestWithParam<int> {};

TEST_P(Channels, StripedMessagesArriveIntact) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.channels_per_msg = GetParam();
  const Outcome o = transfer(cfg, 2 * sim::MiB);
  EXPECT_EQ(o.ioat_bytes, 2 * sim::MiB);
}

INSTANTIATE_TEST_SUITE_P(OneToFour, Channels, ::testing::Values(1, 2, 4));

// ----- Section IV-C: synchronous medium offload degrades -----

TEST(MediumSync, OffloadingMediumCopiesIsSlower) {
  core::OmxConfig plain;
  core::OmxConfig med;
  med.ioat_medium = true;
  // A stream of 16 kB messages: four 4 kB fragment copies each, all
  // synchronous (paper: "we noticed a performance degradation").
  const std::size_t len = 16 * sim::KiB;
  core::Cluster c1, c2;
  sim::Time t_plain = 0, t_med = 0;
  for (auto* pr : {&t_plain, &t_med}) {
    core::Cluster cluster;
    cluster.add_nodes(2, pr == &t_plain ? plain : med);
    auto src = pattern(len);
    std::vector<std::uint8_t> dst(len);
    cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
      core::Endpoint ep(p, 0);
      for (int i = 0; i < 50; ++i)
        ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
    });
    cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
      core::Endpoint ep(p, 1);
      const sim::Time t0 = p.now();
      for (int i = 0; i < 50; ++i) ep.wait(ep.irecv(dst.data(), len, 1));
      *pr = p.now() - t0;
    });
    cluster.run();
    EXPECT_EQ(dst, src);
  }
  EXPECT_GT(t_med, t_plain);
}

// ----- ablation: overlap is what buys the throughput -----

TEST(OverlapAblation, SynchronousPerFragmentWaitIsSlower) {
  core::OmxConfig overlap;
  overlap.ioat_large = true;
  core::OmxConfig sync = overlap;
  sync.ioat_large_sync = true;
  const std::size_t len = sim::MiB;
  const Outcome o_overlap = transfer(overlap, len);
  const Outcome o_sync = transfer(sync, len);
  EXPECT_LT(o_overlap.elapsed, o_sync.elapsed);
}

// ----- ablation: cleanup cadence bounds the skbuff pool -----

TEST(CleanupAblation, WithoutCleanupPendingGrowsWithMessage) {
  for (bool cleanup : {true, false}) {
    core::OmxConfig cfg;
    cfg.ioat_large = true;
    cfg.cleanup_on_block = cleanup;
    core::Cluster cluster;
    cluster.add_nodes(2, cfg);
    const std::size_t len = 4 * sim::MiB;
    auto src = pattern(len);
    std::vector<std::uint8_t> dst(len);
    std::size_t max_pending = 0;
    bool done = false;
    std::function<void()> sampler = [&] {
      max_pending = std::max(
          max_pending, cluster.node(1).driver().pending_offload_skbuffs());
      if (!done)
        cluster.engine().schedule(10 * sim::kMicrosecond, [&] { sampler(); });
    };
    cluster.engine().schedule(10 * sim::kMicrosecond, [&] { sampler(); });
    cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
      core::Endpoint ep(p, 0);
      ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
    });
    cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
      core::Endpoint ep(p, 1);
      ep.wait(ep.irecv(dst.data(), len, 1));
      done = true;
    });
    cluster.run();
    EXPECT_EQ(dst, src);
    if (cleanup) {
      EXPECT_LE(max_pending, 48u);
    } else {
      // 4 MiB = 1024 fragments: without periodic release, the pool tracks
      // the whole message.
      EXPECT_GT(max_pending, 200u);
    }
  }
}

// ----- Section VI: in-driver matching / overlapped medium copies -----

TEST(MediumOverlap, PayloadIntactAcrossSizes) {
  core::OmxConfig cfg;
  cfg.ioat_medium_overlap = true;
  for (std::size_t len : {std::size_t{8192}, std::size_t{16 * 1024},
                          std::size_t{32 * 1024}}) {
    core::Cluster cluster;
    cluster.add_nodes(2, cfg);
    auto src = pattern(len, static_cast<std::uint8_t>(len & 0xff));
    std::vector<std::uint8_t> dst(len);
    cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
      core::Endpoint ep(p, 0);
      ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
    });
    cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
      core::Endpoint ep(p, 1);
      ep.wait(ep.irecv(dst.data(), len, 1));
    });
    cluster.run();
    EXPECT_EQ(dst, src) << len;
    EXPECT_GT(cluster.node(1).driver().counters().get(
                  "driver.medium_overlap_bytes"),
              0u);
  }
}

TEST(MediumOverlap, BeatsBothSyncVariants) {
  // The whole point of moving the matching into the driver (Section VI):
  // medium fragment copies overlap, so the stream runs faster than both
  // the plain ring-memcpy path and the degraded synchronous offload.
  auto stream_time = [&](const core::OmxConfig& cfg) {
    core::Cluster cluster;
    cluster.add_nodes(2, cfg);
    const std::size_t len = 32 * 1024;
    auto src = pattern(len);
    std::vector<std::uint8_t> dst(len);
    sim::Time t = 0;
    cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
      core::Endpoint ep(p, 0);
      for (int i = 0; i < 40; ++i)
        ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
    });
    cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
      core::Endpoint ep(p, 1);
      const sim::Time t0 = p.now();
      for (int i = 0; i < 40; ++i) ep.wait(ep.irecv(dst.data(), len, 1));
      t = p.now() - t0;
    });
    cluster.run();
    EXPECT_EQ(dst, src);
    return t;
  };
  core::OmxConfig plain;
  core::OmxConfig sync;
  sync.ioat_medium = true;
  core::OmxConfig overlap;
  overlap.ioat_medium_overlap = true;
  const sim::Time t_plain = stream_time(plain);
  const sim::Time t_sync = stream_time(sync);
  const sim::Time t_overlap = stream_time(overlap);
  EXPECT_LT(t_overlap, t_plain);
  EXPECT_LT(t_overlap, t_sync);
}

TEST(MediumOverlap, SurvivesLoss) {
  core::OmxConfig cfg;
  cfg.ioat_medium_overlap = true;
  cfg.retrans_timeout = 100 * sim::kMicrosecond;
  core::Cluster cluster(1, {}, [] {
    openmx::net::NetParams p;
    p.loss_prob = 0.05;
    p.loss_seed = 77;
    return p;
  }());
  cluster.add_nodes(2, cfg);
  const std::size_t len = 24 * 1024;
  auto src = pattern(len);
  std::vector<std::uint8_t> dst(len);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < 10; ++i)
      ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < 10; ++i) ep.wait(ep.irecv(dst.data(), len, 1));
  });
  cluster.run();
  EXPECT_EQ(dst, src);
}
