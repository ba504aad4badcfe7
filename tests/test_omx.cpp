// End-to-end functional tests of the Open-MX stack: payload integrity
// across every path (eager, rendezvous, intra-node), matching semantics,
// unexpected messages, truncation, retransmission under loss, and the
// I/OAT offload invariants (identical payloads, bounded skbuff pool).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace net = openmx::net;

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

/// Runs one message of `len` bytes from node 0 to node 1 (or intra-node if
/// `local`), returns the received bytes.
struct TransferResult {
  std::vector<std::uint8_t> data;
  std::size_t recv_len = 0;
  sim::Time elapsed = 0;
};

TransferResult run_transfer(std::size_t len, core::OmxConfig cfg,
                            bool local = false,
                            net::NetParams netp = {},
                            bool post_recv_late = false) {
  core::Cluster cluster(1, {}, netp);
  cluster.add_nodes(2, cfg);
  core::Node& n0 = cluster.node(0);
  core::Node& n1 = local ? cluster.node(0) : cluster.node(1);

  auto src = pattern(len);
  TransferResult result;
  result.data.assign(len ? len : 1, 0);

  cluster.spawn(n0, 0, "sender", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    if (post_recv_late) p.compute(50 * sim::kMicrosecond);
    ep.wait(ep.isend(src.data(), len,
                     core::Addr{n1.id(), 1}, /*match=*/0xAB));
  });
  cluster.spawn(n1, local ? 2 : 0, "receiver", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    if (!post_recv_late) {
      core::Request* r = ep.irecv(result.data.data(), len, 0xAB);
      const sim::Time t0 = p.now();
      core::Request done = ep.wait(r);
      result.elapsed = p.now() - t0;
      result.recv_len = done.recv_len;
    } else {
      // Let the message arrive unexpected first.
      p.compute(100 * sim::kMicrosecond);
      core::Request done =
          ep.wait(ep.irecv(result.data.data(), len, 0xAB));
      result.recv_len = done.recv_len;
    }
  });
  cluster.run();
  result.data.resize(len);
  if (len) {
    EXPECT_EQ(result.data == src, true) << "payload mismatch";
  }
  return result;
}

}  // namespace

// ----- eager path -----

class EagerSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EagerSizes, DeliversExactPayload) {
  auto r = run_transfer(GetParam(), {});
  EXPECT_EQ(r.recv_len, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllEagerSizes, EagerSizes,
                         ::testing::Values(0, 1, 13, 128, 1024, 4095, 4096,
                                           4097, 8192, 16 * 1024,
                                           32 * 1024));

// ----- rendezvous (large) path -----

class LargeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LargeSizes, DeliversExactPayloadWithoutIoat) {
  core::OmxConfig cfg;
  auto r = run_transfer(GetParam(), cfg);
  EXPECT_EQ(r.recv_len, GetParam());
}

TEST_P(LargeSizes, DeliversExactPayloadWithIoat) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  auto r = run_transfer(GetParam(), cfg);
  EXPECT_EQ(r.recv_len, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllLargeSizes, LargeSizes,
                         ::testing::Values(32 * 1024 + 1, 64 * 1024,
                                           100 * 1000, 256 * 1024,
                                           1024 * 1024, 4 * 1024 * 1024));

TEST(OmxLarge, IoatIsFasterThanMemcpyForLargeMessages) {
  core::OmxConfig off;
  core::OmxConfig on;
  on.ioat_large = true;
  const std::size_t len = sim::MiB;
  const auto t_off = run_transfer(len, off).elapsed;
  const auto t_on = run_transfer(len, on).elapsed;
  EXPECT_LT(t_on, t_off);
  // Paper: ~30-50 % throughput gain for large messages.
  EXPECT_GT(static_cast<double>(t_off) / static_cast<double>(t_on), 1.15);
}

TEST(OmxLarge, IgnoreBhCopyIsFastest) {
  core::OmxConfig ign;
  ign.ignore_bh_copy = true;
  core::OmxConfig on;
  on.ioat_large = true;
  const std::size_t len = 256 * sim::KiB;
  EXPECT_LE(run_transfer(len, ign).elapsed, run_transfer(len, on).elapsed);
}

TEST(OmxLarge, NativeMxBeatsOpenMxWithoutIoat) {
  core::OmxConfig mx;
  mx.native_mx = true;
  core::OmxConfig omx;
  const std::size_t len = sim::MiB;
  EXPECT_LT(run_transfer(len, mx).elapsed, run_transfer(len, omx).elapsed);
}

// ----- unexpected messages -----

TEST(OmxUnexpected, EagerBufferedUntilRecvPosted) {
  auto r = run_transfer(16 * 1024, {}, false, {}, /*post_recv_late=*/true);
  EXPECT_EQ(r.recv_len, 16u * 1024);
}

TEST(OmxUnexpected, RndvWaitsForMatch) {
  auto r = run_transfer(sim::MiB, {}, false, {}, /*post_recv_late=*/true);
  EXPECT_EQ(r.recv_len, sim::MiB);
}

TEST(OmxUnexpected, LocalWaitsForMatch) {
  auto r = run_transfer(64 * 1024, {}, true, {}, /*post_recv_late=*/true);
  EXPECT_EQ(r.recv_len, 64u * 1024);
}

// ----- intra-node path -----

class LocalSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LocalSizes, OneCopyDeliversPayload) {
  auto r = run_transfer(GetParam(), {}, /*local=*/true);
  EXPECT_EQ(r.recv_len, GetParam());
}

TEST_P(LocalSizes, OneCopyDeliversPayloadWithIoatShm) {
  core::OmxConfig cfg;
  cfg.ioat_shm = true;
  auto r = run_transfer(GetParam(), cfg, /*local=*/true);
  EXPECT_EQ(r.recv_len, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllLocalSizes, LocalSizes,
                         ::testing::Values(0, 64, 4096, 32 * 1024,
                                           sim::MiB, 4 * sim::MiB));

TEST(OmxLocal, IoatHelpsCrossSocketLargeMessages) {
  core::OmxConfig off;
  core::OmxConfig on;
  on.ioat_shm = true;
  const std::size_t len = 4 * sim::MiB;  // above shm threshold, beyond L2
  const auto t_off = run_transfer(len, off, true).elapsed;
  const auto t_on = run_transfer(len, on, true).elapsed;
  // Paper Figure 10: ~80 % higher throughput beyond the cache size.
  EXPECT_GT(static_cast<double>(t_off) / static_cast<double>(t_on), 1.4);
}

// ----- matching semantics -----

TEST(OmxMatching, MaskSelectsMessages) {
  core::Cluster cluster;
  cluster.add_nodes(2, {});
  auto a = pattern(512, 3), b = pattern(512, 9);
  std::vector<std::uint8_t> ra(512), rb(512);
  std::uint64_t src_a = 0, src_b = 0;

  cluster.spawn(cluster.node(0), 0, "sender", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    core::Request* s1 = ep.isend(a.data(), a.size(), {1, 1}, 0x1111);
    core::Request* s2 = ep.isend(b.data(), b.size(), {1, 1}, 0x2222);
    ep.wait(s1);
    ep.wait(s2);
  });
  cluster.spawn(cluster.node(1), 0, "receiver", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    // Match only messages whose low nibble is 2 (i.e. 0x2222).
    core::Request* r2 = ep.irecv(rb.data(), rb.size(), 0x0002, 0x000F);
    core::Request* r1 = ep.irecv(ra.data(), ra.size(), 0x0001, 0x000F);
    src_b = ep.wait(r2).match;
    src_a = ep.wait(r1).match;
  });
  cluster.run();
  EXPECT_EQ(ra, a);
  EXPECT_EQ(rb, b);
  (void)src_a;
  (void)src_b;
}

TEST(OmxMatching, TwoMessagesSameMatchArriveInOrder) {
  core::Cluster cluster;
  cluster.add_nodes(2, {});
  auto a = pattern(2048, 3), b = pattern(2048, 9);
  std::vector<std::uint8_t> r1(2048), r2(2048);

  cluster.spawn(cluster.node(0), 0, "sender", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    core::Request* s1 = ep.isend(a.data(), a.size(), {1, 1}, 5);
    core::Request* s2 = ep.isend(b.data(), b.size(), {1, 1}, 5);
    ep.wait(s1);
    ep.wait(s2);
  });
  cluster.spawn(cluster.node(1), 0, "receiver", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    core::Request* q1 = ep.irecv(r1.data(), r1.size(), 5);
    core::Request* q2 = ep.irecv(r2.data(), r2.size(), 5);
    ep.wait(q1);
    ep.wait(q2);
  });
  cluster.run();
  EXPECT_EQ(r1, a);
  EXPECT_EQ(r2, b);
}

// ----- truncation -----

TEST(OmxTruncation, EagerTruncatesToCapacity) {
  core::Cluster cluster;
  cluster.add_nodes(2, {});
  auto src = pattern(8192);
  std::vector<std::uint8_t> dst(1000, 0);
  std::size_t got = 0;

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    got = ep.wait(ep.irecv(dst.data(), dst.size(), 1)).recv_len;
  });
  cluster.run();
  EXPECT_EQ(got, 1000u);
  EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.begin()));
}

// ----- reliability: loss injection -----

class LossySizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(LossySizes, RetransmissionRecoversPayload) {
  auto [len, loss] = GetParam();
  net::NetParams netp;
  netp.loss_prob = loss;
  netp.loss_seed = 1234;
  core::OmxConfig cfg;
  cfg.retrans_timeout = 100 * sim::kMicrosecond;
  auto r = run_transfer(len, cfg, false, netp);
  EXPECT_EQ(r.recv_len, len);
}

TEST_P(LossySizes, RetransmissionRecoversPayloadWithIoat) {
  auto [len, loss] = GetParam();
  net::NetParams netp;
  netp.loss_prob = loss;
  netp.loss_seed = 99;
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 100 * sim::kMicrosecond;
  auto r = run_transfer(len, cfg, false, netp);
  EXPECT_EQ(r.recv_len, len);
}

INSTANTIATE_TEST_SUITE_P(
    LossMatrix, LossySizes,
    ::testing::Combine(::testing::Values(std::size_t{2048},
                                         std::size_t{32 * 1024},
                                         std::size_t{256 * 1024}),
                       ::testing::Values(0.02, 0.10)));

TEST(OmxLoss, RetransmitCountersIncrease) {
  net::NetParams netp;
  netp.loss_prob = 0.2;
  netp.loss_seed = 5;
  core::OmxConfig cfg;
  cfg.retrans_timeout = 50 * sim::kMicrosecond;

  core::Cluster cluster(1, {}, netp);
  cluster.add_nodes(2, cfg);
  auto src = pattern(64 * 1024);
  std::vector<std::uint8_t> dst(src.size());
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecv(dst.data(), dst.size(), 1));
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  const auto retrans =
      cluster.node(1).driver().counters().get("driver.pull_retransmits") +
      cluster.node(0).driver().counters().get("driver.rndv_retransmits");
  EXPECT_GT(retrans + cluster.network().counters().get("net.dropped_frames"),
            0u);
}

// ----- I/OAT resource tracking (Section III-B) -----

TEST(OmxResources, PendingSkbuffsBoundedDuringLargeIoatReceive) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  const std::size_t len = 8 * sim::MiB;
  auto src = pattern(len);
  std::vector<std::uint8_t> dst(len);

  // Sample the receiver's pending-skbuff count while the transfer runs.
  std::size_t max_pending = 0;
  bool transfer_done = false;
  std::function<void()> sampler = [&] {
    max_pending = std::max(
        max_pending, cluster.node(1).driver().pending_offload_skbuffs());
    if (!transfer_done)
      cluster.engine().schedule(20 * sim::kMicrosecond, [&] { sampler(); });
  };
  cluster.engine().schedule(20 * sim::kMicrosecond, [&] { sampler(); });

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecv(dst.data(), len, 1));
    transfer_done = true;
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  // The cleanup routine bounds pending copies to roughly the outstanding
  // window (2 blocks of 8 fragments) plus transient slack.
  EXPECT_LE(max_pending, 48u);
  EXPECT_GT(cluster.node(1).driver().counters().get("driver.cleanup_runs"), 0u);
}

TEST(OmxResources, RxRingNeverDropsInNormalOperation) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  const std::size_t len = 4 * sim::MiB;
  auto src = pattern(len);
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
  EXPECT_EQ(cluster.node(1).nic().counters().get("nic.rx_ring_drops"), 0u);
}

// ----- registration cache -----

TEST(OmxRegcache, ReusedBufferHitsCache) {
  core::OmxConfig cfg;
  cfg.regcache = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  const std::size_t len = sim::MiB;
  auto src = pattern(len);
  std::vector<std::uint8_t> dst(len);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < 3; ++i)
      ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < 3; ++i)
      ep.wait(ep.irecv(dst.data(), len, 1));
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  EXPECT_GE(
      cluster.node(0).driver().regcache().counters().get("regcache.hit"), 2u);
  EXPECT_GE(
      cluster.node(1).driver().regcache().counters().get("regcache.hit"), 2u);
}

// ----- bidirectional & many messages -----

TEST(OmxStress, ManyInterleavedMessagesBothDirections) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  constexpr int kMsgs = 20;
  std::vector<std::vector<std::uint8_t>> sent0, sent1, got0(kMsgs),
      got1(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    const std::size_t len = 1000 + static_cast<std::size_t>(i) * 7919;
    sent0.push_back(pattern(len, static_cast<std::uint8_t>(i + 1)));
    sent1.push_back(pattern(len, static_cast<std::uint8_t>(i + 101)));
    got0[static_cast<std::size_t>(i)].resize(len);
    got1[static_cast<std::size_t>(i)].resize(len);
  }
  auto body = [&](core::Process& p, int me) {
    core::Endpoint ep(p, static_cast<std::uint16_t>(me));
    auto& mine = me == 0 ? sent0 : sent1;
    auto& theirs = me == 0 ? got1 : got0;
    std::vector<core::Request*> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      reqs.push_back(ep.irecv(theirs[static_cast<std::size_t>(i)].data(),
                              theirs[static_cast<std::size_t>(i)].size(),
                              static_cast<std::uint64_t>(i)));
      reqs.push_back(ep.isend(mine[static_cast<std::size_t>(i)].data(),
                              mine[static_cast<std::size_t>(i)].size(),
                              {1 - me, static_cast<std::uint16_t>(1 - me)},
                              static_cast<std::uint64_t>(i)));
    }
    for (auto* r : reqs) ep.wait(r);
  };
  cluster.spawn(cluster.node(0), 0, "p0",
                [&](core::Process& p) { body(p, 0); });
  cluster.spawn(cluster.node(1), 0, "p1",
                [&](core::Process& p) { body(p, 1); });
  cluster.run();
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(got0[static_cast<std::size_t>(i)], sent0[static_cast<std::size_t>(i)]) << i;
    EXPECT_EQ(got1[static_cast<std::size_t>(i)], sent1[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(OmxTest, TestPollsWithoutBlocking) {
  core::Cluster cluster;
  cluster.add_nodes(2, {});
  auto src = pattern(4096);
  std::vector<std::uint8_t> dst(4096);
  bool completed_by_test = false;
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    core::Request* r = ep.irecv(dst.data(), dst.size(), 1);
    while (!ep.test(r)) p.compute(sim::kMicrosecond);
    completed_by_test = true;
  });
  cluster.run();
  EXPECT_TRUE(completed_by_test);
  EXPECT_EQ(dst, src);
}
