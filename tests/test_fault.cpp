// Scripted-fault regression tests: one named test per adversarial
// scenario the protocol must survive.  Each installs a deterministic
// fault::Plan at the network (and/or DMA) injection point, runs a
// transfer, and asserts byte-exact delivery plus the expected
// retransmit/dedup/fallback counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "fault/fault.hpp"
#include "tests/test_common.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace net = openmx::net;
namespace fault = openmx::fault;
namespace testutil = openmx::testutil;

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

struct Net2 {
  core::Cluster cluster;
  explicit Net2(core::OmxConfig cfg = {}, net::NetParams np = {})
      : cluster(1, {}, np) {
    cluster.add_nodes(2, cfg);
  }
  core::Node& n0() { return cluster.node(0); }
  core::Node& n1() { return cluster.node(1); }
};

/// One eager/rendezvous transfer node0 -> node1 under the installed
/// faults; returns true iff the receive completed without failure.
bool transfer(Net2& f, std::size_t len, std::vector<std::uint8_t>& src,
              std::vector<std::uint8_t>& dst, int count = 1) {
  src = pattern(len);
  dst.assign(len ? len : 1, 0);
  bool ok = true;
  f.cluster.spawn(f.n0(), 0, "s", [&, count](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < count; ++i)
      if (ep.wait(ep.isend(src.data(), len, {1, 1}, 1)).failed) ok = false;
  });
  f.cluster.spawn(f.n1(), 0, "r", [&, count](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < count; ++i)
      if (ep.wait(ep.irecv(dst.data(), len, 1)).failed) ok = false;
  });
  f.cluster.run();
  dst.resize(len);
  return ok;
}

core::OmxConfig fast_retrans() {
  core::OmxConfig cfg;
  cfg.retrans_timeout = 40 * sim::kMicrosecond;
  return cfg;
}

}  // namespace

TEST(Fault, LastFragmentDropIsRetransmitted) {
  Net2 f(fast_retrans());
  fault::Plan plan(1);
  // An 8 KiB eager message is two fragments; eat the second (last) one.
  plan.drop_nth(fault::Match::Eager, 1);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 8 * 1024, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.cluster.network().counters().get("net.fault_drops"), 1u);
  EXPECT_GT(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
  // The retransmission resends both fragments; the receiver already has
  // fragment 0 and must swallow it as a duplicate.
  EXPECT_GT(f.n1().driver().counters().get("driver.eager_dup_frags"), 0u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, AckOnlyDropForcesReackWithoutRedelivery) {
  Net2 f(fast_retrans());
  fault::Plan plan(2);
  // The receiver's first MsgAck vanishes: the sender must retransmit and
  // the receiver must re-ack from its completed set, not redeliver.
  plan.drop_nth(fault::Match::MsgAck, 0);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 2048, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
  EXPECT_GT(f.n1().driver().counters().get("driver.eager_dup_reacks"), 0u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, NackOnlyDropExhaustsRetriesInsteadOfFailingFast) {
  core::OmxConfig cfg = fast_retrans();
  cfg.max_retries = 4;
  Net2 f(cfg);
  fault::Plan plan(3);
  // Every Nack is eaten: the fail-fast path is gone, so the sender must
  // burn its full retry budget before reporting the failure.
  plan.drop_all(fault::Match::Nack);
  f.cluster.network().set_fault_injector(&plan);
  auto src = pattern(512);
  bool failed = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    // Endpoint 9 does not exist on node 1.
    failed = ep.wait(ep.isend(src.data(), src.size(), {1, 9}, 1)).failed;
  });
  f.cluster.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(f.n0().driver().counters().get("driver.aborted_sends"), 1u);
  // Without the nacks the sender retried all the way to the cap.
  EXPECT_EQ(f.n0().driver().counters().get("driver.eager_retransmits"),
            static_cast<std::uint64_t>(cfg.max_retries));
  EXPECT_GT(f.n1().driver().counters().get("driver.nacks_sent"), 1u);
  EXPECT_GT(f.cluster.network().counters().get("net.fault_drops"), 1u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, DuplicateDeliveryIsDeduplicated) {
  Net2 f;
  fault::Plan plan(4);
  // The single data fragment is delivered twice; the second copy arrives
  // after completion and must only trigger a re-ack.
  plan.duplicate_nth(fault::Match::Eager, 0);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 1024, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.cluster.network().counters().get("net.fault_dup_frames"), 1u);
  const auto& d1 = f.n1().driver().counters();
  // The duplicate hit either the completed-set re-ack or the
  // duplicate-fragment guard — in both cases it was not delivered twice.
  EXPECT_EQ(d1.get("driver.eager_dup_reacks") +
                d1.get("driver.eager_dup_frags"),
            1u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, ReorderWindowStillAssemblesInOrder) {
  Net2 f(fast_retrans());
  fault::Plan plan(5);
  // Hold the first fragment back 20 us: fragments 1..3 overtake it on
  // the wire and arrive first; reassembly must still be byte-exact.
  plan.delay_nth(fault::Match::Eager, 0, 20 * sim::kMicrosecond);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 16 * 1024, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.cluster.network().counters().get("net.fault_delayed"), 1u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, GilbertElliottBurstLossEventuallyDelivers) {
  core::OmxConfig cfg = fast_retrans();
  cfg.ioat_large = true;
  Net2 f(cfg);
  fault::Plan plan(6);
  fault::GilbertElliott ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.3;
  ge.loss_bad = 0.7;
  plan.burst_loss(ge);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 256 * sim::KiB, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_GT(plan.counters().get("fault.burst_drops"), 0u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, CorruptedFragmentIsDetectedAndRetransmitted) {
  Net2 f(fast_retrans());
  fault::Plan plan(7);
  // Damage the first data fragment's wire image: the receiver's checksum
  // verify must turn it into a silent drop, recovered by retransmission.
  plan.corrupt_nth(fault::Match::Eager, 0);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 4096, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.cluster.network().counters().get("net.fault_corrupted"), 1u);
  EXPECT_EQ(f.n1().driver().counters().get("driver.csum_drops"), 1u);
  EXPECT_GT(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, CorruptedAckIsDiscardedBeforeDispatch) {
  Net2 f(fast_retrans());
  fault::Plan plan(8);
  plan.corrupt_nth(fault::Match::MsgAck, 0);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 1024, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.n0().driver().counters().get("driver.csum_drops"), 1u);
  EXPECT_GT(f.n1().driver().counters().get("driver.eager_dup_reacks"), 0u);
  testutil::expect_no_leaks(f.cluster);
}

TEST(Fault, DmaDescriptorFailureFallsBackToMemcpy) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  Net2 f(cfg);
  fault::Plan plan(9);
  // Fail three early descriptors of the receiver's engine: their bytes
  // never move, and the driver must repair the fragments with the CPU
  // instead of throwing or delivering garbage.
  plan.fail_descriptors(/*from=*/4, /*count=*/3);
  f.n1().ioat().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 512 * sim::KiB, src, dst));
  EXPECT_EQ(dst, src);
  const auto& d1 = f.n1().driver().counters();
  EXPECT_GT(d1.get("driver.dma_faults"), 0u);
  EXPECT_GT(d1.get("driver.dma_fallback_bytes"), 0u);
  EXPECT_EQ(f.n1().ioat().counters().get("ioat.desc_failures"), 3u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, DmaChannelStallDelaysButDelivers) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  Net2 f(cfg);
  fault::Plan plan(10);
  // The first eight descriptors each stall 30 us before starting: the
  // drain wait absorbs the delay; nothing is lost.
  plan.stall_channel(/*chan=*/-1, /*from=*/0, /*count=*/8,
                     30 * sim::kMicrosecond);
  f.n1().ioat().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 256 * sim::KiB, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.n1().ioat().counters().get("ioat.stalls"), 8u);
  testutil::expect_no_leaks(f.cluster);
}

TEST(Fault, PullAbortWaitsForQueuedDescriptors) {
  core::OmxConfig cfg = fast_retrans();
  cfg.ioat_large = true;
  cfg.max_retries = 2;
  Net2 f(cfg);
  fault::Plan plan(11);
  // Only the first reply gets through, and its descriptor stalls for far
  // longer than the pull takes to exhaust its retries (about 300 us).
  const sim::Time stall = 2 * sim::kMillisecond;
  plan.drop_nth(fault::Match::PullReply, 1,
                std::numeric_limits<std::uint64_t>::max());
  plan.stall_channel(/*chan=*/-1, /*from=*/0, /*count=*/1, stall);
  f.cluster.network().set_fault_injector(&plan);
  f.n1().ioat().set_fault_injector(&plan);
  const std::size_t len = 256 * sim::KiB;
  auto src = pattern(len);
  std::vector<std::uint8_t> dst(len, 0);
  bool send_failed = false, recv_failed = false;
  sim::Time failed_at = 0;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    send_failed = ep.wait(ep.isend(src.data(), len, {1, 1}, 1)).failed;
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    recv_failed = ep.wait(ep.irecv(dst.data(), len, 1)).failed;
    failed_at = p.now();
    // The request is over, so the buffer is the application's again.
    std::fill(dst.begin(), dst.end(), std::uint8_t{0xEE});
  });
  f.cluster.run();
  EXPECT_TRUE(send_failed);
  EXPECT_TRUE(recv_failed);
  EXPECT_EQ(f.n1().driver().counters().get("driver.aborted_pulls"), 1u);
  EXPECT_EQ(f.n1().ioat().counters().get("ioat.stalls"), 1u);
  EXPECT_GE(failed_at, stall);
  // The queued descriptor ran before the failure was reported, so it
  // cannot have overwritten what the application wrote afterwards.
  EXPECT_EQ(std::count(dst.begin(), dst.end(), std::uint8_t{0xEE}),
            static_cast<std::ptrdiff_t>(len));
  testutil::expect_no_leaks(f.cluster);
}

TEST(Fault, MediumOverlapDescriptorFailureFallsBack) {
  core::OmxConfig cfg;
  cfg.ioat_medium_overlap = true;
  Net2 f(cfg);
  fault::Plan plan(11);
  plan.fail_descriptors(/*from=*/1, /*count=*/2);
  f.n1().ioat().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  // A 16 KiB eager message: four overlapped ring copies on one channel.
  ASSERT_TRUE(transfer(f, 16 * 1024, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.n1().driver().counters().get("driver.dma_faults"), 0u);
  testutil::expect_no_leaks(f.cluster);
}

TEST(Fault, ShmCopyDescriptorFailureFallsBack) {
  core::OmxConfig cfg;
  cfg.ioat_shm = true;
  core::Cluster cluster;
  cluster.add_nodes(1, cfg);
  fault::Plan plan(12);
  plan.fail_descriptors(/*from=*/10, /*count=*/5);
  cluster.node(0).ioat().set_fault_injector(&plan);
  auto src = pattern(2 * sim::MiB);
  std::vector<std::uint8_t> dst(src.size());
  cluster.spawn(cluster.node(0), 0, "p", [&](core::Process& p) {
    core::Endpoint ep0(p, 0);
    core::Endpoint ep1(p, 1);
    core::Request* r = ep1.irecv(dst.data(), dst.size(), 5);
    core::Request* s = ep0.isend(src.data(), src.size(), {0, 1}, 5);
    ep1.wait(r);
    ep0.wait(s);
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  const auto& d = cluster.node(0).driver().counters();
  EXPECT_GT(d.get("driver.dma_faults"), 0u);
  EXPECT_EQ(d.get("driver.dma_fallback_bytes"), 2 * sim::MiB);
}

TEST(Fault, RendezvousSurvivesPullRequestAndReplyDrops) {
  core::OmxConfig cfg = fast_retrans();
  cfg.ioat_large = true;
  Net2 f(cfg);
  fault::Plan plan(13);
  plan.drop_nth(fault::Match::PullReq, 1);
  plan.drop_nth(fault::Match::PullReply, 5, /*count=*/3);
  plan.drop_nth(fault::Match::LargeAck, 0);
  f.cluster.network().set_fault_injector(&plan);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 256 * sim::KiB, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.n1().driver().counters().get("driver.pull_retransmits") +
                f.n1().driver().counters().get("driver.pull_rereqs"),
            0u);
  testutil::expect_no_leaks(f.cluster);
  testutil::expect_frame_conservation(f.cluster);
}

TEST(Fault, InjectorRemovalRestoresCleanWire) {
  // A plan installed and then cleared must leave no residue: the second
  // transfer sees a fault-free wire.
  Net2 f;
  fault::Plan plan(14);
  plan.drop_prob(fault::Match::Any, 1.0);
  f.cluster.network().set_fault_injector(&plan);
  f.cluster.network().set_fault_injector(nullptr);
  std::vector<std::uint8_t> src, dst;
  ASSERT_TRUE(transfer(f, 4096, src, dst));
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.cluster.network().counters().get("net.fault_drops"), 0u);
  EXPECT_EQ(plan.frames_seen(), 0u);
}
