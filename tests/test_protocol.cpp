// Protocol-level tests of the Open-MX driver: acknowledgment and
// deduplication behaviour, retransmission counters, stale-handle
// handling, event ordering, pull-block pipelining, wire accounting and
// the header checksum.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "core/wire.hpp"
#include "tests/test_common.hpp"

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

struct Net2 {
  core::Cluster cluster;
  explicit Net2(core::OmxConfig cfg = {}, net::NetParams np = {})
      : cluster(1, {}, np) {
    cluster.add_nodes(2, cfg);
  }
  core::Node& n0() { return cluster.node(0); }
  core::Node& n1() { return cluster.node(1); }
};

void simple_transfer(core::Cluster& cluster, std::size_t len,
                     std::vector<std::uint8_t>& src,
                     std::vector<std::uint8_t>& dst, int count = 1) {
  src = pattern(len);
  dst.assign(len ? len : 1, 0);
  cluster.spawn(cluster.node(0), 0, "s", [&, count](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < count; ++i)
      ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&, count](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < count; ++i)
      ep.wait(ep.irecv(dst.data(), len, 1));
  });
  cluster.run();
  dst.resize(len);
}

/// Changing any one header field of a `Pkt` — the listed type-specific
/// ones plus the common endpoints — changes core::pkt_checksum.
template <typename Pkt>
void expect_checksum_covers(std::vector<std::function<void(Pkt&)>> fields) {
  Pkt pkt;
  pkt.src_ep = 2;
  pkt.dst_ep = 3;
  const std::uint32_t base = core::pkt_checksum(pkt);
  fields.push_back([](Pkt& p) { p.src_ep ^= 1; });
  fields.push_back([](Pkt& p) { p.dst_ep ^= 1; });
  for (std::size_t i = 0; i < fields.size(); ++i) {
    Pkt changed = pkt;
    fields[i](changed);
    EXPECT_NE(core::pkt_checksum(changed), base)
        << "field " << i << " of PktType " << static_cast<int>(pkt.type);
  }
}

/// Rewriting or resizing a packet's payload bytes leaves its checksum
/// unchanged: only the header is hashed.
template <typename Pkt>
void expect_checksum_ignores_payload() {
  Pkt pkt;
  pkt.data = pattern(8192);
  const std::uint32_t base = core::pkt_checksum(pkt);
  pkt.data = pattern(8192, 9);
  EXPECT_EQ(core::pkt_checksum(pkt), base);
  pkt.data.resize(100);
  EXPECT_EQ(core::pkt_checksum(pkt), base);
}

}  // namespace

TEST(Protocol, ChecksumCoversEveryHeaderFieldAndNoPayloadByte) {
  expect_checksum_covers<core::EagerFragPkt>({
      [](auto& p) { p.match_info ^= 1; },
      [](auto& p) { p.msg_seq ^= 1; },
      [](auto& p) { p.msg_len ^= 1; },
      [](auto& p) { p.frag_idx ^= 1; },
      [](auto& p) { p.frag_count ^= 1; },
      [](auto& p) { p.offset ^= 1; },
  });
  expect_checksum_covers<core::RndvPkt>({
      [](auto& p) { p.match_info ^= 1; },
      [](auto& p) { p.msg_seq ^= 1; },
      [](auto& p) { p.msg_len ^= 1; },
      [](auto& p) { p.src_handle ^= 1; },
  });
  expect_checksum_covers<core::PullReqPkt>({
      [](auto& p) { p.src_handle ^= 1; },
      [](auto& p) { p.dst_handle ^= 1; },
      [](auto& p) { p.frag_start ^= 1; },
      [](auto& p) { p.frag_count ^= 1; },
  });
  expect_checksum_covers<core::PullReplyPkt>({
      [](auto& p) { p.dst_handle ^= 1; },
      [](auto& p) { p.frag_idx ^= 1; },
      [](auto& p) { p.offset ^= 1; },
      [](auto& p) { p.length ^= 1; },
  });
  expect_checksum_covers<core::MsgAckPkt>({
      [](auto& p) { p.msg_seq ^= 1; },
  });
  expect_checksum_covers<core::LargeAckPkt>({
      [](auto& p) { p.src_handle ^= 1; },
      [](auto& p) { p.msg_seq ^= 1; },
      [](auto& p) { p.failed = !p.failed; },
  });
  expect_checksum_covers<core::NackPkt>({
      [](auto& p) { p.msg_seq ^= 1; },
      [](auto& p) { p.src_handle ^= 1; },
  });
  expect_checksum_ignores_payload<core::EagerFragPkt>();
  expect_checksum_ignores_payload<core::PullReplyPkt>();
}

TEST(Protocol, EagerMessageIsAckedOnce) {
  Net2 f;
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 8 * 1024, src, dst);
  EXPECT_EQ(dst, src);
  // 2 data fragments + 1 ack on the wire.
  EXPECT_EQ(f.cluster.network().counters().get("net.tx_frames"), 3u);
  EXPECT_EQ(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
}

TEST(Protocol, LargeMessageFrameAccounting) {
  Net2 f;
  std::vector<std::uint8_t> src, dst;
  const std::size_t len = 256 * sim::KiB;  // 64 fragments, 8 blocks
  simple_transfer(f.cluster, len, src, dst);
  EXPECT_EQ(dst, src);
  const auto& net = f.cluster.network().counters();
  // rndv + 8 pull requests + 64 replies + 1 large-ack = 74 frames.
  EXPECT_EQ(net.get("net.tx_frames"), 74u);
  EXPECT_EQ(f.n0().driver().counters().get("driver.pull_replies"), 64u);
  EXPECT_EQ(f.n1().driver().counters().get("driver.pull_reqs"), 8u);
  EXPECT_EQ(f.n1().driver().counters().get("driver.pulls_finished"), 1u);
}

TEST(Protocol, PipelineKeepsTwoBlocksOutstanding) {
  core::OmxConfig cfg;
  cfg.pull_blocks_outstanding = 2;
  Net2 f(cfg);
  // Track the maximum number of requested-but-incomplete blocks by
  // watching pull requests vs finished blocks through wire counters over
  // time: the first two requests go out together.
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 128 * sim::KiB, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.n1().driver().counters().get("driver.pull_reqs"), 4u);
}

TEST(Protocol, DuplicateEagerIsReackedNotRedelivered) {
  // Force a duplicate by dropping the first MsgAck: sender retransmits,
  // receiver must re-ack without delivering the payload twice.
  net::NetParams np;
  np.loss_prob = 0.35;
  np.loss_seed = 11;
  core::OmxConfig cfg;
  cfg.retrans_timeout = 50 * sim::kMicrosecond;
  Net2 f(cfg, np);
  std::vector<std::uint8_t> src, dst;
  int recv_count = 0;
  src = pattern(4096);
  dst.assign(4096, 0);
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < 10; ++i)
      ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < 10; ++i) {
      ep.wait(ep.irecv(dst.data(), dst.size(), 1));
      ++recv_count;
    }
  });
  f.cluster.run();
  EXPECT_EQ(recv_count, 10);
  EXPECT_EQ(dst, src);
  // With 35 % loss something must have been retransmitted.
  EXPECT_GT(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
}

TEST(Protocol, SendToUnknownEndpointFailsAfterRetries) {
  core::OmxConfig cfg;
  cfg.retrans_timeout = 20 * sim::kMicrosecond;
  cfg.max_retries = 5;
  Net2 f(cfg);
  std::vector<std::uint8_t> src = pattern(512);
  bool failed = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    // Endpoint 9 was never opened on node 1; the send can never be acked,
    // so the driver gives up after max_retries and reports failure.
    const core::Request done = ep.wait(ep.isend(src.data(), src.size(),
                                                {1, 9}, 1));
    failed = done.failed;
  });
  f.cluster.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(f.n0().driver().counters().get("driver.aborted_sends"), 1u);
  // The receiver's driver nacks the unknown endpoint, so the sender fails
  // fast instead of burning its full retry budget.
  EXPECT_EQ(f.n1().driver().counters().get("driver.nacks_sent"), 1u);
  EXPECT_EQ(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
}

TEST(Protocol, RndvToUnknownEndpointFailsAfterRetries) {
  core::OmxConfig cfg;
  cfg.retrans_timeout = 20 * sim::kMicrosecond;
  cfg.max_retries = 5;
  Net2 f(cfg);
  std::vector<std::uint8_t> src = pattern(256 * 1024);
  bool failed = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    const core::Request done = ep.wait(ep.isend(src.data(), src.size(),
                                                {1, 9}, 1));
    failed = done.failed;
  });
  f.cluster.run();
  EXPECT_TRUE(failed);
}

TEST(Protocol, TruncatedPullTransfersOnlyCapacity) {
  Net2 f;
  const std::size_t sent = sim::MiB;
  const std::size_t cap = 256 * sim::KiB;
  auto src = pattern(sent);
  std::vector<std::uint8_t> dst(cap, 0);
  std::size_t got = 0;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), sent, {1, 1}, 1));
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    got = ep.wait(ep.irecv(dst.data(), cap, 1)).recv_len;
  });
  f.cluster.run();
  EXPECT_EQ(got, cap);
  EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.begin()));
  // Only the truncated length crossed the wire: 64 fragments, not 256.
  EXPECT_EQ(f.n0().driver().counters().get("driver.pull_replies"), 64u);
}

TEST(Protocol, EventsArriveInFragmentStreamOrder) {
  // Single-fragment messages from one sender are delivered in send order
  // (the wire, rings and event queue are all FIFO).
  Net2 f;
  constexpr int kMsgs = 32;
  std::vector<int> order;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    std::vector<core::Request*> reqs;
    std::vector<std::vector<std::uint8_t>> bufs;
    for (int i = 0; i < kMsgs; ++i) {
      bufs.push_back(pattern(64, static_cast<std::uint8_t>(i)));
      reqs.push_back(ep.isend(bufs.back().data(), 64, {1, 1},
                              static_cast<std::uint64_t>(i)));
    }
    for (auto* r : reqs) ep.wait(r);
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    std::vector<std::uint8_t> buf(64);
    for (int i = 0; i < kMsgs; ++i) {
      // Wildcard receives: completion order == arrival order.
      const core::Request done = ep.wait(ep.irecv(buf.data(), 64, 0, 0));
      (void)done;
      order.push_back(static_cast<int>(buf[1]));
    }
  });
  f.cluster.run();
  // Message i's pattern(seed=i) second byte identifies it; they must come
  // out 0..kMsgs-1 in order.
  for (int i = 1; i < kMsgs; ++i)
    EXPECT_NE(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(i - 1)]);
}

TEST(Protocol, ConcurrentLargePullsUseDistinctHandles) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  Net2 f(cfg);
  constexpr int kMsgs = 4;
  const std::size_t len = 512 * sim::KiB;
  std::vector<std::vector<std::uint8_t>> src, dst(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    src.push_back(pattern(len, static_cast<std::uint8_t>(i + 1)));
    dst[static_cast<std::size_t>(i)].resize(len);
  }
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    std::vector<core::Request*> reqs;
    for (int i = 0; i < kMsgs; ++i)
      reqs.push_back(ep.isend(src[static_cast<std::size_t>(i)].data(), len,
                              {1, 1}, static_cast<std::uint64_t>(i)));
    for (auto* r : reqs) ep.wait(r);
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    std::vector<core::Request*> reqs;
    for (int i = 0; i < kMsgs; ++i)
      reqs.push_back(ep.irecv(dst[static_cast<std::size_t>(i)].data(), len,
                              static_cast<std::uint64_t>(i)));
    for (auto* r : reqs) ep.wait(r);
  });
  f.cluster.run();
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(dst[static_cast<std::size_t>(i)],
              src[static_cast<std::size_t>(i)])
        << i;
  EXPECT_EQ(f.n1().driver().counters().get("driver.pulls_started"),
            static_cast<std::uint64_t>(kMsgs));
}

TEST(Protocol, HeavyLossEventuallyDeliversEverything) {
  net::NetParams np;
  np.loss_prob = 0.30;
  np.loss_seed = 321;
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 40 * sim::kMicrosecond;
  Net2 f(cfg, np);
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 512 * sim::KiB, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.cluster.network().counters().get("net.dropped_frames"), 0u);
  openmx::testutil::expect_no_leaks(f.cluster);
  openmx::testutil::expect_frame_conservation(f.cluster);
}

TEST(Protocol, ZeroByteMessageCompletesBothSides) {
  Net2 f;
  bool send_done = false, recv_done = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(nullptr, 0, {1, 1}, 1));
    send_done = true;
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    const core::Request done = ep.wait(ep.irecv(nullptr, 0, 1));
    recv_done = true;
    EXPECT_EQ(done.recv_len, 0u);
  });
  f.cluster.run();
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(recv_done);
}

TEST(Protocol, SelfSendThroughLocalPath) {
  // An endpoint sending to another endpoint of the same process's node
  // uses the local path even when both endpoints belong to one process.
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  auto src = pattern(128 * 1024);
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
  EXPECT_EQ(cluster.node(0).driver().counters().get("driver.local_sent"),
            1u);
  EXPECT_EQ(cluster.network().counters().get("net.tx_frames"), 0u);
}

TEST(Protocol, WildcardMaskMatchesAnything) {
  Net2 f;
  auto src = pattern(1024);
  std::vector<std::uint8_t> dst(1024);
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 0xDEADBEEF));
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    const core::Request done =
        ep.wait(ep.irecv(dst.data(), dst.size(), 0, /*mask=*/0));
    EXPECT_EQ(done.recv_len, 1024u);
  });
  f.cluster.run();
  EXPECT_EQ(dst, src);
}

TEST(Protocol, TinyRxRingRecoversViaRetransmission) {
  // A receive ring far smaller than the pull window: frames are dropped
  // at the NIC while I/OAT holds skbuffs, and the pull protocol's
  // re-requests recover every fragment.
  net::NetParams np;
  np.rx_ring_slots = 6;
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 100 * sim::kMicrosecond;
  Net2 f(cfg, np);
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 512 * sim::KiB, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.n1().nic().counters().get("nic.rx_ring_drops"), 0u);
  openmx::testutil::expect_no_leaks(f.cluster);
  openmx::testutil::expect_frame_conservation(f.cluster);
}

TEST(Protocol, ManySmallMessagesKeepRingBounded) {
  Net2 f;
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 2048, src, dst, /*count=*/200);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.n1().nic().counters().get("nic.rx_ring_drops"), 0u);
  openmx::testutil::expect_no_leaks(f.cluster);
  openmx::testutil::expect_frame_conservation(f.cluster);
}
