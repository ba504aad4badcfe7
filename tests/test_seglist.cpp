// Unit tests for the scatter/gather segment list and functional tests of
// the vectorial isendv/irecvv paths, including the Section IV-A rule that
// sub-kilobyte chunks must not be offloaded to I/OAT.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "core/seglist.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;

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

/// Splits `buf` into segments of `seg` bytes.
std::vector<core::IoVec> split(std::vector<std::uint8_t>& buf,
                               std::size_t seg) {
  std::vector<core::IoVec> v;
  for (std::size_t off = 0; off < buf.size(); off += seg)
    v.push_back(core::IoVec{buf.data() + off,
                            std::min(seg, buf.size() - off)});
  return v;
}

}  // namespace

TEST(SegList, ContiguousBasics) {
  std::vector<std::uint8_t> buf(100);
  core::SegList s(buf.data(), buf.size());
  EXPECT_EQ(s.total(), 100u);
  EXPECT_EQ(s.segment_count(), 1u);
  EXPECT_EQ(s.min_piece(0, 100), 100u);
  EXPECT_EQ(s.min_piece(10, 20), 20u);
  EXPECT_EQ(s.piece_count(0, 100, 4096), 1u);
}

TEST(SegList, WriteAndReadRoundtrip) {
  std::vector<std::uint8_t> a(10), b(20), c(5);
  const core::IoVec segs[] = {{a.data(), 10}, {b.data(), 20}, {c.data(), 5}};
  core::SegList s(segs, 3);
  EXPECT_EQ(s.total(), 35u);
  auto src = pattern(35);
  EXPECT_EQ(s.write(0, src.data(), 35), 35u);
  std::vector<std::uint8_t> out(35);
  EXPECT_EQ(s.read(0, out.data(), 35), 35u);
  EXPECT_EQ(out, src);
  EXPECT_EQ(a[0], src[0]);
  EXPECT_EQ(b[0], src[10]);
  EXPECT_EQ(c[4], src[34]);
}

TEST(SegList, WriteClipsAtEnd) {
  std::vector<std::uint8_t> a(10);
  core::SegList s(a.data(), 10);
  auto src = pattern(64);
  EXPECT_EQ(s.write(6, src.data(), 64), 4u);
}

TEST(SegList, OffsetSpansSegments) {
  std::vector<std::uint8_t> a(8), b(8);
  const core::IoVec segs[] = {{a.data(), 8}, {b.data(), 8}};
  core::SegList s(segs, 2);
  auto src = pattern(6);
  EXPECT_EQ(s.write(5, src.data(), 6), 6u);
  EXPECT_EQ(a[5], src[0]);
  EXPECT_EQ(b[0], src[3]);
  EXPECT_EQ(s.min_piece(5, 6), 3u);   // 3 bytes in a, 3 in b
  EXPECT_EQ(s.piece_count(5, 6, 4096), 2u);
}

TEST(SegList, PieceCountHonorsPageChunking) {
  std::vector<std::uint8_t> a(10000);
  core::SegList s(a.data(), a.size());
  EXPECT_EQ(s.piece_count(0, 10000, 4096), 3u);
  EXPECT_EQ(s.piece_count(0, 4096, 4096), 1u);
}

TEST(SegList, EmptySegmentsAreDropped) {
  std::vector<std::uint8_t> a(4);
  const core::IoVec segs[] = {{a.data(), 0}, {a.data(), 4}, {nullptr, 0}};
  core::SegList s(segs, 3);
  EXPECT_EQ(s.segment_count(), 1u);
  EXPECT_EQ(s.total(), 4u);
}

TEST(SegList, PrefixClips) {
  std::vector<std::uint8_t> a(10), b(10);
  const core::IoVec segs[] = {{a.data(), 10}, {b.data(), 10}};
  core::SegList s(segs, 2);
  core::SegList p = s.prefix(14);
  EXPECT_EQ(p.total(), 14u);
  EXPECT_EQ(p.segment_count(), 2u);
  EXPECT_EQ(p.min_piece(0, 14), 4u);
}

TEST(SegList, PiecePairsIntersect) {
  std::vector<std::uint8_t> s1(7), s2(9), d1(4), d2(12);
  const core::IoVec ss[] = {{s1.data(), 7}, {s2.data(), 9}};
  const core::IoVec dd[] = {{d1.data(), 4}, {d2.data(), 12}};
  core::SegList src(ss, 2), dst(dd, 2);
  auto data = pattern(16);
  src.write(0, data.data(), 16);
  std::size_t pieces = 0, moved = 0;
  core::for_piece_pairs(src, dst, 16,
                        [&](const std::uint8_t* sp, std::uint8_t* dp,
                            std::size_t len) {
                          std::memcpy(dp, sp, len);
                          ++pieces;
                          moved += len;
                        });
  EXPECT_EQ(moved, 16u);
  EXPECT_GE(pieces, 3u);  // boundaries at 4, 7 split the run
  std::vector<std::uint8_t> out(16);
  dst.read(0, out.data(), 16);
  EXPECT_EQ(out, data);
}

TEST(SegList, ContiguousOnlyInsideOneSegment) {
  std::vector<std::uint8_t> a(8), b(8);
  const core::IoVec segs[] = {{a.data(), 8}, {b.data(), 8}};
  core::SegList s(segs, 2);
  EXPECT_EQ(s.contiguous(0, 8), a.data());
  EXPECT_EQ(s.contiguous(3, 5), a.data() + 3);
  EXPECT_EQ(s.contiguous(8, 8), b.data());
  EXPECT_EQ(s.contiguous(10, 6), b.data() + 2);
  EXPECT_EQ(s.contiguous(5, 6), nullptr);   // straddles a|b
  EXPECT_EQ(s.contiguous(12, 8), nullptr);  // runs past the end
  EXPECT_EQ(s.contiguous(16, 1), nullptr);
}

// ----- vectorial messaging end to end -----

struct VecCase {
  std::size_t msg;
  std::size_t send_seg;
  std::size_t recv_seg;
  bool ioat;
};

class Vectorial : public ::testing::TestWithParam<VecCase> {};

TEST_P(Vectorial, PayloadSurvivesScatterGather) {
  const VecCase& c = GetParam();
  core::OmxConfig cfg;
  cfg.ioat_large = c.ioat;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);

  auto src = pattern(c.msg);
  auto sendcopy = src;
  std::vector<std::uint8_t> dst(c.msg, 0);
  auto ssegs = split(sendcopy, c.send_seg);
  auto rsegs = split(dst, c.recv_seg);

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isendv(ssegs.data(), ssegs.size(), {1, 1}, 9));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    const core::Request done =
        ep.wait(ep.irecvv(rsegs.data(), rsegs.size(), 9));
    EXPECT_EQ(done.recv_len, c.msg);
  });
  cluster.run();
  EXPECT_EQ(dst, src);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Vectorial,
    ::testing::Values(VecCase{8192, 1000, 3000, false},
                      VecCase{8192, 3000, 1000, true},
                      VecCase{256 * 1024, 4096, 4096, true},
                      VecCase{256 * 1024, 512, 100000, true},
                      VecCase{256 * 1024, 100000, 512, true},
                      VecCase{1024 * 1024, 777, 123456, true}));

TEST(Vectorial, SmallSegmentsBypassIoat) {
  // Section IV-A: fragments under ~1 kB must not be offloaded; a receive
  // buffer made of 512 B segments therefore falls back to memcpy.
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  const std::size_t msg = 256 * sim::KiB;
  auto src = pattern(msg);
  std::vector<std::uint8_t> dst(msg);
  auto rsegs = split(dst, 512);

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), msg, {1, 1}, 9));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecvv(rsegs.data(), rsegs.size(), 9));
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  EXPECT_EQ(cluster.node(1).driver().counters().get("driver.large_ioat_bytes"),
            0u);
  EXPECT_GT(
      cluster.node(1).driver().counters().get("driver.large_memcpy_bytes"),
      0u);
}

TEST(Vectorial, PageSegmentsDoUseIoat) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  const std::size_t msg = 256 * sim::KiB;
  auto src = pattern(msg);
  std::vector<std::uint8_t> dst(msg);
  auto rsegs = split(dst, 4096);

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), msg, {1, 1}, 9));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecvv(rsegs.data(), rsegs.size(), 9));
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  EXPECT_GT(cluster.node(1).driver().counters().get("driver.large_ioat_bytes"),
            0u);
}

TEST(Vectorial, LocalVectorialCopy) {
  core::OmxConfig cfg;
  core::Cluster cluster;
  cluster.add_nodes(1, cfg);
  const std::size_t msg = 64 * sim::KiB;
  auto srcdata = pattern(msg);
  auto sendcopy = srcdata;
  std::vector<std::uint8_t> dst(msg);
  auto ssegs = split(sendcopy, 3333);
  auto rsegs = split(dst, 7777);

  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isendv(ssegs.data(), ssegs.size(), {0, 1}, 9));
  });
  cluster.spawn(cluster.node(0), 2, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecvv(rsegs.data(), rsegs.size(), 9));
  });
  cluster.run();
  EXPECT_EQ(dst, srcdata);
}

// ----- zero-copy pull replies: what the wire carries -----

namespace {

/// Records every PullReply frame on the wire and leaves all frames alone.
struct ReplyTap : openmx::net::FaultInjector {
  std::vector<std::shared_ptr<const core::PullReplyPkt>> replies;
  openmx::net::FaultDecision on_transmit(
      const openmx::net::Frame& f) override {
    auto rep = std::dynamic_pointer_cast<const core::PullReplyPkt>(f.payload);
    if (rep) replies.push_back(std::move(rep));
    return {};
  }
};

/// Pulls `msg` bytes sent as `ssegs` into one contiguous buffer with
/// I/OAT offload on, and returns every PullReply the sender put on the
/// wire.  The delivery must be byte-exact.
std::vector<std::shared_ptr<const core::PullReplyPkt>> pull_through_tap(
    const std::vector<core::IoVec>& ssegs,
    const std::vector<std::uint8_t>& expect) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  ReplyTap tap;
  cluster.network().set_fault_injector(&tap);
  std::vector<std::uint8_t> dst(expect.size(), 0);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    EXPECT_FALSE(
        ep.wait(ep.isendv(ssegs.data(), ssegs.size(), {1, 1}, 9)).failed);
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    EXPECT_FALSE(ep.wait(ep.irecv(dst.data(), dst.size(), 9)).failed);
  });
  cluster.run();
  EXPECT_EQ(dst, expect);
  EXPECT_GT(cluster.node(1).driver().counters().get("driver.large_ioat_bytes"),
            0u);
  return std::move(tap.replies);
}

}  // namespace

TEST(ZeroCopyPull, ContiguousSendRepliesReferenceTheSendBuffer) {
  const std::size_t msg = 256 * sim::KiB;
  auto src = pattern(msg);
  const auto replies = pull_through_tap({{src.data(), msg}}, src);
  ASSERT_EQ(replies.size(), msg / 4096);
  for (const auto& r : replies) {
    EXPECT_EQ(r->length, 4096u);
    EXPECT_EQ(r->pages, src.data() + r->offset) << "frag " << r->frag_idx;
    EXPECT_TRUE(r->data.empty()) << "frag " << r->frag_idx;
    EXPECT_EQ(r->bytes(), r->pages);
  }
}

TEST(ZeroCopyPull, OnlyStraddlingFragmentsAreGathered) {
  const std::size_t msg = 256 * sim::KiB;
  auto check = [&](const std::vector<std::uint8_t>& src,
                   const std::vector<core::IoVec>& ssegs,
                   std::size_t want_gathered) {
    std::vector<std::size_t> bounds;  // segment ends, as message offsets
    std::size_t pos = 0;
    for (const core::IoVec& v : ssegs) bounds.push_back(pos += v.len);
    const auto replies = pull_through_tap(ssegs, src);
    ASSERT_EQ(replies.size(), msg / 4096);
    std::size_t gathered = 0;
    for (const auto& r : replies) {
      const std::size_t lo = r->offset, hi = lo + r->length;
      const bool straddles =
          std::any_of(bounds.begin(), bounds.end(),
                      [&](std::size_t b) { return b > lo && b < hi; });
      if (!straddles) {
        EXPECT_EQ(r->pages, src.data() + lo) << "frag " << r->frag_idx;
        EXPECT_TRUE(r->data.empty()) << "frag " << r->frag_idx;
        continue;
      }
      ++gathered;
      EXPECT_EQ(r->pages, nullptr) << "frag " << r->frag_idx;
      ASSERT_EQ(r->data.size(), r->length);
      EXPECT_TRUE(std::equal(r->data.begin(), r->data.end(),
                             src.begin() + static_cast<std::ptrdiff_t>(lo)))
          << "frag " << r->frag_idx;
    }
    EXPECT_EQ(gathered, want_gathered);
  };
  // 777-byte segments put a boundary inside every 4 KiB fragment.
  auto a = pattern(msg, 5);
  check(a, split(a, 777), msg / 4096);
  // A 777-byte head in front of one big segment straddles fragment 0 only.
  auto b = pattern(msg, 6);
  check(b, {{b.data(), 777}, {b.data() + 777, msg - 777}}, 1);
}
