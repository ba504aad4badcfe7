// Tests for the Node/Cluster composition layer: cache-coherence helpers,
// deadlock detection, process exception propagation, and node wiring —
// the failure paths on one LP (run inline) and on two (run by the
// threaded LP scheduler).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace cpu = openmx::cpu;

TEST(Node, CacheForCoreFollowsSubchips) {
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  core::Node& n = cluster.node(0);
  EXPECT_EQ(&n.cache_for_core(0), &n.cache_for_core(1));
  EXPECT_NE(&n.cache_for_core(0), &n.cache_for_core(2));
  EXPECT_NE(&n.cache_for_core(1), &n.cache_for_core(4));
}

TEST(Node, TouchExclusiveInvalidatesOtherCaches) {
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  core::Node& n = cluster.node(0);
  static std::uint8_t buf[4096 * 4] __attribute__((aligned(4096)));
  // Make the range resident everywhere first.
  for (int c = 0; c < cpu::Machine::kNumCores; c += 2)
    n.cache_for_core(c).touch(buf, sizeof buf);
  // A store by core 0 takes exclusive ownership.
  n.touch_exclusive(0, buf, sizeof buf);
  EXPECT_DOUBLE_EQ(n.cache_for_core(0).hit_fraction(buf, sizeof buf), 1.0);
  EXPECT_DOUBLE_EQ(n.cache_for_core(2).hit_fraction(buf, sizeof buf), 0.0);
  EXPECT_DOUBLE_EQ(n.cache_for_core(4).hit_fraction(buf, sizeof buf), 0.0);
}

TEST(Node, FlushCachesDropsEverything) {
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  core::Node& n = cluster.node(0);
  static std::uint8_t buf[4096];
  n.cache_for_core(0).touch(buf, sizeof buf);
  n.flush_caches();
  EXPECT_EQ(n.cache_for_core(0).resident_pages(), 0u);
}

// The parameter is the LP count; a two-LP cluster runs one worker per LP.
class ClusterLps : public ::testing::TestWithParam<int> {};

TEST_P(ClusterLps, NodesGetSequentialIds) {
  core::Cluster cluster(GetParam());
  cluster.add_nodes(3, {});
  EXPECT_EQ(cluster.num_nodes(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(cluster.node(static_cast<std::size_t>(i)).id(), i);
}

TEST_P(ClusterLps, DeadlockedProcessIsReported) {
  core::Cluster cluster(GetParam());
  cluster.add_nodes(GetParam(), {});
  // On the last node, so with two LPs the blocked process is on LP 1.
  core::Node& node = cluster.node(cluster.num_nodes() - 1);
  cluster.spawn(node, 0, "waits-forever", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    std::uint8_t buf[16];
    ep.wait(ep.irecv(buf, sizeof buf, 1));  // nothing ever arrives
  });
  try {
    cluster.run(static_cast<unsigned>(GetParam()));
    FAIL() << "expected deadlock report";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("waits-forever"),
              std::string::npos);
  }
}

TEST_P(ClusterLps, ProcessExceptionPropagates) {
  core::Cluster cluster(GetParam());
  cluster.add_nodes(GetParam(), {});
  cluster.spawn(cluster.node(cluster.num_nodes() - 1), 0, "thrower",
                [](core::Process&) { throw std::logic_error("app bug"); });
  EXPECT_THROW(cluster.run(static_cast<unsigned>(GetParam())),
               std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Lps, ClusterLps, ::testing::Values(1, 2));

TEST(Cluster, ProcessesComputeConcurrentlyOnDifferentCores) {
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  sim::Time end0 = 0, end1 = 0;
  cluster.spawn(cluster.node(0), 0, "a", [&](core::Process& p) {
    p.compute(100 * sim::kMicrosecond);
    end0 = p.now();
  });
  cluster.spawn(cluster.node(0), 2, "b", [&](core::Process& p) {
    p.compute(100 * sim::kMicrosecond);
    end1 = p.now();
  });
  cluster.run();
  EXPECT_EQ(end0, 100 * sim::kMicrosecond);
  EXPECT_EQ(end1, 100 * sim::kMicrosecond);  // parallel, not serialized
}

TEST(Cluster, ProcessesSerializeOnSameCore) {
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  sim::Time end0 = 0, end1 = 0;
  cluster.spawn(cluster.node(0), 0, "a", [&](core::Process& p) {
    p.compute(100 * sim::kMicrosecond);
    end0 = p.now();
  });
  cluster.spawn(cluster.node(0), 0, "b", [&](core::Process& p) {
    p.compute(100 * sim::kMicrosecond);
    end1 = p.now();
  });
  cluster.run();
  // One of them must have waited for the core.
  EXPECT_EQ(std::max(end0, end1), 200 * sim::kMicrosecond);
}

TEST(Cluster, PerNodeConfigsAreIndependent) {
  core::OmxConfig a;
  a.ioat_large = true;
  core::OmxConfig b;
  b.native_mx = true;
  core::Cluster cluster;
  cluster.add_node(a);
  cluster.add_node(b);
  EXPECT_TRUE(cluster.node(0).driver().config().ioat_large);
  EXPECT_FALSE(cluster.node(0).driver().config().native_mx);
  EXPECT_TRUE(cluster.node(1).driver().config().native_mx);
}
