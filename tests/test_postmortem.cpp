// End-to-end postmortem path: a scripted fault plan drives a rendezvous
// pull to retry exhaustion, the driver's fatal path fires
// Engine::on_panic, the postmortem trace ring dumps, and the dump's tail
// maps back to the faulting message — the acceptance loop behind
// examples/omx_postmortem, pinned as a tier-1 test.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "fault/fault.hpp"
#include "mem/aligned_buffer.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace obs = openmx::obs;
namespace fault = openmx::fault;
namespace mem = openmx::mem;

namespace {

struct ForcedFailure {
  std::string reason;
  int panics = 0;
  bool recv_failed = false;
  bool send_failed = false;
  std::vector<obs::TraceEvent> tail;  // the trace ring, copied at panic
};

/// Kills every PullReply so the receiver's pull burns its retry budget;
/// fills `out` with what the panic hook and the endpoints observed.  The
/// ring belongs to the cluster's engine, so the panic hook copies its
/// tail and, when `dump_path` is set, dumps it there while the cluster
/// is alive.
void force_pull_exhaustion(ForcedFailure& out,
                           const std::string& dump_path = {}) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 50 * sim::kMicrosecond;
  cfg.max_retries = 3;

  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  sim::Trace& trace = cluster.engine().trace();
  trace.enable(256);
  cluster.engine().set_on_panic([&](const char* why) {
    out.reason = why;
    ++out.panics;
    out.tail = trace.tail();
    if (!dump_path.empty()) trace.dump_json_file(dump_path, why, /*seed=*/99);
  });

  fault::Plan plan(7);
  plan.drop_all(fault::Match::PullReply);
  cluster.network().set_fault_injector(&plan);

  const std::size_t len = 256 * sim::KiB;
  mem::Buffer src(len, 1), dst(len, 2);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    out.send_failed = ep.wait(ep.isend(src.data(), len, {1, 1}, 3)).failed;
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    out.recv_failed = ep.wait(ep.irecv(dst.data(), len, 3)).failed;
  });
  cluster.run();
}

}  // namespace

TEST(Postmortem, PullExhaustionFiresPanicWithMessageIdentity) {
  ForcedFailure f;
  force_pull_exhaustion(f);
  EXPECT_TRUE(f.recv_failed);
  EXPECT_EQ(f.panics, 1);  // at-most-once, even with retries + abort path
  // The reason names the faulting message so tooling can map the tail.
  EXPECT_NE(f.reason.find("pull retries exhausted"), std::string::npos)
      << f.reason;
  EXPECT_NE(f.reason.find("handle="), std::string::npos) << f.reason;
}

TEST(Postmortem, RecorderTailMapsToFaultingMessage) {
  ForcedFailure f;
  force_pull_exhaustion(f);
  ASSERT_FALSE(f.reason.empty());
  // Extract the handle the driver blamed...
  unsigned long long handle = 0;
  ASSERT_EQ(std::sscanf(f.reason.c_str() + f.reason.find("handle="),
                        "handle=%llu", &handle),
            1);
  // ...and find it in the ring's tail: the pull.start event carries
  // (handle, len) as a0/a1.
  ASSERT_FALSE(f.tail.empty());
  bool mapped = false;
  for (const obs::TraceEvent& e : f.tail)
    if (e.cat == obs::Cat::Pull && e.a0 == handle) mapped = true;
  EXPECT_TRUE(mapped) << "no pull event with a0=" << handle
                      << " in the recorded tail";
}

TEST(Postmortem, DumpFileRoundTripsReasonAndSeed) {
  const std::string path = ::testing::TempDir() + "postmortem_test.json";
  ForcedFailure f;
  force_pull_exhaustion(f, path);  // dumped by the panic hook mid-run
  ASSERT_EQ(f.panics, 1);

  std::FILE* in = std::fopen(path.c_str(), "r");
  ASSERT_NE(in, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof line, in), nullptr);
  char reason[128];
  unsigned long long seed = 0;
  EXPECT_EQ(std::sscanf(line,
                        "{\"postmortem\":{\"reason\":\"%127[^\"]\","
                        "\"seed\":%llu",
                        reason, &seed),
            2);
  EXPECT_EQ(seed, 99u);
  EXPECT_EQ(f.reason, reason);
  std::size_t events = 0;
  while (std::fgets(line, sizeof line, in))
    if (std::strncmp(line, "{\"name\":", 8) == 0) ++events;
  std::fclose(in);
  std::remove(path.c_str());
  EXPECT_GT(events, 0u);
}

TEST(Postmortem, OnPanicFiresWhenEventCallbackThrows) {
  sim::Engine eng;
  std::string reason;
  eng.set_on_panic([&](const char* why) { reason = why; });
  eng.schedule(100, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(eng.run(), std::runtime_error);  // panic reports, then rethrows
  EXPECT_EQ(reason, "event callback threw");

  // Re-arming via set_on_panic allows a second report; without it the
  // hook stays one-shot.
  std::string second;
  eng.set_on_panic([&](const char* why) { second = why; });
  eng.panic("manual");
  eng.panic("ignored");
  EXPECT_EQ(second, "manual");
}
