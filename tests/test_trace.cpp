// Tests for the event-trace ring and its driver integration.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "sim/trace.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace obs = openmx::obs;

namespace {

/// Renders `fn(FILE*)` into a string via a tmpfile.
template <typename Fn>
std::string render(Fn&& fn) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  fn(f);
  const long len = (std::fseek(f, 0, SEEK_END), std::ftell(f));
  std::rewind(f);
  std::string out(static_cast<std::size_t>(len), '\0');
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

/// Number of retained events interned under `name`.
std::size_t count(sim::Trace& t, const char* name) {
  const obs::EventId id = t.intern_event(name);
  std::size_t n = 0;
  for (const obs::TraceEvent& e : t.tail()) n += e.id == id.id;
  return n;
}

}  // namespace

TEST(Trace, DisabledRecordsNothing) {
  sim::Trace t;
  EXPECT_FALSE(t.enabled());
  t.event(1, 0, t.intern_event("x"), 7);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.tail().empty());

  // Capacity 0 is "off", whatever was enabled before.
  t.enable(4);
  t.event(2, 0, t.intern_event("x"));
  t.enable(0);
  EXPECT_FALSE(t.enabled());
  t.event(3, 0, t.intern_event("x"));
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, RecordsInOrder) {
  sim::Trace t;
  t.enable();
  EXPECT_EQ(t.capacity(), sim::Trace::kFullCapacity);
  const obs::EventId a = t.intern_event("wire.tx");
  const obs::EventId b = t.intern_event("pull.start");
  t.event(10, 0, a, 1);
  t.event(20, 1, b, 2, 3);
  const auto tail = t.tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].when, 10);
  EXPECT_EQ(tail[0].a0, 1u);
  EXPECT_EQ(tail[1].when, 20);
  EXPECT_EQ(tail[1].node, 1);
  EXPECT_EQ(tail[1].a1, 3u);
}

TEST(Trace, TypedEventsCarryIdCategoryAndArgs) {
  sim::Trace t;
  t.enable();
  const obs::EventId id = t.intern_event("pull.done");
  // Interning is idempotent: a second call hands out the same id.
  EXPECT_EQ(t.intern_event("pull.done").id, id.id);
  EXPECT_EQ(id.cat, obs::Cat::Pull);
  t.event(5, 2, id, 123, 456);
  t.event(6, 2, id, 789);
  const auto tail = t.tail();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].id, id.id);
  EXPECT_EQ(tail[0].cat, obs::Cat::Pull);
  EXPECT_EQ(tail[0].a0, 123u);
  EXPECT_EQ(tail[0].a1, 456u);
  EXPECT_EQ(tail[1].a0, 789u);
  EXPECT_EQ(tail[1].a1, 0u);
  EXPECT_EQ(tail[1].node, 2);

  // The human-readable dump names the event and prints only the
  // arguments that were set.
  const std::string dump = render([&](std::FILE* f) { t.dump(f); });
  EXPECT_NE(dump.find("n2  pull.done  a0=123 a1=456\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("n2  pull.done  a0=789\n"), std::string::npos) << dump;
}

TEST(Trace, RingDropsOldest) {
  sim::Trace t;
  t.enable(4);
  const obs::EventId id = t.intern_event("c");
  for (int i = 0; i < 10; ++i) t.event(i, 0, id, static_cast<std::uint64_t>(i));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto tail = t.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().a0, 6u);
  EXPECT_EQ(tail.back().a0, 9u);
}

// A postmortem-sized ring keeps exactly the newest `capacity` events,
// oldest first, however far it has wrapped.
TEST(Trace, RingKeepsChronologicalTail) {
  sim::Trace t;
  t.enable(256);
  const obs::EventId id = t.intern_event("wire.tx");
  for (std::uint64_t i = 0; i < 300; ++i)
    t.event(static_cast<sim::Time>(i), 0, id, i);
  EXPECT_EQ(t.size() + t.dropped(), 300u);
  const auto tail = t.tail();
  ASSERT_EQ(tail.size(), 256u);  // oldest 44 overwritten
  EXPECT_EQ(tail.front().a0, 44u);
  EXPECT_EQ(tail.back().a0, 299u);
  for (std::size_t i = 1; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].a0, tail[i - 1].a0 + 1);
}

TEST(Trace, ClearResets) {
  sim::Trace t;
  t.enable(2);
  const obs::EventId id = t.intern_event("a");
  for (int i = 0; i < 3; ++i) t.event(i, 0, id);
  ASSERT_EQ(t.dropped(), 1u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.enabled());  // clearing keeps the capacity
  t.event(9, 0, id, 5);
  ASSERT_EQ(t.tail().size(), 1u);
  EXPECT_EQ(t.tail()[0].a0, 5u);
}

// The dump format is a contract with omx_postmortem: header first, then
// one sscanf-parseable instant event per line.
TEST(Trace, DumpFormatRoundTrips) {
  sim::Trace t;
  t.enable(64);
  const obs::EventId id = t.intern_event("pull.start");
  t.event(1500, 2, id, 9, 65536);

  const std::string dump = render([&](std::FILE* f) {
    t.dump_json(f, "pull retries exhausted handle=9", /*seed=*/1234);
  });

  char reason[128];
  unsigned long long seed = 0;
  ASSERT_EQ(std::sscanf(dump.c_str(),
                        "{\"postmortem\":{\"reason\":\"%127[^\"]\","
                        "\"seed\":%llu",
                        reason, &seed),
            2);
  EXPECT_STREQ(reason, "pull retries exhausted handle=9");
  EXPECT_EQ(seed, 1234u);

  const std::size_t pos = dump.find("\n{\"name\":\"pull.start\"");
  ASSERT_NE(pos, std::string::npos);
  char name[64], cat[32];
  unsigned pid = 0;
  int tid = 0, node = -1;
  double ts = 0;
  unsigned long long a0 = 0, a1 = 0;
  ASSERT_EQ(std::sscanf(dump.c_str() + pos + 1,
                        "{\"name\":\"%63[^\"]\",\"cat\":\"%31[^\"]\","
                        "\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,\"tid\":%d,"
                        "\"ts\":%lf,\"args\":{\"node\":%d,\"a0\":%llu,"
                        "\"a1\":%llu",
                        name, cat, &pid, &tid, &ts, &node, &a0, &a1),
            8);
  EXPECT_STREQ(cat, "pull");
  EXPECT_EQ(node, 2);
  EXPECT_EQ(a0, 9u);
  EXPECT_EQ(a1, 65536u);
  EXPECT_DOUBLE_EQ(ts, 1.5);  // microseconds
  EXPECT_NE(dump.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

TEST(TraceIntegration, DriverEmitsWireAndPullRecords) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  cluster.engine().trace().enable();

  const std::size_t len = 256 * sim::KiB;  // 64 frags, 8 blocks
  std::vector<std::uint8_t> src(len, 3), dst(len);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecv(dst.data(), len, 1));
  });
  cluster.run();
  EXPECT_EQ(dst, src);

  auto& tr = cluster.engine().trace();
  // rndv + 8 pull reqs + 64 replies + acks all traced.
  EXPECT_EQ(count(tr, "pull.start"), 1u);
  EXPECT_EQ(count(tr, "pull.done"), 1u);
  EXPECT_GE(count(tr, "wire.tx"), 74u);

  // The pull lifecycle is ordered: start strictly before done.
  const std::uint16_t start_id = tr.intern_event("pull.start").id;
  const std::uint16_t done_id = tr.intern_event("pull.done").id;
  sim::Time started = -1, done = -1;
  for (const obs::TraceEvent& e : tr.tail()) {
    if (e.id == start_id) started = e.when;
    if (e.id == done_id) done = e.when;
  }
  EXPECT_GE(started, 0);
  EXPECT_GT(done, started);
}

TEST(TraceIntegration, DisabledTraceCostsNothingInCounters) {
  core::Cluster cluster;
  cluster.add_nodes(2, {});
  std::vector<std::uint8_t> src(4096, 1), dst(4096);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecv(dst.data(), dst.size(), 1));
  });
  cluster.run();
  EXPECT_EQ(cluster.engine().trace().size(), 0u);
}
