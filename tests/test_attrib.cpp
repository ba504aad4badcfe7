// Tests for the obs::attrib causal latency-attribution layer: the
// exact-partition contract (per-message blame sums equal the span
// total), the SpanTable wait-state stamp sites in cpu::Machine and
// dma::IoatEngine, the critical-path walker, the per-size-class report,
// and the stamps-off-is-free contract.
#include <gtest/gtest.h>

#include <string>

#include "bench/common.hpp"
#include "cpu/machine.hpp"
#include "dma/ioat.hpp"
#include "fault/fault.hpp"
#include "obs/attrib.hpp"
#include "sim/engine.hpp"

using namespace openmx;

namespace {

sim::Time get_wait(const obs::Span* s, obs::Wait w) {
  return s ? s->waited(w) : -1;
}

// ---------------------------------------------------------------------
// Partition walker on synthetic spans
// ---------------------------------------------------------------------

TEST(AttribWalker, EmptySpanBlamesNothing) {
  obs::Span s;
  const obs::BlameVec v = obs::attribute_blame(s);
  EXPECT_EQ(obs::blame_sum(v), 0);
}

TEST(AttribWalker, PartitionIsExactWithoutRawStamps) {
  // No wait-state stamps: the residual after ingress is generic
  // bottom-half time, and the partition still sums exactly.
  obs::Span s;
  s.mark(obs::Phase::WireArrival, 100);
  s.mark(obs::Phase::WireArrival, 700);
  s.mark(obs::Phase::BottomHalf, 150);
  s.mark(obs::Phase::BottomHalf, 900);
  s.mark(obs::Phase::Notify, 900);
  s.mark(obs::Phase::Notify, 950);
  const obs::BlameVec v = obs::attribute_blame(s);
  EXPECT_EQ(obs::blame_sum(v), s.total_ns());
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::Wire)], 600);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::BhExec)], 200);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::Notify)], 50);
  EXPECT_EQ(obs::critical_blame(v), obs::Blame::Wire);
}

TEST(AttribWalker, DmaTailSplitsQueueWaitFromTransfer) {
  // The measured drain wait is peeled off the host residual and split
  // between ring-queue wait and transfer time by the message's own
  // descriptor totals — queue wait reported separately from transfer.
  obs::Span s;
  s.mark(obs::Phase::WireArrival, 0);
  s.mark(obs::Phase::WireArrival, 1000);
  s.mark(obs::Phase::BottomHalf, 10);
  s.mark(obs::Phase::BottomHalf, 2000);
  s.mark(obs::Phase::Notify, 2000);
  s.mark(obs::Phase::Notify, 2100);

  s.waits[static_cast<std::size_t>(obs::Wait::DmaDrainWait)] = 600;
  s.waits[static_cast<std::size_t>(obs::Wait::DmaQueueWait)] = 300;
  s.waits[static_cast<std::size_t>(obs::Wait::DmaTransfer)] = 900;
  s.waits[static_cast<std::size_t>(obs::Wait::BhExec)] = 400;

  const obs::BlameVec v = obs::attribute_blame(s);
  EXPECT_EQ(obs::blame_sum(v), s.total_ns());
  // Tail of 600 split 300:900 -> 150 queue / 450 transfer.
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::DmaQueueWait)], 150);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::DmaTransfer)], 450);
  // Remaining residual (1000 - 600) goes to the only host category.
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::BhExec)], 400);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::Wire)], 1000);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::Notify)], 100);
}

TEST(AttribWalker, HostResidualSplitsProportionally) {
  // Memcpy-path residual is apportioned across the measured host-side
  // categories; bus-contention stall stays distinct from copy execution.
  obs::Span s;
  s.mark(obs::Phase::WireArrival, 0);
  s.mark(obs::Phase::WireArrival, 500);
  s.mark(obs::Phase::BottomHalf, 5);
  s.mark(obs::Phase::BottomHalf, 1500);
  s.mark(obs::Phase::Notify, 1500);

  s.waits[static_cast<std::size_t>(obs::Wait::BhQueueWait)] = 100;
  s.waits[static_cast<std::size_t>(obs::Wait::BhExec)] = 100;
  s.waits[static_cast<std::size_t>(obs::Wait::MemcpyExec)] = 600;
  s.waits[static_cast<std::size_t>(obs::Wait::BusStall)] = 200;

  const obs::BlameVec v = obs::attribute_blame(s);
  EXPECT_EQ(obs::blame_sum(v), s.total_ns());
  // Residual 1000 split 100:100:600:200.
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::BhQueueWait)], 100);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::BhExec)], 100);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::MemcpyExec)], 600);
  EXPECT_EQ(v[static_cast<std::size_t>(obs::Blame::BusStall)], 200);
  EXPECT_EQ(obs::critical_blame(v), obs::Blame::MemcpyExec);
}

TEST(AttribWalker, CriticalBlameTieBreaksDeterministically) {
  obs::BlameVec v{};
  v[static_cast<std::size_t>(obs::Blame::Wire)] = 500;
  v[static_cast<std::size_t>(obs::Blame::DmaTransfer)] = 500;
  EXPECT_EQ(obs::critical_blame(v), obs::Blame::Wire);  // earlier enum wins
  v[static_cast<std::size_t>(obs::Blame::DmaTransfer)] = 501;
  EXPECT_EQ(obs::critical_blame(v), obs::Blame::DmaTransfer);
}

// ---------------------------------------------------------------------
// Stamp sites
// ---------------------------------------------------------------------

TEST(AttribStamps, MachineStampsRunQueueDelay) {
  sim::Engine eng;
  eng.spans().enable();
  cpu::Machine m(eng);
  // Two keyed tasks on one core: the first runs immediately (zero queue
  // wait), the second waits exactly the first's cost.
  m.submit_keyed(0, cpu::Cat::BottomHalf, 111,
                 [] { return cpu::TaskResult{1000, {}}; });
  m.submit_keyed(0, cpu::Cat::BottomHalf, 222,
                 [] { return cpu::TaskResult{500, {}}; });
  eng.run();
  EXPECT_EQ(get_wait(eng.spans().find(111), obs::Wait::BhQueueWait), 0);
  EXPECT_EQ(get_wait(eng.spans().find(222), obs::Wait::BhQueueWait), 1000);
  // Unkeyed work records nothing.
  m.submit(0, cpu::Cat::BottomHalf, [] { return cpu::TaskResult{100, {}}; });
  eng.run();
  EXPECT_EQ(eng.spans().size(), 2u);
}

TEST(AttribStamps, IoatStampsQueueWaitAndTransferSeparately) {
  sim::Engine eng;
  eng.spans().enable();
  dma::IoatEngine ioat(eng);
  std::uint8_t src[256] = {1}, dst[256] = {0};
  // Two descriptors on the same channel: the second queues behind the
  // first, so its queue wait equals the first's remaining engine time.
  ioat.submit(0, src, dst, 128, /*attrib_key=*/7);
  const sim::Time first_done = ioat.cookie_done_time(0, 1);
  ioat.submit(0, src + 128, dst + 128, 128, /*attrib_key=*/9);
  eng.run();

  const obs::Span* a = eng.spans().find(7);
  const obs::Span* b = eng.spans().find(9);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->waited(obs::Wait::DmaQueueWait), 0);
  EXPECT_GT(a->waited(obs::Wait::DmaTransfer), 0);
  EXPECT_EQ(b->waited(obs::Wait::DmaQueueWait), first_done);
  EXPECT_GT(b->waited(obs::Wait::DmaTransfer), 0);
  // The table's per-Wait distribution saw both descriptors.
  EXPECT_EQ(eng.spans().stamp_hist(obs::Wait::DmaTransfer).count(), 2u);
  // The per-engine queue-wait histogram saw both submissions.
  EXPECT_EQ(ioat.counters().all_histograms().at("ioat.queue_wait_ns").count(),
            2u);
}

// ---------------------------------------------------------------------
// End-to-end on real receives
// ---------------------------------------------------------------------

TEST(AttribEndToEnd, IoatPingpongPartitionsExactly) {
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  cluster.engine().spans().enable();
  bench::run_pingpong(cluster, 512 * sim::KiB, 2, /*warmup=*/0);

  const obs::SpanTable& spans = cluster.engine().spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& [key, s] : spans.all()) {
    // Offload path: descriptor stamps present, no memcpy categories.
    EXPECT_GT(s.waited(obs::Wait::DmaTransfer), 0);
    EXPECT_GT(s.waited(obs::Wait::BhExec), 0);
    EXPECT_GT(s.waited(obs::Wait::DmaDrainWait), 0);
    EXPECT_EQ(s.waited(obs::Wait::MemcpyExec), 0);
    EXPECT_EQ(s.waited(obs::Wait::BusStall), 0);
    // The acceptance contract: blame partitions the span total exactly.
    const obs::BlameVec v = obs::attribute_blame(s);
    EXPECT_EQ(obs::blame_sum(v), s.total_ns());
    // The DMA tail is visible as transfer blame distinct from BH time.
    EXPECT_GT(v[static_cast<std::size_t>(obs::Blame::DmaTransfer)], 0);
  }
}

TEST(AttribEndToEnd, MemcpyPingpongStampsCopyCategories) {
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx());
  cluster.engine().spans().enable();
  bench::run_pingpong(cluster, 512 * sim::KiB, 2, /*warmup=*/0);

  const obs::SpanTable& spans = cluster.engine().spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& [key, s] : spans.all()) {
    EXPECT_GT(s.waited(obs::Wait::MemcpyExec), 0);
    // Concurrent NIC DMA makes at least some fragment copies contended.
    EXPECT_GT(s.waited(obs::Wait::BusStall), 0);
    EXPECT_EQ(s.waited(obs::Wait::DmaQueueWait), 0);
    EXPECT_EQ(s.waited(obs::Wait::DmaTransfer), 0);
    EXPECT_EQ(obs::blame_sum(obs::attribute_blame(s)), s.total_ns());
  }
}

TEST(AttribEndToEnd, PartitionStaysExactUnderRetransmission) {
  // Drop a pull reply and a completion ack mid-transfer: the receive
  // span now covers a retransmission round-trip, and the blame walker
  // must still partition the (much longer) total exactly — lost time
  // lands in a category, never in an unaccounted residual.
  bench::Cluster cluster;
  bench::OmxConfig cfg = bench::cfg_omx_ioat();
  cfg.retrans_timeout = 40 * sim::kMicrosecond;
  cluster.add_nodes(2, cfg);
  cluster.engine().spans().enable();
  fault::Plan plan(21);
  plan.drop_nth(fault::Match::PullReply, 3);
  plan.drop_nth(fault::Match::LargeAck, 0);
  cluster.network().set_fault_injector(&plan);
  bench::run_pingpong(cluster, 512 * sim::KiB, 2, /*warmup=*/0);

  EXPECT_EQ(cluster.network().counters().get("net.fault_drops"), 2u);
  std::uint64_t recoveries = 0;
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    const auto& d = cluster.node(n).driver().counters();
    recoveries += d.get("driver.pull_retransmits") +
                  d.get("driver.pull_rereqs") +
                  d.get("driver.eager_retransmits");
  }
  EXPECT_GT(recoveries, 0u);

  const obs::SpanTable& spans = cluster.engine().spans();
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& [key, s] : spans.all()) {
    const obs::BlameVec v = obs::attribute_blame(s);
    EXPECT_EQ(obs::blame_sum(v), s.total_ns());
  }
  obs::AttribReport report;
  report.build(spans);
  EXPECT_EQ(report.sum_mismatches(), 0u);
}

TEST(AttribReport, AggregatesAndExportsDeterministically) {
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  cluster.engine().spans().enable();
  bench::run_pingpong(cluster, sim::MiB, 2, /*warmup=*/0);

  obs::AttribReport report;
  report.build(cluster.engine().spans());
  EXPECT_EQ(report.messages(), 4u);
  EXPECT_EQ(report.sum_mismatches(), 0u);
  ASSERT_EQ(report.classes().count(sim::MiB), 1u);
  const auto& agg = report.classes().at(sim::MiB);
  EXPECT_EQ(agg.msgs, 4u);
  // Overlapped I/OAT receive: wire serialization is the critical path.
  EXPECT_EQ(obs::AttribReport::class_critical(agg), obs::Blame::Wire);

  obs::Registry reg;
  report.to_registry(reg);
  cluster.engine().spans().to_registry(reg);
  EXPECT_EQ(reg.all_histograms().at("attrib.1MB.total_ns").count(), 4u);
  EXPECT_EQ(reg.all_histograms().at("attrib.1MB.wire_ns").count(), 4u);
  EXPECT_EQ(reg.get("attrib.1MB.critical.wire"), 4u);
  EXPECT_GT(reg.all_histograms().at("attrib.wait.dma-transfer_ns").count(),
            0u);
  // Two identical runs export identical JSON (determinism).
  bench::Cluster c2;
  c2.add_nodes(2, bench::cfg_omx_ioat());
  c2.engine().spans().enable();
  bench::run_pingpong(c2, sim::MiB, 2, /*warmup=*/0);
  obs::AttribReport r2;
  r2.build(c2.engine().spans());
  obs::Registry reg2;
  r2.to_registry(reg2);
  c2.engine().spans().to_registry(reg2);
  auto dump = [](const obs::Registry& r) {
    std::FILE* f = std::tmpfile();
    r.dump_json(f);
    const long len = (std::fseek(f, 0, SEEK_END), std::ftell(f));
    std::rewind(f);
    std::string out(static_cast<std::size_t>(len), '\0');
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
    std::fclose(f);
    return out;
  };
  EXPECT_EQ(dump(reg), dump(reg2));
}

// ---------------------------------------------------------------------
// Wait stamps off are free
// ---------------------------------------------------------------------

TEST(SpanTable, DisabledWaitStampsAreInert) {
  obs::SpanTable t;
  t.begin(obs::span_key(0, 1), 0, 4096);
  t.add(obs::span_key(0, 1), obs::Wait::BhExec, 100);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(obs::span_key(0, 1)), nullptr);
  EXPECT_EQ(t.stamp_hist(obs::Wait::BhExec).count(), 0u);
  obs::Registry reg;
  t.to_registry(reg);
  EXPECT_TRUE(reg.all_histograms().empty());
}

TEST(SpanTable, OffAddsNoEventsAndOnDoesNotChangeTiming) {
  // Spans and their wait stamps are bookkeeping only: with the table off
  // nothing is recorded and with it on the simulated timing is
  // bit-identical.
  auto run = [](bool on, std::uint64_t* events_out) {
    bench::Cluster cluster;
    cluster.add_nodes(2, bench::cfg_omx_ioat());
    if (on) cluster.engine().spans().enable();
    const sim::Time t = bench::run_pingpong(cluster, sim::MiB, 2,
                                            /*warmup=*/1);
    if (on) {
      EXPECT_GT(cluster.engine().spans().stamp_hist(obs::Wait::BhExec).count(),
                0u);
    } else {
      EXPECT_EQ(cluster.engine().spans().size(), 0u);
    }
    if (events_out) *events_out = cluster.engine().events_scheduled();
    return t;
  };
  std::uint64_t ev_off = 0, ev_on = 0;
  const sim::Time off = run(false, &ev_off);
  const sim::Time on = run(true, &ev_on);
  EXPECT_EQ(off, on);
  EXPECT_EQ(ev_off, ev_on);
  EXPECT_GT(off, 0);
}

}  // namespace
