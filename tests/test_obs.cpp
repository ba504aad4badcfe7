// Tests for the obs:: telemetry subsystem: histogram bucket math,
// deterministic registry merge under SweepRunner, the utilization
// timeline vs. the Machine's own busy accounting (the Fig. 9 regression
// gate), message-lifecycle spans on a real I/OAT receive, the pinned
// Perfetto exporter format, and the telemetry-is-free-when-off contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "obs/flight.hpp"
#include "obs/monitor.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"

using namespace openmx;

namespace {

/// Renders `fn(FILE*)` into a string via a tmpfile, so exact output can
/// be compared.
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

// ---------------------------------------------------------------------
// Histogram bucket layout
// ---------------------------------------------------------------------

TEST(Histogram, ExactBucketsBelowLinearMax) {
  // Values below kLinearMax (8) land in their own bucket: no error at all
  // for tiny samples (packet counts, small chunk counts).
  for (std::uint64_t v = 0; v < obs::Histogram::kLinearMax; ++v) {
    EXPECT_EQ(obs::Histogram::bucket_of(v), v);
    EXPECT_EQ(obs::Histogram::bucket_lo(static_cast<std::uint32_t>(v)), v);
  }
}

TEST(Histogram, LogBucketBoundaries) {
  // Above kLinearMax each power of two splits into kSub=4 linear
  // sub-buckets.  Pin the first few boundaries explicitly.
  EXPECT_EQ(obs::Histogram::bucket_of(8), 8u);
  EXPECT_EQ(obs::Histogram::bucket_of(9), 8u);   // [8, 10) share a bucket
  EXPECT_EQ(obs::Histogram::bucket_of(10), 9u);
  EXPECT_EQ(obs::Histogram::bucket_of(15), 11u);
  EXPECT_EQ(obs::Histogram::bucket_of(16), 12u);  // next power of two
  EXPECT_EQ(obs::Histogram::bucket_of(31), 15u);
  EXPECT_EQ(obs::Histogram::bucket_of(32), 16u);

  EXPECT_EQ(obs::Histogram::bucket_lo(8), 8u);
  EXPECT_EQ(obs::Histogram::bucket_lo(12), 16u);
  EXPECT_EQ(obs::Histogram::bucket_lo(16), 32u);
}

TEST(Histogram, BucketRoundTrip) {
  // bucket_lo is the smallest value of its bucket, and every value maps
  // to a bucket whose lower bound does not exceed it — across the whole
  // range, including the u64 extremes.
  std::vector<std::uint64_t> probes = {0, 1, 7, 8, 1000, 4096, 1 << 20};
  for (int shift = 3; shift < 64; ++shift) {
    probes.push_back(std::uint64_t{1} << shift);
    probes.push_back((std::uint64_t{1} << shift) - 1);
    probes.push_back((std::uint64_t{1} << shift) + 1);
  }
  probes.push_back(std::numeric_limits<std::uint64_t>::max());
  for (std::uint64_t v : probes) {
    const std::uint32_t b = obs::Histogram::bucket_of(v);
    ASSERT_LT(b, obs::Histogram::kNumBuckets) << "v=" << v;
    EXPECT_LE(obs::Histogram::bucket_lo(b), v) << "v=" << v;
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_lo(b)), b)
        << "v=" << v;
    if (v + 1 != 0) {  // next bucket starts above v's bucket's lower bound
      EXPECT_GE(obs::Histogram::bucket_of(v + 1), b) << "v=" << v;
    }
  }
}

TEST(Histogram, RelativeErrorBounded) {
  // The reported quantile is a lower bound with at most ~25% relative
  // error: bucket_lo(bucket_of(v)) > v/2 always, and > 3v/4 for v >= 8.
  for (std::uint64_t v = 8; v < (1u << 20); v = v * 5 / 4 + 1) {
    const std::uint64_t lo = obs::Histogram::bucket_lo(obs::Histogram::bucket_of(v));
    EXPECT_LE(lo, v);
    EXPECT_GT(lo * 4, v * 3) << "v=" << v;
  }
}

TEST(Histogram, StatsAndPercentiles) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Quantiles are deterministic lower bounds of the true quantile.
  EXPECT_LE(h.p50(), 50u);
  EXPECT_GE(h.p50(), 38u);  // within one log-bucket of the true median
  EXPECT_LE(h.p99(), 99u);
  EXPECT_GE(h.p99(), 74u);
  // The weight argument is equivalent to repeated adds.
  obs::Histogram w;
  w.add(7, 100);
  EXPECT_EQ(w.count(), 100u);
  EXPECT_EQ(w.p50(), 7u);
  EXPECT_EQ(w.p99(), 7u);
}

TEST(Histogram, EmptyHistogramReportsZeroes) {
  // Percentile boundaries start with the degenerate case: an empty
  // histogram must report zeroes everywhere, not garbage from the
  // untouched min sentinel.
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(Histogram, SingleSampleOwnsEveryPercentile) {
  // With one sample every quantile is that sample's bucket lower bound —
  // exact below kLinearMax, a deterministic lower bound above it.
  obs::Histogram h;
  h.add(5);
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(h.percentile(p), 5u) << "p=" << p;
  obs::Histogram big;
  big.add(1000);
  const std::uint64_t lo =
      obs::Histogram::bucket_lo(obs::Histogram::bucket_of(1000));
  for (double p : {0.0, 0.5, 1.0}) EXPECT_EQ(big.percentile(p), lo);
  EXPECT_EQ(big.min(), 1000u);
  EXPECT_EQ(big.max(), 1000u);
}

TEST(Histogram, PercentileAtExactBucketEdges) {
  // Samples sitting exactly on bucket boundaries: 8 and 10 start
  // adjacent buckets (8..9 and 10..11), so the rank rounding is visible:
  // with two samples, p50 has rank 1 (the lower bucket) and p100 rank 2.
  obs::Histogram h;
  h.add(8);
  h.add(10);
  EXPECT_EQ(h.percentile(0.5), 8u);
  EXPECT_EQ(h.percentile(1.0), 10u);
  // Three edge samples: ranks 2 and 3 land on the middle and top edges.
  h.add(16);
  EXPECT_EQ(h.percentile(0.5), 10u);
  EXPECT_EQ(h.percentile(1.0), 16u);
  // Values inside a bucket report the bucket's lower edge: 9 shares
  // bucket_of(8), so a histogram of only 9s reports 8.
  obs::Histogram inner;
  inner.add(9);
  EXPECT_EQ(inner.percentile(0.5), 8u);
  EXPECT_EQ(inner.max(), 9u);
}

TEST(Histogram, MergeMatchesCombined) {
  obs::Histogram a, b, both;
  for (std::uint64_t v = 0; v < 1000; v += 3) { a.add(v); both.add(v); }
  for (std::uint64_t v = 1; v < 50000; v += 7) { b.add(v); both.add(v); }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  EXPECT_EQ(a.p50(), both.p50());
  EXPECT_EQ(a.p90(), both.p90());
  EXPECT_EQ(a.p99(), both.p99());
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, HandlesAreStable) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("x");
  obs::Histogram& h = reg.histogram("h");
  // Interning many more names must not invalidate earlier references.
  for (int i = 0; i < 1000; ++i)
    (void)reg.counter("filler." + std::to_string(i));
  c.add(41);
  c.add();
  h.add(5);
  EXPECT_EQ(reg.get("x"), 42u);
  EXPECT_EQ(reg.all_histograms().at("h").count(), 1u);
  // reset() zeroes in place: handles survive.
  reg.reset();
  EXPECT_EQ(c.value, 0u);
  c.add(7);
  EXPECT_EQ(reg.get("x"), 7u);
}

TEST(Registry, MergeIsDeterministicAcrossSweepWorkerCounts) {
  // Each sweep job builds its own registry; folding the per-job results
  // in index order must give bit-identical output no matter how many
  // worker threads ran the jobs.  This is the contract bench_fig12 leans
  // on when it merges per-point metrics from a parallel panel run.
  const std::size_t n = 12;
  auto job = [](std::size_t i) {
    obs::Registry r;
    r.add("jobs.run");
    r.add("bytes", (i + 1) * 1000);
    obs::Histogram& h = r.histogram("latency_ns");
    for (std::uint64_t k = 0; k < 50; ++k)
      h.add(sim::sweep_seed(42, i) % 100000 + k * (i + 1));
    return r;
  };

  auto run_with = [&](unsigned threads) {
    sim::SweepRunner runner(sim::SweepOptions{threads});
    std::vector<obs::Registry> parts =
        runner.map<obs::Registry>(n, job);
    obs::Registry total;
    for (const obs::Registry& p : parts) total.merge(p);
    return render([&](std::FILE* f) { total.dump_json(f); });
  };

  const std::string seq = run_with(1);
  EXPECT_EQ(seq, run_with(4));
  EXPECT_EQ(seq, run_with(3));
  EXPECT_NE(seq.find("\"jobs.run\": 12"), std::string::npos);
}

TEST(Registry, MergeOrderDoesNotChangeResult) {
  // Counter adds and histogram bucket sums are commutative, so folding
  // the same parts in any order must render identical JSON — the
  // property the deterministic-merge contract is built on.
  auto part = [](unsigned seed) {
    obs::Registry r;
    r.add("events", seed * 11 + 1);
    obs::Histogram& h = r.histogram("ns");
    for (std::uint64_t k = 0; k < 40; ++k) h.add(seed * 1000 + k * 37);
    return r;
  };
  const obs::Registry a = part(1), b = part(2), c = part(3);
  auto fold = [](std::initializer_list<const obs::Registry*> parts) {
    obs::Registry total;
    for (const obs::Registry* p : parts) total.merge(*p);
    return render([&](std::FILE* f) { total.dump_json(f); });
  };
  const std::string abc = fold({&a, &b, &c});
  EXPECT_EQ(abc, fold({&c, &b, &a}));
  EXPECT_EQ(abc, fold({&b, &a, &c}));
}

// ---------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------

TEST(Timeline, DisabledRecordsNothing) {
  obs::Timeline tl;
  tl.record(0, obs::kCatDriver, 100, 50);
  EXPECT_EQ(tl.size(), 0u);
  tl.enable();
  tl.record(0, obs::kCatDriver, 100, 50);
  tl.record(0, obs::kCatDriver, 200, 0);  // zero-length: dropped
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, WindowClipping) {
  obs::Timeline tl;
  tl.enable();
  // Node 0, core 0: driver slice [100, 300); bottom half [250, 400).
  tl.record(obs::cpu_track(0, 0), obs::kCatDriver, 100, 200);
  tl.record(obs::cpu_track(0, 1), obs::kCatBottomHalf, 250, 150);
  // Node 0 DMA channel 2 busy [200, 600); node 1 traffic must not leak in.
  tl.record(obs::dma_track(0, 2), obs::kCatDma, 200, 400);
  tl.record(obs::cpu_track(1, 0), obs::kCatDriver, 0, 1000);

  EXPECT_EQ(tl.busy_in_window(0, obs::kCatDriver, 0, 1000), 200);
  EXPECT_EQ(tl.busy_in_window(0, obs::kCatDriver, 150, 250), 100);
  EXPECT_EQ(tl.busy_in_window(0, obs::kCatDriver, 300, 1000), 0);
  EXPECT_EQ(tl.busy_in_window(0, obs::kCatBottomHalf, 0, 260), 10);
  EXPECT_EQ(tl.dma_busy_in_window(0, 0, 1000), 400);
  EXPECT_EQ(tl.dma_busy_in_window(0, 500, 1000), 100);
  EXPECT_EQ(tl.dma_busy_in_window(1, 0, 1000), 0);
  EXPECT_EQ(tl.busy_total(obs::cpu_track(1, 0), obs::kCatDriver), 1000);
}

TEST(Timeline, TrackArithmetic) {
  const int t = obs::dma_track(3, 1);
  EXPECT_EQ(obs::track_node(t), 3);
  EXPECT_EQ(obs::track_local(t), obs::kDmaTrackOffset + 1);
  EXPECT_TRUE(obs::track_is_dma(t));
  EXPECT_FALSE(obs::track_is_dma(obs::cpu_track(3, 7)));
  EXPECT_EQ(obs::track_node(obs::cpu_track(2, 5)), 2);
  EXPECT_EQ(obs::track_local(obs::cpu_track(2, 5)), 5);
}

/// The Fig. 9 regression gate: the utilization timeline and the
/// Machine's own busy-time accounting are two views of the same
/// dispatch, so they must agree exactly when the timeline covers the
/// whole run.  bench_fig09 derives its CPU breakdown from the timeline;
/// this keeps that derivation honest.
TEST(Timeline, AgreesWithMachineBusyAccounting) {
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  cluster.engine().timeline().enable();
  bench::run_pingpong(cluster, 256 * sim::KiB, 4, /*warmup=*/1);

  const obs::Timeline& tl = cluster.engine().timeline();
  ASSERT_GT(tl.size(), 0u);
  for (int node = 0; node < 2; ++node) {
    const cpu::Machine& m = cluster.node(node).machine();
    for (int core = 0; core < cpu::Machine::kNumCores; ++core) {
      for (std::size_t c = 0; c < cpu::kNumCats; ++c) {
        const auto cat = static_cast<cpu::Cat>(c);
        EXPECT_EQ(tl.busy_total(obs::cpu_track(node, core),
                                static_cast<std::uint8_t>(c)),
                  m.busy(core, cat))
            << "node " << node << " core " << core << " cat "
            << cpu::cat_name(cat);
      }
    }
  }
  // And the DMA tracks saw real copy activity on the I/OAT config.
  EXPECT_GT(tl.dma_busy_in_window(1, 0,
                                  std::numeric_limits<sim::Time>::max()),
            0);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

TEST(Span, MarkKeepsFirstAndLast) {
  obs::Span s;
  EXPECT_FALSE(s.has(obs::Phase::BottomHalf));
  s.mark(obs::Phase::BottomHalf, 500);
  s.mark(obs::Phase::BottomHalf, 200);
  s.mark(obs::Phase::BottomHalf, 900);
  EXPECT_EQ(s.first_at(obs::Phase::BottomHalf), 200);
  EXPECT_EQ(s.last_at(obs::Phase::BottomHalf), 900);
  EXPECT_EQ(s.total_ns(), 700);
  // No DMA phases marked: memcpy-path spans report zero overlap.
  EXPECT_EQ(s.overlap_ns(), 0);
}

TEST(Span, OverlapWindowIntersection) {
  obs::Span s;
  s.mark(obs::Phase::WireArrival, 100);
  s.mark(obs::Phase::WireArrival, 800);
  s.mark(obs::Phase::BottomHalf, 150);
  s.mark(obs::Phase::BottomHalf, 900);
  s.mark(obs::Phase::IoatSubmit, 300);
  s.mark(obs::Phase::DmaComplete, 1200);
  // DMA window [300, 1200) x ingress window [100, 900) = [300, 900).
  EXPECT_EQ(s.overlap_ns(), 600);
}

TEST(SpanTable, DisabledIsInert) {
  obs::SpanTable t;
  t.begin(obs::span_key(0, 1), 0, 4096);
  t.mark(obs::span_key(0, 1), obs::Phase::Notify, 10);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(obs::span_key(0, 1)), nullptr);
}

/// End-to-end: a real I/OAT large receive produces spans whose phases
/// appear in protocol order with genuine DMA/ingress overlap — the
/// quantity Figure 8 of the paper is about.
TEST(SpanTable, IoatPingpongProducesOrderedSpansWithOverlap) {
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  cluster.engine().spans().enable();
  bench::run_pingpong(cluster, 256 * sim::KiB, 2, /*warmup=*/0);

  const obs::SpanTable& spans = cluster.engine().spans();
  ASSERT_EQ(spans.size(), 4u);  // 2 iters x 2 directions, no warmup
  for (const auto& [key, s] : spans.all()) {
    EXPECT_EQ(s.bytes, 256 * sim::KiB);
    ASSERT_TRUE(s.has(obs::Phase::WireArrival));
    ASSERT_TRUE(s.has(obs::Phase::BottomHalf));
    ASSERT_TRUE(s.has(obs::Phase::IoatSubmit));
    ASSERT_TRUE(s.has(obs::Phase::DmaComplete));
    ASSERT_TRUE(s.has(obs::Phase::Notify));
    // Protocol order of the first stamps.
    EXPECT_LE(s.first_at(obs::Phase::WireArrival),
              s.first_at(obs::Phase::BottomHalf));
    EXPECT_LE(s.first_at(obs::Phase::BottomHalf),
              s.first_at(obs::Phase::IoatSubmit));
    EXPECT_LT(s.first_at(obs::Phase::IoatSubmit),
              s.last_at(obs::Phase::DmaComplete));
    EXPECT_LE(s.last_at(obs::Phase::DmaComplete),
              s.last_at(obs::Phase::Notify));
    // A 256 KiB receive streams many fragments: the DMA engine must have
    // worked while later fragments were still arriving.
    EXPECT_GT(s.overlap_ns(), 0);
    EXPECT_LE(s.overlap_ns(), s.total_ns());
  }
}

TEST(Span, SingleFragmentMessageDegenerateWindows) {
  // A message carried by a single fragment stamps every phase exactly
  // once, so first == last for each phase and the overlap window
  // degenerates to the DMA window clipped by the single-arrival ingress
  // "window".
  obs::Span s;
  s.mark(obs::Phase::WireArrival, 100);
  s.mark(obs::Phase::BottomHalf, 150);
  s.mark(obs::Phase::IoatSubmit, 160);
  s.mark(obs::Phase::DmaComplete, 400);
  s.mark(obs::Phase::Notify, 420);
  for (auto p : {obs::Phase::WireArrival, obs::Phase::BottomHalf,
                 obs::Phase::IoatSubmit, obs::Phase::DmaComplete})
    EXPECT_EQ(s.first_at(p), s.last_at(p));
  // DMA window [160, 400) x ingress window [100, 150): empty — a single
  // fragment cannot overlap DMA with further arrivals.
  EXPECT_EQ(s.overlap_ns(), 0);
  EXPECT_EQ(s.total_ns(), 320);
}

TEST(Span, BelowDmaThresholdHasNoIoatSubmitStamp) {
  // A pull under ioat_min_msg (64 KiB) on the I/OAT config takes the
  // memcpy path: real spans must carry no ioat-submit/dma-complete
  // stamps, report zero overlap, and still total correctly.
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  cluster.engine().spans().enable();
  bench::run_pingpong(cluster, 48 * sim::KiB, 2, /*warmup=*/0);

  const obs::SpanTable& spans = cluster.engine().spans();
  ASSERT_GT(spans.size(), 0u);
  for (const auto& [key, s] : spans.all()) {
    EXPECT_EQ(s.bytes, 48 * sim::KiB);
    EXPECT_TRUE(s.has(obs::Phase::WireArrival));
    EXPECT_TRUE(s.has(obs::Phase::CopyOut));
    EXPECT_FALSE(s.has(obs::Phase::IoatSubmit));
    EXPECT_FALSE(s.has(obs::Phase::DmaComplete));
    EXPECT_EQ(s.overlap_ns(), 0);
    EXPECT_GT(s.total_ns(), 0);
  }
}

TEST(Span, RepeatedStampsAcrossPhasesKeepFirstLast) {
  // Stamps arrive out of order (retransmits, per-fragment marks): each
  // phase keeps its own min/max and total_ns spans the global extremes.
  obs::Span s;
  s.mark(obs::Phase::WireArrival, 50);
  s.mark(obs::Phase::WireArrival, 10);
  s.mark(obs::Phase::WireArrival, 30);
  s.mark(obs::Phase::Notify, 900);
  s.mark(obs::Phase::Notify, 700);
  EXPECT_EQ(s.first_at(obs::Phase::WireArrival), 10);
  EXPECT_EQ(s.last_at(obs::Phase::WireArrival), 50);
  EXPECT_EQ(s.first_at(obs::Phase::Notify), 700);
  EXPECT_EQ(s.last_at(obs::Phase::Notify), 900);
  EXPECT_EQ(s.total_ns(), 890);
}

// ---------------------------------------------------------------------
// Perfetto exporter — format pin
// ---------------------------------------------------------------------

/// Golden test for the Chrome trace-event output.  If this fails because
/// the format intentionally changed, re-generate the golden string and
/// update tests/golden_trace.json.inc to match (and check the new output
/// still loads at ui.perfetto.dev).
TEST(Perfetto, GoldenFormat) {
  obs::Timeline tl;
  tl.enable();
  tl.record(obs::cpu_track(0, 1), obs::kCatBottomHalf, 1000, 500);
  tl.record(obs::dma_track(0, 0), obs::kCatDma, 1500, 2500);

  obs::SpanTable spans;
  spans.enable();
  const std::uint64_t key = obs::span_key(0, 1);
  spans.begin(key, 0, 4096);
  spans.mark(key, obs::Phase::WireArrival, 1000);
  spans.mark(key, obs::Phase::BottomHalf, 1200);
  spans.mark(key, obs::Phase::BottomHalf, 1500);
  spans.mark(key, obs::Phase::IoatSubmit, 1500);
  spans.mark(key, obs::Phase::DmaComplete, 4000);
  spans.mark(key, obs::Phase::Notify, 4200);

  const std::string got = render([&](std::FILE* f) {
    obs::write_chrome_trace(f, tl, spans, /*num_nodes=*/1);
  });
  const std::string want =
#include "golden_trace.json.inc"
      ;
  EXPECT_EQ(got, want);
}

TEST(Perfetto, WriteFileRoundTrip) {
  obs::Timeline tl;
  tl.enable();
  tl.record(obs::cpu_track(0, 0), obs::kCatDriver, 0, 100);
  obs::SpanTable spans;
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace_file(path, tl, spans, 1));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_FALSE(obs::write_chrome_trace_file("/nonexistent-dir/x.json", tl,
                                            spans, 1));
}

// ---------------------------------------------------------------------
// Telemetry must not perturb the simulation
// ---------------------------------------------------------------------

TEST(Telemetry, EnablingEverythingDoesNotChangeSimTime) {
  auto run = [](bool on) {
    bench::Cluster cluster;
    cluster.add_nodes(2, bench::cfg_omx_ioat());
    if (on) {
      cluster.engine().trace().enable();
      cluster.engine().spans().enable();
      cluster.engine().timeline().enable();
      cluster.engine().attrib().enable();
    }
    return bench::run_pingpong(cluster, sim::MiB, 2, /*warmup=*/1);
  };
  const sim::Time off = run(false);
  const sim::Time on = run(true);
  EXPECT_EQ(off, on);
  EXPECT_GT(off, 0);
}

// ---------------------------------------------------------------------
// Counter merge provenance across partitions
// ---------------------------------------------------------------------

// Cluster::collect_metrics folds per-node and per-shard
// registries in a fixed global order (node index, then LP index), and
// events_scheduled() accumulates per-LP counts in LP-id order — so the
// merged registry dump and the event total must be byte-identical no
// matter how many workers executed the partitions.
TEST(Registry, ClusterMergeIsWorkerCountInvariant) {
  auto run = [](unsigned workers) {
    core::Cluster cluster(4);
    cluster.add_nodes(4, bench::cfg_omx());
    std::vector<mem::Buffer> sb, rb;
    for (int i = 0; i < 4; ++i) {
      sb.emplace_back(8 * sim::KiB, static_cast<std::uint8_t>(i + 1));
      rb.emplace_back(8 * sim::KiB, 0);
    }
    for (int i = 0; i < 4; ++i) {
      const int next = (i + 1) % 4;
      cluster.spawn(cluster.node(static_cast<std::size_t>(i)), 0,
                    "n" + std::to_string(i), [&, i, next](core::Process& p) {
                      core::Endpoint ep(p, i);
                      auto* r = ep.irecv(rb[static_cast<std::size_t>(i)].data(),
                                         8 * sim::KiB, 5);
                      ep.wait(ep.isend(
                          sb[static_cast<std::size_t>(i)].data(), 8 * sim::KiB,
                          core::Addr{next, static_cast<std::uint16_t>(next)},
                          5));
                      ep.wait(r);
                    });
    }
    cluster.run(workers);
    obs::Registry reg;
    cluster.collect_metrics(reg);
    return std::make_pair(
        render([&](std::FILE* f) { reg.dump_json(f); }),
        cluster.events_scheduled());
  };
  const auto ref = run(1);
  EXPECT_GT(ref.second, 0u);
  EXPECT_NE(ref.first.find("nic.rx_frames"), std::string::npos);
  EXPECT_EQ(run(4), ref);
  EXPECT_EQ(run(2), ref);
}

// ---------------------------------------------------------------------
// Gauge merge semantics across LP shards
// ---------------------------------------------------------------------

// Gauges are instantaneous (ring occupancy, inbox depth): folding two
// shards must take the componentwise peak, never the sum — two LPs each
// holding 5 slots is a peak of 5, not a phantom 10.
TEST(Registry, GaugeMergeTakesPeakNotSum) {
  obs::Registry a, b;
  a.gauge("lp.max_inbox_depth").set(5);
  b.gauge("lp.max_inbox_depth").set(3);
  a.counter("lp.windows").add(7);
  b.counter("lp.windows").add(11);

  obs::Registry merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.gauge("lp.max_inbox_depth").value, 5);
  EXPECT_EQ(merged.get("lp.windows"), 18u);  // counters still add

  // Peak semantics make the fold order irrelevant for gauges too.
  obs::Registry flipped;
  flipped.merge(b);
  flipped.merge(a);
  EXPECT_EQ(render([&](std::FILE* f) { merged.dump_json(f); }),
            render([&](std::FILE* f) { flipped.dump_json(f); }));
}

// Per-LP shard registries merge deterministically when folded in LP-id
// order: the merged dump is byte-identical no matter how shard contents
// were produced, because every lp.<id>.* name is disjoint and gauges
// take maxima.
TEST(Registry, LpShardMergeInLpOrderIsByteStable) {
  auto shard = [](int id, std::uint64_t events, std::int64_t depth) {
    obs::Registry r;
    r.counter("lp." + std::to_string(id) + ".events").add(events);
    r.gauge("lp.max_inbox_depth").set(depth);
    return r;
  };
  auto fold = [&] {
    obs::Registry out;
    for (int id = 0; id < 4; ++id) {
      const obs::Registry s = shard(id, 100u * (id + 1), 2 * id);
      out.merge(s);
    }
    return render([&](std::FILE* f) { out.dump_json(f); });
  };
  const std::string once = fold();
  EXPECT_EQ(fold(), once);
  EXPECT_NE(once.find("lp.3.events"), std::string::npos);
  EXPECT_NE(once.find("lp.max_inbox_depth"), std::string::npos);
}

// ---------------------------------------------------------------------
// Flight recorder: always-on postmortem ring
// ---------------------------------------------------------------------

TEST(FlightRecorder, RingKeepsChronologicalTail) {
  obs::FlightRecorder fr(1, 256);
  ASSERT_EQ(fr.per_shard_capacity(), 256u);
  for (std::uint64_t i = 0; i < 300; ++i) {
    obs::TraceEvent e;
    e.when = static_cast<sim::Time>(i);
    e.a0 = i;
    fr.record(0, e);
  }
  EXPECT_EQ(fr.recorded(0), 300u);
  const auto tail = fr.tail(0);
  ASSERT_EQ(tail.size(), 256u);  // oldest 44 overwritten
  EXPECT_EQ(tail.front().a0, 44u);
  EXPECT_EQ(tail.back().a0, 299u);
  for (std::size_t i = 1; i < tail.size(); ++i)
    EXPECT_EQ(tail[i].a0, tail[i - 1].a0 + 1);
}

// The whole point of the recorder: it captures the typed event stream
// even while the sim::Trace itself is disabled, and the trace buffer
// stays empty (recording adds no opt-in telemetry).
TEST(FlightRecorder, CapturesEventsWhileTraceDisabled) {
  sim::Trace trace;
  obs::FlightRecorder fr(1, 64);
  trace.attach_flight(&fr, 0);
  ASSERT_FALSE(trace.enabled());

  const obs::EventId id = trace.intern_event("wire.tx");
  trace.event(1000, 0, id, /*a0=*/7, /*a1=*/4096);
  trace.record(2000, 1, "pull.start", "handle=7");

  EXPECT_EQ(trace.size(), 0u);  // disabled trace stored nothing
  EXPECT_EQ(fr.recorded(0), 2u);
  const auto tail = fr.tail(0);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].when, 1000);
  EXPECT_EQ(tail[0].a0, 7u);
  EXPECT_EQ(tail[1].when, 2000);

  trace.attach_flight(nullptr);  // detach: back to one-branch disabled path
  trace.event(3000, 0, id);
  EXPECT_EQ(fr.recorded(0), 2u);
}

// The dump format is a contract with omx_postmortem: header first, then
// one sscanf-parseable instant event per line.
TEST(FlightRecorder, DumpFormatRoundTrips) {
  sim::Trace trace;
  obs::FlightRecorder fr(1, 64);
  trace.attach_flight(&fr, 0);
  const obs::EventId id = trace.intern_event("pull.start");
  trace.event(1500, 2, id, 9, 65536);

  const std::string dump = render(
      [&](std::FILE* f) { fr.dump_json(f, "pull retries exhausted handle=9",
                                       /*seed=*/1234); });

  char reason[128];
  unsigned long long seed = 0;
  ASSERT_EQ(std::sscanf(dump.c_str(),
                        "{\"postmortem\":{\"reason\":\"%127[^\"]\","
                        "\"seed\":%llu",
                        reason, &seed),
            2);
  EXPECT_STREQ(reason, "pull retries exhausted handle=9");
  EXPECT_EQ(seed, 1234u);

  const std::size_t pos = dump.find("{\"name\":\"pull.start\"");
  ASSERT_NE(pos, std::string::npos);
  char name[64], cat[32];
  unsigned pid = 0;
  int tid = 0, node = -1;
  double ts = 0;
  unsigned long long a0 = 0, a1 = 0;
  ASSERT_EQ(std::sscanf(dump.c_str() + pos,
                        "{\"name\":\"%63[^\"]\",\"cat\":\"%31[^\"]\","
                        "\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,\"tid\":%d,"
                        "\"ts\":%lf,\"args\":{\"node\":%d,\"a0\":%llu,"
                        "\"a1\":%llu",
                        name, cat, &pid, &tid, &ts, &node, &a0, &a1),
            8);
  EXPECT_EQ(node, 2);
  EXPECT_EQ(a0, 9u);
  EXPECT_EQ(a1, 65536u);
  EXPECT_DOUBLE_EQ(ts, 1.5);  // microseconds
  EXPECT_NE(dump.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Live run monitor
// ---------------------------------------------------------------------

TEST(Monitor, SamplesAtAlignedSimCadence) {
  obs::Registry reg;
  reg.counter("c").add(1);
  obs::Monitor mon(reg, 100 * sim::kMicrosecond);
  mon.watch("c");
  mon.set_log(nullptr);

  // Dense polling: samples land only on period boundaries (aligned to
  // multiples, not to the first poll time).
  for (sim::Time t = 0; t <= 450 * sim::kMicrosecond;
       t += 10 * sim::kMicrosecond)
    mon.poll(t);
  // Due at t=0 (first poll), then 100, 200, 300, 400 us.
  EXPECT_EQ(mon.samples_taken(), 5u);
  ASSERT_EQ(mon.snapshot_count(), 5u);
  EXPECT_EQ(mon.snapshot(0).when, 0);
  EXPECT_EQ(mon.snapshot(1).when, 100 * sim::kMicrosecond);
  EXPECT_EQ(mon.snapshot(4).when, 400 * sim::kMicrosecond);
  ASSERT_EQ(mon.snapshot(0).values.size(), 1u);
  EXPECT_DOUBLE_EQ(mon.snapshot(0).values[0], 1.0);

  // Sparse polling never samples more than once per poll.
  obs::Monitor sparse(reg, 100 * sim::kMicrosecond);
  sparse.set_log(nullptr);
  sparse.poll(0);
  sparse.poll(1000 * sim::kMicrosecond);  // 9 periods skipped: 1 sample
  EXPECT_EQ(sparse.samples_taken(), 2u);
}

TEST(Monitor, SloBreachesOnceAndRemembersFirst) {
  obs::Registry reg;
  auto& c = reg.counter("hot");
  obs::Monitor mon(reg, 10 * sim::kMicrosecond);
  mon.set_log(nullptr);  // keep test output clean; logging is one fprintf
  mon.add_slo("hot.bound", 5.0, [](const obs::Registry& r) {
    return static_cast<double>(r.get("hot"));
  });

  mon.poll(0);  // value 0: healthy
  EXPECT_EQ(mon.breaches(), 0u);
  c.add(7);
  mon.poll(10 * sim::kMicrosecond);  // 7 > 5: first breach
  c.add(100);
  mon.poll(20 * sim::kMicrosecond);  // still sick: must not re-arm
  ASSERT_EQ(mon.breaches(), 1u);
  const auto& slo = mon.slos()[0];
  EXPECT_TRUE(slo.breached);
  EXPECT_EQ(slo.breach_when, 10 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(slo.breach_value, 7.0);  // the first breach, not 107

  const std::string json = render([&](std::FILE* f) { mon.dump_json(f); });
  EXPECT_NE(json.find("\"name\":\"hot.bound\""), std::string::npos);
  EXPECT_NE(json.find("\"breached\":true"), std::string::npos);
}

TEST(Monitor, SnapshotRingOverwritesOldest) {
  obs::Registry reg;
  obs::Monitor mon(reg, 1, /*max_snapshots=*/4);
  mon.set_log(nullptr);
  for (sim::Time t = 1; t <= 10; ++t) mon.poll(t);
  EXPECT_EQ(mon.samples_taken(), 10u);
  ASSERT_EQ(mon.snapshot_count(), 4u);
  EXPECT_EQ(mon.snapshot(0).when, 7);
  EXPECT_EQ(mon.snapshot(3).when, 10);
}

// ---------------------------------------------------------------------
// Per-LP Perfetto export
// ---------------------------------------------------------------------

// Pinned output format for the per-LP scheduler tracks, like
// Perfetto.GoldenFormat pins the node/core exporter: busy slice with
// event/inbox args, stall slice covering [busy_end, window_end-1), and
// a critical-LP instant with the window's slack.
TEST(Perfetto, LpTraceGoldenFormat) {
  obs::LpWindowLog log;
  log.reset(/*num_lps=*/2, /*capacity=*/8);

  // Window [1000, 3001): LP0 busy to 2000 then stalled, LP1 idle all
  // window; LP0 is critical with 500 ns slack.
  obs::LpWindow& w = log.append(1000, 3001, /*critical_lp=*/0,
                                /*slack_ns=*/500);
  w.per_lp[0] = obs::LpWindowStat{/*events=*/3, /*inbox=*/2,
                                  /*busy_until=*/2000};
  w.per_lp[1] = obs::LpWindowStat{/*events=*/0, /*inbox=*/0,
                                  /*busy_until=*/0};

  const std::string got =
      render([&](std::FILE* f) { obs::write_lp_trace(f, log); });
  const std::string want =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1000,\"name\":\"process_name\","
      "\"args\":{\"name\":\"lp0\"}},\n"
      "{\"ph\":\"M\",\"pid\":1001,\"name\":\"process_name\","
      "\"args\":{\"name\":\"lp1\"}},\n"
      "{\"name\":\"busy\",\"cat\":\"lp\",\"ph\":\"X\",\"pid\":1000,"
      "\"tid\":0,\"ts\":1.000,\"dur\":1.000,"
      "\"args\":{\"events\":3,\"inbox\":2}},\n"
      "{\"name\":\"stall\",\"cat\":\"lp\",\"ph\":\"X\",\"pid\":1000,"
      "\"tid\":0,\"ts\":2.000,\"dur\":1.000},\n"
      "{\"name\":\"critical\",\"cat\":\"lp\",\"ph\":\"i\",\"s\":\"t\","
      "\"pid\":1000,\"tid\":0,\"ts\":1.000,\"args\":{\"slack_us\":0.500}},\n"
      "{\"name\":\"stall\",\"cat\":\"lp\",\"ph\":\"X\",\"pid\":1001,"
      "\"tid\":0,\"ts\":1.000,\"dur\":2.000}\n"
      "],\"displayTimeUnit\":\"ns\"}\n";
  EXPECT_EQ(got, want);
}

TEST(Perfetto, LpWindowLogRingOverwritesOldest) {
  obs::LpWindowLog log;
  log.reset(1, /*capacity=*/2);
  for (sim::Time t = 0; t < 5; ++t)
    log.append(t * 100, t * 100 + 100, 0, 0);
  EXPECT_EQ(log.total(), 5u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.window(0).start, 300);  // chronological: oldest retained
  EXPECT_EQ(log.window(1).start, 400);
}

}  // namespace
