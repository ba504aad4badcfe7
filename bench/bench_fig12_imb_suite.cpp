// Figure 12: "Intel MPI Benchmarks performance on top of Open-MX
// (normalized to the performance on top of MXoE), with I/OAT being
// enabled or not, with 2 nodes and 1 or 2 processes per node" — at
// 128 kB and 4 MB message sizes.
//
// Paper reference points: at 128 kB, I/OAT lifts Open-MX to an average
// 68 % of MXoE (a 24 % improvement); at 4 MB with 1 ppn the improvement
// averages 32 % (reaching 90 % of MXoE); with 2 ppn it averages 41 %
// (up to 94 %) thanks to the I/OAT shared-memory path; Open-MX even
// passes native MXoE on several tests.
#include <cstdio>

#include "common.hpp"
#include "imb/imb.hpp"
#include "mpi/world.hpp"

using namespace openmx;
using namespace openmx::bench;

namespace {

/// One IMB point plus the cluster's telemetry: SweepRunner jobs return
/// both, and the caller folds the registries in index order so the merged
/// metrics are identical for any worker count.
struct TimedPoint {
  sim::Time t = 0;
  obs::Registry reg;
};

TimedPoint imb_time(const core::OmxConfig& cfg, imb::Test test,
                    std::size_t bytes, int ppn, int reps) {
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  mpi::World world(cluster, mpi::placements(2, ppn));
  TimedPoint out;
  world.run([&](mpi::Comm& c) {
    const sim::Time t = imb::run_test(c, test, bytes, reps);
    if (c.rank() == 0) out.t = t;
  });
  cluster.collect_metrics(out.reg);
  return out;
}

void run_panel(std::size_t bytes, int reps, obs::Registry& metrics) {
  std::printf("\n--- %s messages, percentage of MXoE performance ---\n",
              size_label(bytes).c_str());
  std::printf("%-12s %10s %12s %10s %12s\n", "test", "OMX 1ppn",
              "OMX+IOAT 1ppn", "OMX 2ppn", "OMX+IOAT 2ppn");

  // All (test, config, ppn) simulations of the panel are independent;
  // fan them out across worker threads and print from the index-ordered
  // results (identical to the old sequential loop, just faster).
  const std::vector<imb::Test>& tests = imb::all_tests();
  struct Point {
    core::OmxConfig cfg;
    int ppn;
  };
  const std::vector<Point> points = {
      {cfg_mx(), 1},  {cfg_omx(), 1}, {cfg_omx_ioat(), 1},
      {cfg_mx(), 2},  {cfg_omx(), 2}, {cfg_omx_ioat(), 2},
  };
  std::vector<TimedPoint> results = parallel_points<TimedPoint>(
      tests.size() * points.size(), [&](std::size_t i) {
        const Point& pt = points[i % points.size()];
        return imb_time(pt.cfg, tests[i / points.size()], bytes, pt.ppn, reps);
      });
  std::vector<sim::Time> times;
  for (TimedPoint& r : results) {
    times.push_back(r.t);
    metrics.merge(r.reg);  // index order: deterministic for any worker count
  }

  double sum_omx1 = 0, sum_io1 = 0, sum_omx2 = 0, sum_io2 = 0;
  int n = 0;
  for (std::size_t ti = 0; ti < tests.size(); ++ti) {
    const sim::Time* row = &times[ti * points.size()];
    const sim::Time mx1 = row[0], omx1 = row[1], io1 = row[2];
    const sim::Time mx2 = row[3], omx2 = row[4], io2 = row[5];
    const double p_omx1 = 100.0 * static_cast<double>(mx1) / omx1;
    const double p_io1 = 100.0 * static_cast<double>(mx1) / io1;
    const double p_omx2 = 100.0 * static_cast<double>(mx2) / omx2;
    const double p_io2 = 100.0 * static_cast<double>(mx2) / io2;
    std::printf("%-12s %10.0f %12.0f %10.0f %12.0f\n",
                imb::test_name(tests[ti]), p_omx1, p_io1, p_omx2, p_io2);
    sum_omx1 += p_omx1;
    sum_io1 += p_io1;
    sum_omx2 += p_omx2;
    sum_io2 += p_io2;
    ++n;
  }
  std::printf("%-12s %10.0f %12.0f %10.0f %12.0f\n", "average",
              sum_omx1 / n, sum_io1 / n, sum_omx2 / n, sum_io2 / n);
  std::printf("I/OAT improvement: 1ppn +%.0f%%, 2ppn +%.0f%%\n",
              100.0 * (sum_io1 / sum_omx1 - 1.0),
              100.0 * (sum_io2 / sum_omx2 - 1.0));
}

}  // namespace

int main() {
  obs::Registry metrics;
  run_panel(128 * sim::KiB, 8, metrics);
  run_panel(4 * sim::MiB, 3, metrics);
  std::printf("\npaper: 128kB I/OAT avg 68%% of MXoE (+24%%); 4MB 1ppn avg "
              "90%% (+32%%); 4MB 2ppn up to 94%% (+41%%)\n");
  emit_metrics_json("fig12_imb_suite", metrics);
  return 0;
}
