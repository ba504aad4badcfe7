// Figure 11: "Intel MPI Benchmarks PingPong throughput with MXoE and
// Open-MX, with I/OAT and registration cache enabled or not."
//
// Paper reference points: Open-MX + I/OAT reaches MX performance for
// large messages, close to 10 GbE line rate; I/OAT matters much more
// than the registration cache (Open-MX registration is cheap since no
// NIC translation tables are involved).
#include <cstdio>

#include "common.hpp"
#include "imb/imb.hpp"
#include "mpi/world.hpp"

using namespace openmx;
using namespace openmx::bench;

namespace {

sim::Time imb_time(const core::OmxConfig& cfg, imb::Test test,
                   std::size_t bytes, int nnodes, int ppn, int reps,
                   obs::Registry* metrics = nullptr) {
  core::Cluster cluster;
  cluster.add_nodes(nnodes, cfg);
  mpi::World world(cluster, mpi::placements(nnodes, ppn));
  sim::Time out = 0;
  world.run([&](mpi::Comm& c) {
    const sim::Time t = imb::run_test(c, test, bytes, reps);
    if (c.rank() == 0) out = t;
  });
  if (metrics) cluster.collect_metrics(*metrics);
  return out;
}

double pingpong_mibs_mpi(const core::OmxConfig& cfg, std::size_t bytes,
                         int reps, obs::Registry* metrics = nullptr) {
  const sim::Time rtt =
      imb_time(cfg, imb::Test::PingPong, bytes, 2, 1, reps, metrics);
  return sim::mib_per_second(bytes, rtt / 2);
}

}  // namespace

int main() {
  core::OmxConfig omx = cfg_omx();
  core::OmxConfig omx_nrc = cfg_omx();
  omx_nrc.regcache = false;
  core::OmxConfig ioat = cfg_omx_ioat();
  core::OmxConfig ioat_nrc = cfg_omx_ioat();
  ioat_nrc.regcache = false;

  const auto sizes = size_sweep(16, 4 * sim::MiB);
  obs::Registry metrics;
  std::vector<double> mx_col, ioat_col, omx_col, ioat_nrc_col, omx_nrc_col;
  for (std::size_t s : sizes) {
    const int reps = s >= sim::MiB ? 4 : 12;
    mx_col.push_back(pingpong_mibs_mpi(cfg_mx(), s, reps));
    ioat_col.push_back(pingpong_mibs_mpi(ioat, s, reps, &metrics));
    omx_col.push_back(pingpong_mibs_mpi(omx, s, reps));
    ioat_nrc_col.push_back(pingpong_mibs_mpi(ioat_nrc, s, reps));
    omx_nrc_col.push_back(pingpong_mibs_mpi(omx_nrc, s, reps));
  }
  print_table("Figure 11: IMB PingPong throughput",
              {"MX", "OMX+I/OAT", "OMX", "OMX+I/OAT w/o rc", "OMX w/o rc"},
              sizes,
              {mx_col, ioat_col, omx_col, ioat_nrc_col, omx_nrc_col},
              "MiB/s");

  const std::size_t last = sizes.size() - 1;
  std::printf("\npaper: OMX+I/OAT reaches MX for large messages; losing the "
              "regcache costs far less than losing I/OAT\n");
  std::printf("measured at 4MB: MX %.0f, OMX+I/OAT %.0f (%.0f%% of MX); "
              "regcache delta %.0f MiB/s vs I/OAT delta %.0f MiB/s\n",
              mx_col[last], ioat_col[last],
              100.0 * ioat_col[last] / mx_col[last],
              ioat_col[last] - ioat_nrc_col[last],
              ioat_col[last] - omx_col[last]);
  emit_metrics_json("fig11_imb_pingpong", metrics);
  return 0;
}
