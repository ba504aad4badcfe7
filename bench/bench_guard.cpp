// Bench regression guard: recomputes the scalar metrics that map onto
// the paper's figures and compares them against the committed baselines
// in bench/baselines/guard.json, each with its own tolerance band.  The
// simulation is deterministic, so any drift outside a band means a code
// change altered modeled behavior — the guard runs as a tier-1 ctest and
// fails the build until the change is either fixed or the baseline is
// deliberately refreshed:
//
//   refresh:  ./build/bench/bench_guard --write bench/baselines/guard.json
//   check:    ./build/bench/bench_guard --check bench/baselines/guard.json
//
// The wall-clock rows also carry hard floors.  --check exits 1 on a
// missed floor; --write prints the miss and writes the measured value.
//
// The metric set covers Fig. 3 (throughput without copy), Fig. 8
// (I/OAT throughput + DMA/ingress overlap), Fig. 9 (receive-side CPU
// and DMA utilization), Fig. 10 (intra-node shared memory), and the
// latency-attribution blame fractions, so attribution drift fails the
// build too.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "flow_xval.hpp"
#include "lp_mesh.hpp"
#include "obs/attrib.hpp"
#include "obs/wallprof.hpp"

using namespace openmx;

namespace {

struct Metric {
  std::string name;
  double value = 0;
  double tol = 0.05;  // relative tolerance band
};

/// Blame fraction of one or two categories within a size class of the
/// attribution report (share of the total partitioned time).
double blame_frac(const obs::AttribReport& report, std::uint64_t cls,
                  std::initializer_list<obs::Blame> blames) {
  auto it = report.classes().find(cls);
  if (it == report.classes().end()) return 0.0;
  double total = 0, picked = 0;
  for (std::size_t b = 0; b < obs::kNumBlames; ++b)
    total += static_cast<double>(it->second.blame_sum[b]);
  for (obs::Blame b : blames)
    picked +=
        static_cast<double>(it->second.blame_sum[static_cast<std::size_t>(b)]);
  return total > 0 ? picked / total : 0.0;
}

/// Samples a wall-clock overhead ratio (t_off / t_on) best-of-3: a
/// sample below the 0.97 hard floor, or above the +10 % band around the
/// committed 1.0 baseline, is measured again, up to twice, and the sample
/// nearest that range is kept.  Back-to-back runs on the same machine, so
/// a real regression misses all three.
template <typename Sample>
double overhead_ratio(Sample sample) {
  constexpr double kFloor = 0.97, kTop = 1.10;
  const auto miss = [](double r) {
    return r < kFloor ? kFloor - r : r > kTop ? r - kTop : 0.0;
  };
  double best = sample();
  for (int i = 0; i < 2 && miss(best) > 0; ++i) {
    const double r = sample();
    if (miss(r) < miss(best)) best = r;
  }
  return best;
}

/// Wall-clock ratio t_off / t_on over `reps` calls of `run(false)` and
/// `reps` of `run(true)`, interleaved off-on, on-off, off-on, ...  On a
/// shared host the load drifts over fractions of a second, as long as
/// one side takes, so timing the sides back to back charges the drift to
/// one of them; interleaved, it hits both alike.
template <typename Run>
double interleaved_ratio(int reps, Run run) {
  using clock = std::chrono::steady_clock;
  double secs[2] = {0, 0};  // [off, on]
  for (int r = 0; r < reps; ++r)
    for (int k = 0; k < 2; ++k) {
      const bool on = (r % 2 == 0) == (k == 1);
      const auto t0 = clock::now();
      run(on);
      secs[on ? 1 : 0] +=
          std::chrono::duration<double>(clock::now() - t0).count();
    }
  return secs[1] > 0 ? secs[0] / secs[1] : 0.0;
}

std::vector<Metric> compute_metrics(bool enforce_floors) {
  std::vector<Metric> m;
  const std::size_t kM = sim::MiB;
  const std::size_t k256 = 256 * sim::KiB;

  // Fig. 3: large-message throughput, vanilla Open-MX vs. the
  // no-copy/zero-copy upper bound.
  m.push_back({"fig03.omx_1MB_mibs",
               bench::pingpong_mibs(bench::cfg_omx(), kM, 4), 0.05});
  m.push_back({"fig03.nocopy_1MB_mibs",
               bench::pingpong_mibs(bench::cfg_omx_nocopy(), kM, 4), 0.05});

  // Fig. 8: I/OAT receive offload across the knee of the curve.
  m.push_back({"fig08.omx_256kB_mibs",
               bench::pingpong_mibs(bench::cfg_omx(), k256, 6), 0.05});
  m.push_back({"fig08.ioat_256kB_mibs",
               bench::pingpong_mibs(bench::cfg_omx_ioat(), k256, 6), 0.05});
  m.push_back({"fig08.ioat_4MB_mibs",
               bench::pingpong_mibs(bench::cfg_omx_ioat(), 4 * kM, 3), 0.05});

  // Fig. 8 overlap + latency attribution at 1 MB (the instrumented run).
  bench::TracedResult tr =
      bench::traced_pingpong(bench::cfg_omx_ioat(), kM, 3,
                             bench::out_path("BENCH_guard_trace.json"), nullptr,
                             /*print_waterfall=*/false);
  if (tr.report.sum_mismatches()) {
    std::fprintf(stderr,
                 "bench_guard: %llu blame partitions do not sum to their "
                 "span totals\n",
                 static_cast<unsigned long long>(tr.report.sum_mismatches()));
    std::exit(1);
  }
  m.push_back({"fig08.overlap_1MB_us", tr.avg_overlap_us, 0.10});
  m.push_back({"attrib.1MB.wire_frac",
               blame_frac(tr.report, kM, {obs::Blame::Wire}), 0.10});
  m.push_back({"attrib.1MB.dma_frac",
               blame_frac(tr.report, kM,
                          {obs::Blame::DmaQueueWait, obs::Blame::DmaTransfer}),
               0.25});

  // Fig. 9: receive-side CPU and DMA utilization of a 1 MB stream.
  const bench::CpuUsage cu =
      bench::stream_cpu_usage(bench::cfg_omx_ioat(), kM, 8);
  m.push_back({"fig09.ioat_1MB_cpu_frac", cu.total(), 0.10});
  m.push_back({"fig09.ioat_1MB_dma_frac", cu.dma, 0.10});

  // Fig. 10: intra-node shared memory with I/OAT, shared-L2 placement.
  m.push_back(
      {"fig10.shm_1MB_mibs",
       sim::mib_per_second(
           kM, bench::local_pingpong_oneway(bench::cfg_omx_ioat(), kM, 4,
                                            /*core_a=*/0, /*core_b=*/1)),
       0.05});

  // Multi-LP engine: single-worker partitioned events/sec relative to
  // the sequential engine on the same ring mesh.  This is a wall-clock
  // ratio, so it is machine-normalized (both runs execute on the same
  // box) but still noisy — the generous band only catches a partitioned
  // path that suddenly costs multiples of the sequential one.  The
  // committed baseline is 1.0 with the barrier-backoff regression floor:
  // the w1 partitioned path must stay >= 0.95x of sequential (a
  // collapsing spin barrier shows up here first).  96 iterations keep
  // each side at ~0.15 s or more; they run as eight 12-iteration meshes
  // a side, interleaved like interleaved_ratio's sides.
  {
    auto w1_parity = [] {
      double events[2] = {0, 0}, secs[2] = {0, 0};  // [sequential, w1]
      for (int r = 0; r < 8; ++r)
        for (int k = 0; k < 2; ++k) {
          const int part = (r % 2 == 0) == (k == 1) ? 1 : 0;
          const bench::SimSpeedPoint p =
              bench::sim_speed(8, part ? 8 : 1, 1, 12);
          events[part] += static_cast<double>(p.events);
          secs[part] += p.wall_s;
        }
      const double seq_eps = secs[0] > 0 ? events[0] / secs[0] : 0;
      return seq_eps > 0 && secs[1] > 0 ? events[1] / secs[1] / seq_eps : 0;
    };
    double ratio = w1_parity();
    // Hard floor from the spin-barrier backoff fix: the partitioned path
    // must not fall below 0.95x of sequential.  One retry absorbs a
    // transient scheduler hiccup; two consecutive misses is a real
    // regression (the pre-backoff barrier measured 0.82x here).
    if (ratio < 0.95) ratio = std::max(ratio, w1_parity());
    if (ratio < 0.95) {
      std::fprintf(stderr,
                   "bench_guard: w1 parity %.3f below the 0.95 floor "
                   "(spin-barrier oversubscription regression?)\n",
                   ratio);
      if (enforce_floors) std::exit(1);
    }
    m.push_back({"sim_speed.par_ratio_w1", ratio, 0.40});
  }

  // Postmortem ring: wall-clock throughput of the Fig. 8 I/OAT ping-pong
  // with the trace ring enabled at the postmortem size (256 events),
  // relative to the same run with it off.  Harnesses that want a
  // postmortem leave that ring on for the whole run, so its cost is
  // contracted to < 3 %: ratio = t_off / t_on, and the 0.97 hard floor is
  // exactly that bound.  Wall-clock noise gets interleaved sides and
  // overhead_ratio's best-of-3.
  {
    auto recorder_ratio = [] {
      auto once = [](bool rec) {
        bench::Cluster cluster;
        cluster.add_nodes(2, bench::cfg_omx_ioat());
        if (rec) cluster.engine().trace().enable(256);
        bench::run_pingpong(cluster, 256 * sim::KiB, 12, 1);
      };
      for (int r = 0; r < 8; ++r) once(false);  // warm caches/allocator
      // 64 runs a side: ~0.15 s or more, like the profiler row below.
      return interleaved_ratio(64, once);
    };
    const double ratio = overhead_ratio(recorder_ratio);
    if (ratio < 0.97) {
      std::fprintf(stderr,
                   "bench_guard: recorder ratio %.3f below the 0.97 floor "
                   "(the postmortem trace ring costs more than 3%%)\n",
                   ratio);
      if (enforce_floors) std::exit(1);
    }
    m.push_back({"obs.recorder_overhead", ratio, 0.10});
  }

  // Wall-clock self-profiler: the same contract as the postmortem ring —
  // zones are enabled by default, so their cost on a realistic event mix
  // is pinned below 3 % (ratio = t_off / t_on with the 0.97 hard floor,
  // interleaved sides and overhead_ratio's best-of-3 against host noise).
  {
    obs::WallProfiler& prof = obs::WallProfiler::instance();
    const bool was_enabled = prof.enabled();
    auto wallprof_ratio = [&prof] {
      auto once = [&prof](bool on) {
        prof.set_enabled(on);
        bench::Cluster cluster;
        cluster.add_nodes(2, bench::cfg_omx_ioat());
        bench::run_pingpong(cluster, 256 * sim::KiB, 12, 1);
      };
      for (int r = 0; r < 8; ++r) once(false);  // warm caches/allocator
      // 64 runs a side, ~0.15 s or more: long enough that scheduler
      // jitter stays well inside the 3 % budget the floor below enforces.
      return interleaved_ratio(64, once);
    };
    const double ratio = overhead_ratio(wallprof_ratio);
    prof.set_enabled(was_enabled);
    if (ratio < 0.97) {
      std::fprintf(stderr,
                   "bench_guard: wallprof ratio %.3f below the 0.97 floor "
                   "(scoped zones cost more than 3%%)\n",
                   ratio);
      if (enforce_floors) std::exit(1);
    }
    m.push_back({"obs.wallprof_overhead", ratio, 0.10});
  }

  // Flow-model cross-validation: the fluid FlowNetwork against the
  // exact packet engine on the same ping-pong curves.  Both sides are
  // deterministic simulations, so these ratios are machine-independent
  // and the bands can be tight; a committed value near 1.0 is the
  // acceptance criterion that flow-level curves track the packet-level
  // figure baselines.
  {
    const core::OmxConfig nc = bench::cfg_omx_nocopy();
    const sim::Time ov = bench::flow_calibrate_pingpong(nc);
    m.push_back({"xval.pingpong_256kB_ratio",
                 bench::xval_pingpong_ratio(nc, k256, 6, ov), 0.05});
    m.push_back({"xval.pingpong_1MB_ratio",
                 bench::xval_pingpong_ratio(nc, kM, 4, ov), 0.05});
    m.push_back({"xval.pingpong_4MB_ratio",
                 bench::xval_pingpong_ratio(nc, 4 * kM, 3, ov), 0.05});
    const sim::Time ov_imb = bench::flow_calibrate_imb(nc);
    m.push_back({"xval.imb_pingpong_1MB_ratio",
                 bench::xval_imb_ratio(nc, kM, 4, ov_imb), 0.05});
    // Solver throughput, measured as an integer-derived invariant rather
    // than wall clock: flow-visits per completed flow on the canonical
    // disjoint-pair background workload.  Growth here means incremental
    // re-solve stopped being O(component).
    m.push_back({"flow.solver_visits_per_flow",
                 bench::flow_solver_visits_per_flow(1024, 4), 0.25});
  }
  return m;
}

bool write_baseline(const std::vector<Metric>& metrics,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_guard: cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs("{\n", f);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::fprintf(f, "  \"%s\": {\"value\": %.6f, \"tol\": %.2f}%s\n",
                 metrics[i].name.c_str(), metrics[i].value, metrics[i].tol,
                 i + 1 < metrics.size() ? "," : "");
  std::fputs("}\n", f);
  std::fclose(f);
  std::printf("baseline written to %s (%zu metrics)\n", path.c_str(),
              metrics.size());
  return true;
}

/// Minimal parser for the flat baseline format written above: one
/// `"name": {"value": v, "tol": t}` entry per line.
std::vector<Metric> read_baseline(const std::string& path) {
  std::vector<Metric> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) {
    std::fprintf(stderr, "bench_guard: cannot read %s\n", path.c_str());
    return out;
  }
  char line[512];
  while (std::fgets(line, sizeof line, f)) {
    char name[128];
    double value = 0, tol = 0;
    if (std::sscanf(line, " \"%127[^\"]\": {\"value\": %lf, \"tol\": %lf}",
                    name, &value, &tol) == 3)
      out.push_back({name, value, tol});
  }
  std::fclose(f);
  return out;
}

int check_against(const std::vector<Metric>& current,
                  const std::string& path) {
  const std::vector<Metric> baseline = read_baseline(path);
  if (baseline.empty()) {
    std::fprintf(stderr,
                 "bench_guard: no metrics parsed from %s — refresh it with "
                 "--write\n",
                 path.c_str());
    return 1;
  }
  int failures = 0;
  std::printf("%-26s %12s %12s %8s  %s\n", "metric", "baseline", "current",
              "drift", "band");
  for (const Metric& b : baseline) {
    const Metric* c = nullptr;
    for (const Metric& m : current)
      if (m.name == b.name) c = &m;
    if (!c) {
      std::printf("%-26s %12.4f %12s %8s  MISSING\n", b.name.c_str(), b.value,
                  "-", "-");
      ++failures;
      continue;
    }
    const double scale = std::max(std::fabs(b.value), 1e-9);
    const double drift = (c->value - b.value) / scale;
    const bool ok = std::fabs(drift) <= b.tol;
    std::printf("%-26s %12.4f %12.4f %+7.1f%%  +-%.0f%%%s\n", b.name.c_str(),
                b.value, c->value, 100.0 * drift, 100.0 * b.tol,
                ok ? "" : "  FAIL");
    if (!ok) ++failures;
  }
  for (const Metric& m : current) {
    bool known = false;
    for (const Metric& b : baseline)
      if (b.name == m.name) known = true;
    if (!known)
      std::printf("%-26s %12s %12.4f  (not in baseline — refresh with "
                  "--write)\n",
                  m.name.c_str(), "-", m.value);
  }
  if (failures) {
    std::printf("\nbench_guard: %d metric(s) drifted outside their band.\n"
                "If the change is intentional, refresh the baseline:\n"
                "  ./build/bench/bench_guard --write bench/baselines/"
                "guard.json\n",
                failures);
    return 1;
  }
  std::printf("\nbench_guard: all %zu figure-mapped metrics within "
              "tolerance\n",
              baseline.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "--check";
  std::string path = "bench/baselines/guard.json";
  if (argc >= 2) mode = argv[1];
  if (argc >= 3) path = argv[2];
  if (mode != "--check" && mode != "--write") {
    std::fprintf(stderr, "usage: bench_guard [--check|--write] [guard.json]\n");
    return 2;
  }
  const std::vector<Metric> metrics =
      compute_metrics(/*enforce_floors=*/mode == "--check");
  if (mode == "--write") return write_baseline(metrics, path) ? 0 : 1;
  return check_against(metrics, path);
}
