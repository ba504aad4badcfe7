// Deterministic protocol soak harness (tier-2).
//
// Generates hundreds of randomized scenario x fault-plan schedules —
// each seed fully determines the cluster shape, the message mix, and a
// scripted fault::Plan (frame drops, duplicates, delays, corruption,
// Gilbert–Elliott burst loss, DMA descriptor failures and stalls) — and
// checks four invariants after quiesce:
//
//   1. every message delivered exactly once and byte-exact,
//   2. no leaked rx-ring slots or I/OAT-pinned skbuffs,
//   3. blame_sum() == total_ns for every span (exact attribution
//      partition, even across retransmissions),
//   4. wire-frame counters balance (tx + dups == rx + all drop classes).
//
// Replay a failure with   OMX_SOAK_SEED=<n> ./soak_protocol
// Override the run count with OMX_SOAK_RUNS=<n> (default 512).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "fault/fault.hpp"
#include "obs/attrib.hpp"
#include "obs/flight.hpp"
#include "obs/monitor.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"
#include "sim/time.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace net = openmx::net;
namespace obs = openmx::obs;
namespace fault = openmx::fault;
namespace bench = openmx::bench;

namespace {

constexpr std::uint64_t kBaseSeed = 0xC0FFEE;
constexpr std::size_t kDefaultRuns = 512;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  sim::Rng rng(seed);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i)
    h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

struct Msg {
  int src = 0;
  int dst = 0;
  std::uint32_t match = 0;
  std::vector<std::uint8_t> data;  // what the sender transmits
  std::vector<std::uint8_t> out;   // what the receiver saw
  bool send_ok = false;
  bool recv_ok = false;
  std::size_t recv_len = 0;
};

struct RunResult {
  bool ok = true;
  std::string why;
  std::uint64_t digest = 0;  // state fingerprint for determinism checks
};

/// One message size drawn across the interesting regimes: tiny, one
/// fragment, multi-fragment eager, and rendezvous/pull.
std::size_t draw_len(sim::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 1 + rng.next_below(64);
    case 1: return 1 + rng.next_below(4 * sim::KiB);
    case 2: return 4 * sim::KiB + rng.next_below(28 * sim::KiB);
    default: return 64 * sim::KiB + rng.next_below(192 * sim::KiB);
  }
}

/// Builds the seed's fault schedule.  Every scripted rule is bounded
/// (finite occurrence count) and the burst channel always recovers, so
/// with a generous retry budget no message can legitimately fail.
void build_plan(fault::Plan& plan, sim::Rng& rng) {
  static constexpr fault::Match kMatches[] = {
      fault::Match::Eager,    fault::Match::PullReq, fault::Match::PullReply,
      fault::Match::MsgAck,   fault::Match::LargeAck, fault::Match::Rndv,
      fault::Match::Data,     fault::Match::AnyAck,
  };
  const std::size_t nrules = rng.next_below(5);  // 0..4 scripted rules
  for (std::size_t i = 0; i < nrules; ++i) {
    const fault::Match m = kMatches[rng.next_below(std::size(kMatches))];
    const std::uint64_t from = rng.next_below(24);
    const std::uint64_t count = 1 + rng.next_below(3);
    switch (rng.next_below(4)) {
      case 0: plan.drop_nth(m, from, count); break;
      case 1:
        plan.duplicate_nth(m, from, 1 + static_cast<int>(rng.next_below(2)),
                           count);
        break;
      case 2:
        plan.delay_nth(m, from,
                       (2 + rng.next_below(40)) * sim::kMicrosecond, count);
        break;
      default: plan.corrupt_nth(m, from, count); break;
    }
  }
  if (rng.chance(0.5)) {
    fault::GilbertElliott ge;
    ge.p_good_to_bad = 0.01 + 0.07 * rng.next_double();
    ge.p_bad_to_good = 0.2 + 0.3 * rng.next_double();
    ge.loss_bad = 0.3 + 0.4 * rng.next_double();
    plan.burst_loss(ge);
  }
  if (rng.chance(0.5))
    plan.fail_descriptors(rng.next_below(48), 1 + rng.next_below(4));
  if (rng.chance(0.3)) plan.fail_descriptors_prob(0.05 * rng.next_double());
  if (rng.chance(0.4))
    plan.stall_channel(-1, rng.next_below(16), 1 + rng.next_below(8),
                       (2 + rng.next_below(40)) * sim::kMicrosecond);
}

RunResult run_one(std::uint64_t seed) {
  RunResult res;
  auto fail = [&](std::string why) {
    res.ok = false;
    if (!res.why.empty()) res.why += "; ";
    res.why += std::move(why);
  };

  sim::Rng rng(seed);
  const int nnodes = 2 + static_cast<int>(rng.next_below(3));
  core::OmxConfig cfg;
  cfg.retrans_timeout = (30 + rng.next_below(60)) * sim::kMicrosecond;
  cfg.max_retries = 64;
  cfg.ioat_large = rng.chance(0.6);
  cfg.ioat_medium_overlap = rng.chance(0.4);
  cfg.ioat_shm = rng.chance(0.3);

  core::Cluster cluster;
  cluster.add_nodes(static_cast<std::size_t>(nnodes), cfg);
  cluster.engine().spans().enable();
  cluster.engine().attrib().enable();

  // Always-on flight recorder: whatever happens, the last ~512 trace
  // events survive for the postmortem dump below.
  obs::FlightRecorder recorder(1, 512);
  cluster.engine().trace().attach_flight(&recorder, 0);
  const std::string postmortem_path =
      bench::out_path("postmortem_" + std::to_string(seed) + ".json");
  cluster.engine().set_on_panic([&](const char* why) {
    recorder.dump_json_file(postmortem_path, why, seed);
    fail(std::string("engine panic: ") + why);
  });

  // Live monitor over the wire counters, polled from the event loop.
  // The fault-drop-share watchdog logs once if injected loss somehow
  // dominates the schedule (the plans are bounded, so it should never).
  obs::Monitor monitor(cluster.network().counters(), 100 * sim::kMicrosecond);
  monitor.watch("net.tx_frames");
  monitor.watch("net.fault_drops");
  monitor.add_slo("net.fault_drop_share", 0.95, [](const obs::Registry& r) {
    const double tx = static_cast<double>(r.get("net.tx_frames"));
    return tx > 0 ? static_cast<double>(r.get("net.fault_drops")) / tx : 0.0;
  });
  cluster.set_monitor(&monitor);

  fault::Plan plan(rng.next_u64());
  build_plan(plan, rng);
  cluster.network().set_fault_injector(&plan);
  for (int n = 0; n < nnodes; ++n)
    cluster.node(static_cast<std::size_t>(n)).ioat().set_fault_injector(&plan);

  // ----- message mix: random directed pairs, a few local (shm) sends ---
  const std::size_t kmsgs = 3 + rng.next_below(8);
  std::vector<Msg> msgs(kmsgs);
  for (std::size_t i = 0; i < kmsgs; ++i) {
    Msg& m = msgs[i];
    m.src = static_cast<int>(rng.next_below(nnodes));
    m.dst = static_cast<int>(rng.next_below(nnodes));
    if (m.dst == m.src && !rng.chance(0.25))
      m.dst = (m.src + 1) % nnodes;  // mostly remote, occasionally local
    m.match = static_cast<std::uint32_t>(i + 1);
    m.data = pattern(draw_len(rng), seed ^ (i * 0x9e37ULL));
    m.out.assign(m.data.size(), 0);
  }

  // Per node: one process with a single endpoint doing both directions —
  // waiting on any request drives the endpoint's whole event ring, so
  // inbound rendezvous and local copies progress while sends block.
  // Half the inbound receives are pre-posted, half are posted after the
  // sends so the unexpected-message path soaks too.
  std::vector<std::uint64_t> late_mask(static_cast<std::size_t>(nnodes), 0);
  for (std::size_t i = 0; i < kmsgs; ++i)
    if (rng.chance(0.5))
      late_mask[static_cast<std::size_t>(msgs[i].dst)] |= 1ULL << i;

  for (int n = 0; n < nnodes; ++n) {
    cluster.spawn(
        cluster.node(static_cast<std::size_t>(n)), 0,
        "soak" + std::to_string(n), [&msgs, &late_mask, n](core::Process& p) {
          core::Endpoint ep(p, 0);
          std::vector<std::pair<std::size_t, core::Request*>> sends, recvs;
          auto post_recvs = [&](bool late) {
            for (std::size_t i = 0; i < msgs.size(); ++i) {
              Msg& m = msgs[i];
              const bool is_late =
                  (late_mask[static_cast<std::size_t>(n)] >> i) & 1;
              if (m.dst != n || is_late != late) continue;
              recvs.emplace_back(
                  i, ep.irecv(m.out.data(), m.out.size(), m.match));
            }
          };
          post_recvs(false);
          for (std::size_t i = 0; i < msgs.size(); ++i) {
            Msg& m = msgs[i];
            if (m.src != n) continue;
            sends.emplace_back(
                i, ep.isend(m.data.data(), m.data.size(), {m.dst, 0},
                            m.match));
          }
          post_recvs(true);
          for (auto& [i, r] : sends) msgs[i].send_ok = !ep.wait(r).failed;
          for (auto& [i, r] : recvs) {
            const core::Request done = ep.wait(r);
            msgs[i].recv_ok = !done.failed;
            msgs[i].recv_len = done.recv_len;
          }
        });
  }

  // On any failure — thrown, panicked, or caught by the post-run
  // invariants — leave a postmortem behind for omx_postmortem.
  auto dump_postmortem = [&]() {
    if (res.ok) return;
    if (recorder.dump_json_file(postmortem_path, res.why.c_str(), seed))
      std::fprintf(stderr, "postmortem: %s (pretty-print with omx_postmortem)\n",
                   postmortem_path.c_str());
  };

  try {
    cluster.run();
  } catch (const std::exception& e) {
    fail(std::string("run threw: ") + e.what());
    dump_postmortem();
    return res;
  }

  // ----- invariant 1: exactly-once, byte-exact delivery ---------------
  for (std::size_t i = 0; i < kmsgs; ++i) {
    const Msg& m = msgs[i];
    if (!m.send_ok) fail("msg " + std::to_string(i) + " send failed");
    if (!m.recv_ok) fail("msg " + std::to_string(i) + " recv failed");
    if (m.recv_len != m.data.size())
      fail("msg " + std::to_string(i) + " short recv");
    if (m.out != m.data)
      fail("msg " + std::to_string(i) + " payload mismatch");
  }

  // ----- invariant 2: no leaked rx-ring slots / pinned skbuffs --------
  for (int n = 0; n < nnodes; ++n) {
    core::Node& node = cluster.node(static_cast<std::size_t>(n));
    if (node.nic().rx_ring_in_use() != 0)
      fail("node " + std::to_string(n) + " leaked rx-ring slots");
    if (node.driver().pending_offload_skbuffs() != 0)
      fail("node " + std::to_string(n) + " leaked offload skbuffs");
  }

  // ----- invariant 3: exact blame partition for every span ------------
  obs::AttribReport report;
  report.build(cluster.engine().spans(), cluster.engine().attrib());
  if (report.sum_mismatches() != 0)
    fail(std::to_string(report.sum_mismatches()) +
         " spans with blame_sum != total_ns");

  // ----- invariant 4: wire-frame conservation -------------------------
  const auto& netc = cluster.network().counters();
  std::uint64_t rx_frames = 0, ring_drops = 0;
  for (int n = 0; n < nnodes; ++n) {
    const auto& nic = cluster.node(static_cast<std::size_t>(n)).nic();
    rx_frames += nic.counters().get("nic.rx_frames");
    ring_drops += nic.counters().get("nic.rx_ring_drops");
  }
  const std::uint64_t lhs =
      netc.get("net.tx_frames") + netc.get("net.fault_dup_frames");
  const std::uint64_t rhs = rx_frames + ring_drops +
                            netc.get("net.dropped_frames") +
                            netc.get("net.fault_drops");
  if (lhs != rhs)
    fail("frame conservation violated: " + std::to_string(lhs) +
         " != " + std::to_string(rhs));

  // ----- determinism fingerprint --------------------------------------
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const sim::Time now = cluster.engine().now();
  h = fnv1a(h, &now, sizeof(now));
  h = fnv1a(h, &lhs, sizeof(lhs));
  h = fnv1a(h, &rhs, sizeof(rhs));
  for (const Msg& m : msgs)
    h = fnv1a(h, m.out.data(), m.out.size());
  res.digest = h;
  dump_postmortem();
  return res;
}

}  // namespace

int main() {
  // Replay mode: run exactly one schedule under the given derived seed.
  if (const char* env = std::getenv("OMX_SOAK_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    const RunResult r = run_one(seed);
    if (!r.ok) {
      std::fprintf(stderr, "FAIL seed=%llu: %s\n",
                   static_cast<unsigned long long>(seed), r.why.c_str());
      std::fprintf(stderr, "replay: OMX_SOAK_SEED=%llu ./soak_protocol\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
    std::printf("OK seed=%llu digest=%016llx\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.digest));
    return 0;
  }

  std::size_t runs = kDefaultRuns;
  if (const char* env = std::getenv("OMX_SOAK_RUNS"))
    runs = std::strtoul(env, nullptr, 10);

  sim::SweepRunner runner(sim::sweep_options_from_env());
  const std::vector<RunResult> results = runner.map<RunResult>(
      runs, [](std::size_t i) { return run_one(sim::sweep_seed(kBaseSeed, i)); });

  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok) continue;
    ++failures;
    const std::uint64_t seed = sim::sweep_seed(kBaseSeed, i);
    std::fprintf(stderr, "FAIL run %zu: %s  [repro: OMX_SOAK_SEED=%llu]\n", i,
                 results[i].why.c_str(),
                 static_cast<unsigned long long>(seed));
  }

  // Determinism spot check: replaying a schedule must reproduce the
  // exact same end state (virtual clock, counters, received bytes).
  for (std::size_t i = 0; i < std::min<std::size_t>(3, results.size()); ++i) {
    const std::uint64_t seed = sim::sweep_seed(kBaseSeed, i);
    const RunResult again = run_one(seed);
    if (again.digest != results[i].digest || again.ok != results[i].ok) {
      ++failures;
      std::fprintf(stderr,
                   "FAIL determinism: run %zu replays differently  "
                   "[repro: OMX_SOAK_SEED=%llu]\n",
                   i, static_cast<unsigned long long>(seed));
    }
  }

  if (failures) {
    std::fprintf(stderr, "soak: %d/%zu schedules failed\n", failures, runs);
    return 1;
  }
  std::printf("soak: %zu fault schedules passed (base seed %llu)\n", runs,
              static_cast<unsigned long long>(kBaseSeed));
  return 0;
}
