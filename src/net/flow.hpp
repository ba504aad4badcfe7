#pragma once

// Flow-level (fluid) network model.  Where net::Network moves every
// Ethernet frame as its own event (exact, O(frames)), FlowNetwork treats
// a whole transfer as one *flow* holding a max-min fair share of the
// links it crosses, and schedules a single analytically computed
// completion event per flow — cost O(active flows), independent of
// transfer size: a SimGrid-style fluid model.

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/wallprof.hpp"
#include "sim/engine.hpp"
#include "sim/lp.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace openmx::net {

/// Topology and timing of the fluid fabric: every endpoint owns a
/// full-duplex NIC port (tx + rx, each serialized at `port_bw`), and all
/// ports meet in a switch fabric whose aggregate capacity is the sum of
/// port rates divided by `oversub`.  With oversub <= 1 the fabric can
/// never be the bottleneck (the ports already cap the aggregate), so the
/// solver drops it entirely; oversub > 1 models an undersized spine that
/// couples otherwise-independent flows.
struct FlowParams {
  double port_bw = 1244.125e6;      // bytes/s per NIC port (10 GbE data rate)
  sim::Time latency_ns = 500;       // first-byte fabric traversal
  double oversub = 1.0;             // fabric oversubscription factor
  std::size_t frame_overhead = 38;  // per-frame Ethernet overhead
  std::size_t mtu = 9000;           // framing granularity of a transfer

  /// Fluid parameters matching a packet NetParams, so both models
  /// describe the same physical links.  `chunk` overrides the framing
  /// granularity (e.g. the Open-MX 4 KiB fragment payload) and
  /// `chunk_overhead` the per-chunk header bytes on top of the Ethernet
  /// overhead.
  static FlowParams match(const NetParams& np, double oversub = 1.0,
                          std::size_t chunk = 0,
                          std::size_t chunk_overhead = 0) {
    FlowParams fp;
    fp.port_bw = np.wire_bw;
    fp.latency_ns = np.latency_ns;
    fp.oversub = oversub;
    fp.frame_overhead = np.frame_overhead + chunk_overhead;
    fp.mtu = chunk ? chunk : np.mtu;
    return fp;
  }
};

/// Handle of one flow; packs {slot, generation} like an event handle.
using FlowId = std::uint64_t;

/// What a completion callback learns about its finished flow.  `finish`
/// is when the last byte cleared the sender's links; delivery callbacks
/// run one fabric latency later.
struct FlowInfo {
  FlowId id = 0;
  int src = -1;
  int dst = -1;
  std::size_t bytes = 0;      // payload bytes requested
  sim::Time start = 0;
  sim::Time finish = 0;
};

using FlowCallback = std::function<void(const FlowInfo&)>;

/// The fluid fabric.  All calls must come from engine context (or, in a
/// partitioned run, from the shard's own LP); the solver itself never
/// schedules more than one completion event per active flow.
///
/// Fairness model: progressive filling over the links touched by the
/// changed flow's connected component — the classic max-min allocation,
/// computed incrementally.  A flow start/finish only re-solves the flows
/// it actually shares a (potentially) binding link with, so disjoint
/// background pairs cost O(1) per event no matter how many thousands of
/// endpoints are active.  A saturated shared fabric (oversub > 1)
/// legitimately couples everything, and the component then grows to
/// match — that is the physics, not an implementation accident.
class FlowNetwork {
 public:
  explicit FlowNetwork(sim::Engine& engine, FlowParams params = {})
      : engine_(engine), params_(params) {
    if (params_.port_bw <= 0)
      throw std::logic_error("FlowNetwork: port bandwidth must be positive");
    if (params_.oversub <= 0)
      throw std::logic_error("FlowNetwork: oversubscription must be positive");
    links_.resize(1);  // fabric link id 0
    c_started_ = &counters_.counter("flow.started");
    c_completed_ = &counters_.counter("flow.completed");
    c_resolves_ = &counters_.counter("flow.resolves");
    c_solver_visits_ = &counters_.counter("flow.solver_visits");
    c_lp_deliveries_ = &counters_.counter("flow.lp_deliveries");
    g_active_ = &counters_.gauge("flow.active");
    h_comp_flows_ = &counters_.histogram("flow.resolve_component_flows");
    h_rate_mibs_ = &counters_.histogram("flow.fair_share_mibs");
  }

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  [[nodiscard]] const FlowParams& params() const { return params_; }
  [[nodiscard]] std::size_t active_flows() const { return active_; }
  [[nodiscard]] const sim::Counters& counters() const { return counters_; }
  [[nodiscard]] sim::Counters& counters() { return counters_; }

  /// Grows the port tables to cover endpoints [0, n).  Implicit on
  /// transfer(), explicit for benchmarks that want allocation up front.
  void ensure_endpoints(std::size_t n) {
    if (n <= num_endpoints_) return;
    num_endpoints_ = n;
    links_.resize(1 + 2 * n);
    for (std::size_t i = 1; i < links_.size(); ++i)
      links_[i].cap = params_.port_bw;
    // Aggregate fabric capacity scales with the attached port count.
    links_[0].cap = static_cast<double>(n) * params_.port_bw / params_.oversub;
  }

  /// On-the-wire size of a transfer: payload plus per-chunk overhead at
  /// the framing granularity (what the packet fabric would have charged).
  [[nodiscard]] std::size_t wire_bytes_for(std::size_t bytes) const {
    const std::size_t chunks =
        bytes == 0 ? 1 : (bytes + params_.mtu - 1) / params_.mtu;
    return bytes + chunks * params_.frame_overhead;
  }

  /// Analytic completion time of an uncontended transfer (for tests and
  /// the cross-validation harness): serialization at full port rate plus
  /// one fabric latency.
  [[nodiscard]] sim::Time uncontended_delivery_ns(std::size_t bytes) const {
    return sim::duration_for_bytes(wire_bytes_for(bytes), params_.port_bw) +
           params_.latency_ns;
  }

  /// Starts a flow of `bytes` from endpoint `src` to endpoint `dst`.
  /// `on_delivered` runs in engine context one fabric latency after the
  /// flow's last byte cleared the sender — on the destination shard when
  /// the fluid fabric is partitioned.
  FlowId transfer(int src, int dst, std::size_t bytes,
                  FlowCallback on_delivered) {
    if (src < 0 || dst < 0)
      throw std::logic_error("FlowNetwork: negative endpoint id");
    if (src == dst)
      throw std::logic_error("FlowNetwork: transfer to self");
    ensure_endpoints(static_cast<std::size_t>(std::max(src, dst)) + 1);
    if (lp_ && lp_of_ep_.at(static_cast<std::size_t>(src)) != lp_->id())
      throw std::logic_error(
          "FlowNetwork: transfer must start on the shard owning its source");

    const std::uint32_t slot = alloc_slot();
    Flow& f = flows_[slot];
    f.src = src;
    f.dst = dst;
    f.bytes = bytes;
    f.remaining = static_cast<double>(wire_bytes_for(bytes));
    f.rate = 0;
    f.start = engine_.now();
    f.last_update = engine_.now();
    f.cb = std::move(on_delivered);
    f.nlinks = 0;
    f.links[f.nlinks++] = tx_link(src);
    f.links[f.nlinks++] = rx_link(dst);
    if (params_.oversub > 1.0) f.links[f.nlinks++] = 0;  // fabric can bind
    for (unsigned i = 0; i < f.nlinks; ++i) link_add(f.links[i], slot, i);

    ++active_;
    c_started_->add();
    g_active_->set(static_cast<std::int64_t>(active_));

    const FlowId id = slot_id(slot, f.gen);
    resolve(flow_links(f));
    return id;
  }

  // ---- multi-LP shard binding -------------------------------------------

  /// This instance becomes one shard of a partitioned fluid fabric:
  /// transfers must start on the shard owning their source endpoint, and
  /// completions whose destination lives on another LP cross as
  /// timestamped LpMessages (eligible no earlier than one fabric latency
  /// after the completion event, which is exactly the conservative
  /// lookahead contract when lookahead == latency).  Each shard solves
  /// fair shares over its own flows only; rx-port contention *between*
  /// shards is approximated, not shared — documented in DESIGN.md §3b.
  void bind_partition(sim::Lp& lp, std::vector<int> lp_of_endpoint,
                      std::vector<FlowNetwork*> shards) {
    lp_ = &lp;
    lp_of_ep_ = std::move(lp_of_endpoint);
    shards_ = std::move(shards);
    ensure_endpoints(lp_of_ep_.size());
  }

 private:
  static constexpr double kMinRate = 1.0;       // bytes/s floor, avoids /0
  static constexpr double kSatSlack = 1e-6;     // relative saturation slack

  struct Flow {
    std::uint32_t gen = 0;
    bool active = false;
    int src = -1, dst = -1;
    std::size_t bytes = 0;
    double remaining = 0;  // wire bytes left to move
    double rate = 0;       // currently allocated bytes/s
    double new_rate = 0;   // solver scratch
    sim::Time start = 0;
    sim::Time last_update = 0;
    unsigned nlinks = 0;
    std::array<std::size_t, 3> links{};  // tx, rx[, fabric]
    std::array<std::uint32_t, 3> pos{};  // index in each link's flow list
    FlowCallback cb;
    sim::EventHandle completion;
    std::uint32_t mark = 0;  // solver epoch
    bool frozen = false;     // solver scratch
  };

  struct Link {
    double cap = 0;
    double used = 0;        // sum of current flow rates
    std::vector<std::uint32_t> flows;
    // solver scratch
    std::uint32_t mark = 0;
    double residual = 0;
    std::uint32_t unfrozen = 0;
  };

  [[nodiscard]] std::size_t tx_link(int node) const {
    return 1 + 2 * static_cast<std::size_t>(node);
  }
  [[nodiscard]] std::size_t rx_link(int node) const {
    return 2 + 2 * static_cast<std::size_t>(node);
  }
  [[nodiscard]] static FlowId slot_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<FlowId>(gen) << 32) | slot;
  }

  [[nodiscard]] std::uint32_t alloc_slot() {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(flows_.size());
      flows_.emplace_back();
    }
    Flow& f = flows_[slot];
    ++f.gen;
    f.active = true;
    f.frozen = false;
    f.mark = 0;
    return slot;
  }

  void link_add(std::size_t l, std::uint32_t slot, unsigned which) {
    flows_[slot].pos[which] = static_cast<std::uint32_t>(links_[l].flows.size());
    links_[l].flows.push_back(slot);
  }

  void link_remove(std::size_t l, std::uint32_t slot, unsigned which) {
    auto& v = links_[l].flows;
    const std::uint32_t at = flows_[slot].pos[which];
    assert(at < v.size() && v[at] == slot);
    const std::uint32_t moved = v.back();
    v[at] = moved;
    v.pop_back();
    if (moved != slot) {
      // Fix the moved flow's position entry for this link.
      Flow& m = flows_[moved];
      for (unsigned i = 0; i < m.nlinks; ++i)
        if (m.links[i] == l) m.pos[i] = at;
    }
  }

  [[nodiscard]] std::vector<std::size_t> flow_links(const Flow& f) const {
    return {f.links.begin(), f.links.begin() + f.nlinks};
  }

  [[nodiscard]] bool saturated(const Link& l) const {
    return l.used >= l.cap * (1.0 - kSatSlack);
  }

  /// Incremental max-min re-solve: collect the connected component of
  /// links whose allocation can change, run progressive filling over it
  /// (external flows pinned as reservations), and expand + retry if the
  /// new rates would oversubscribe a boundary link.  Then commit: advance
  /// every component flow's residual bytes to `now` at its old rate,
  /// install the new rate, and reschedule its completion event.
  void resolve(std::vector<std::size_t> seeds) {
    OMX_WALL_ZONE("flow.solve");
    const sim::Time now = engine_.now();
    c_resolves_->add();

    for (;;) {
      ++epoch_;
      comp_links_.clear();
      comp_flows_.clear();
      for (std::size_t l : seeds) mark_link(l);
      // Closure: every flow on a component link joins; a joined flow
      // drags in its other links only when they are (near) saturated —
      // an unsaturated link never constrained anyone, so its other
      // flows keep their rates (verified by the expansion check below).
      for (std::size_t i = 0; i < comp_links_.size(); ++i) {
        const Link& l = links_[comp_links_[i]];
        for (std::uint32_t s : l.flows) {
          Flow& f = flows_[s];
          if (f.mark == epoch_) continue;
          f.mark = epoch_;
          comp_flows_.push_back(s);
          for (unsigned k = 0; k < f.nlinks; ++k)
            if (links_[f.links[k]].mark != epoch_ && saturated(links_[f.links[k]]))
              mark_link(f.links[k]);
        }
      }
      if (comp_flows_.empty()) break;
      // Deterministic solve order regardless of membership-list churn.
      std::sort(comp_links_.begin(), comp_links_.end());
      std::sort(comp_flows_.begin(), comp_flows_.end());
      c_solver_visits_->add(comp_flows_.size());

      // Residual capacity = cap - external flows (flows outside the
      // component keep their current rates).
      for (std::size_t lid : comp_links_) {
        Link& l = links_[lid];
        double comp_used = 0;
        std::uint32_t n = 0;
        for (std::uint32_t s : l.flows)
          if (flows_[s].mark == epoch_) {
            comp_used += flows_[s].rate;
            ++n;
          }
        const double external = l.used - comp_used;
        l.residual = std::max(l.cap - external, l.cap * 0.01);
        l.unfrozen = n;
      }
      for (std::uint32_t s : comp_flows_) flows_[s].frozen = false;

      // Progressive filling: repeatedly freeze the flows of the current
      // bottleneck link at its equal share.
      std::size_t left = comp_flows_.size();
      while (left > 0) {
        std::size_t bneck = 0;
        double best = 0;
        bool found = false;
        for (std::size_t lid : comp_links_) {
          const Link& l = links_[lid];
          if (l.unfrozen == 0) continue;
          const double share = l.residual / static_cast<double>(l.unfrozen);
          if (!found || share < best) {
            found = true;
            best = share;
            bneck = lid;
          }
        }
        assert(found);
        const double share = std::max(best, kMinRate);
        for (std::uint32_t s : comp_flows_) {
          Flow& f = flows_[s];
          if (f.frozen) continue;
          bool on = false;
          for (unsigned k = 0; k < f.nlinks; ++k)
            if (f.links[k] == bneck) on = true;
          if (!on) continue;
          f.frozen = true;
          f.new_rate = share;
          --left;
          for (unsigned k = 0; k < f.nlinks; ++k) {
            Link& l2 = links_[f.links[k]];
            if (l2.mark != epoch_) continue;
            l2.residual -= share;
            --l2.unfrozen;
          }
        }
      }

      // Expansion check: would any boundary link (a component flow's
      // link that stayed outside the component) be pushed past capacity
      // by the new rates?  If so its external flows must slow down too —
      // grow the component and re-solve.  Monotone, hence terminating.
      bool expanded = false;
      for (std::uint32_t s : comp_flows_) {
        Flow& f = flows_[s];
        for (unsigned k = 0; k < f.nlinks; ++k) {
          Link& l = links_[f.links[k]];
          if (l.mark == epoch_) continue;
          const double next_used = l.used + f.new_rate - f.rate;
          if (next_used > l.cap * (1.0 + kSatSlack)) {
            seeds.push_back(f.links[k]);
            expanded = true;
          }
        }
      }
      if (!expanded) break;
    }

    // Commit.
    h_comp_flows_->add(comp_flows_.size());
    for (std::uint32_t s : comp_flows_) {
      Flow& f = flows_[s];
      advance(f, now);
      for (unsigned k = 0; k < f.nlinks; ++k)
        links_[f.links[k]].used += f.new_rate - f.rate;
      f.rate = f.new_rate;
      h_rate_mibs_->add(
          static_cast<std::uint64_t>(f.rate / static_cast<double>(sim::MiB)));
      const double ns = f.remaining / f.rate * 1e9;
      sim::Time dt = static_cast<sim::Time>(std::ceil(ns));
      if (dt < 0) dt = 0;
      f.completion.cancel();
      f.completion = engine_.schedule_cancellable(
          dt, sim::Band::kFlow, [this, s] { complete(s); });
    }
  }

  void mark_link(std::size_t l) {
    if (links_[l].mark == epoch_) return;
    links_[l].mark = epoch_;
    comp_links_.push_back(l);
  }

  static void advance(Flow& f, sim::Time now) {
    if (now > f.last_update) {
      f.remaining -= f.rate * static_cast<double>(now - f.last_update) * 1e-9;
      if (f.remaining < 0) f.remaining = 0;
      f.last_update = now;
    }
  }

  void complete(std::uint32_t slot) {
    Flow& f = flows_[slot];
    assert(f.active);
    const sim::Time now = engine_.now();
    advance(f, now);
    // Integer-ns rounding leaves at most one rate-nanosecond of residue.
    assert(f.remaining <= f.rate * 2e-9 + 1e-6);

    FlowInfo info;
    info.id = slot_id(slot, f.gen);
    info.src = f.src;
    info.dst = f.dst;
    info.bytes = f.bytes;
    info.start = f.start;
    info.finish = now;

    std::vector<std::size_t> seeds = flow_links(f);
    for (unsigned k = 0; k < f.nlinks; ++k) {
      links_[f.links[k]].used -= f.rate;
      if (links_[f.links[k]].used < 0) links_[f.links[k]].used = 0;
      link_remove(f.links[k], slot, k);
    }
    FlowCallback cb = std::move(f.cb);
    f.cb = nullptr;
    f.active = false;
    f.rate = 0;
    free_slots_.push_back(slot);
    --active_;
    c_completed_->add();
    g_active_->set(static_cast<std::int64_t>(active_));

    const sim::Time deliver_at = now + params_.latency_ns;
    if (lp_ && lp_of_ep_.at(static_cast<std::size_t>(info.dst)) != lp_->id()) {
      // Cross-shard delivery: carried as a timestamped LpMessage keyed
      // (deliver_at, src endpoint, per-shard seq) — the same total order
      // the packet fabric's remote claims use.
      const int dst_lp = lp_of_ep_[static_cast<std::size_t>(info.dst)];
      FlowNetwork* peer = shards_.at(static_cast<std::size_t>(dst_lp));
      sim::LpMessage msg;
      msg.when = deliver_at;
      msg.origin = static_cast<std::uint32_t>(info.src);
      msg.seq = lp_seq_++;
      msg.apply = [peer, deliver_at, info, cb = std::move(cb)]() mutable {
        peer->c_lp_deliveries_->add();
        peer->engine_.schedule_at(deliver_at,
                                  [cb = std::move(cb), info] { cb(info); });
      };
      lp_->post(dst_lp, std::move(msg));
    } else if (cb) {
      engine_.schedule_at(deliver_at, [cb = std::move(cb), info] { cb(info); });
    }

    // The freed capacity belongs to whoever shared these links.
    resolve(std::move(seeds));
  }

  sim::Engine& engine_;
  FlowParams params_;
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Link> links_;  // [0] fabric, then tx/rx per endpoint
  std::size_t num_endpoints_ = 0;
  std::size_t active_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<std::size_t> comp_links_;
  std::vector<std::uint32_t> comp_flows_;
  sim::Lp* lp_ = nullptr;  // null = unpartitioned
  std::vector<int> lp_of_ep_;
  std::vector<FlowNetwork*> shards_;
  std::uint64_t lp_seq_ = 0;
  sim::Counters counters_;
  obs::Counter* c_started_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_resolves_ = nullptr;
  obs::Counter* c_solver_visits_ = nullptr;
  obs::Counter* c_lp_deliveries_ = nullptr;
  obs::Gauge* g_active_ = nullptr;
  obs::Histogram* h_comp_flows_ = nullptr;
  obs::Histogram* h_rate_mibs_ = nullptr;
};

}  // namespace openmx::net
