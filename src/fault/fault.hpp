#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/wire.hpp"
#include "dma/ioat.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace openmx::fault {

/// Which frames a rule applies to.  The classifier looks through the
/// opaque net::Payload at the Open-MX packet type, so plans are written
/// in protocol terms ("drop the third pull reply", "eat every ack").
enum class Match : std::uint8_t {
  Any = 0,
  Eager,      // eager data fragments
  Rndv,       // rendezvous announcements
  PullReq,    // pull-block requests
  PullReply,  // large-message data fragments
  MsgAck,     // eager acks
  LargeAck,   // pull-completion acks
  Nack,       // unreachable-endpoint nacks
  AnyAck,     // MsgAck or LargeAck
  Data,       // Eager or PullReply (anything carrying payload bytes)
};

/// Classifies a frame by its Open-MX packet type; non-OMX payloads (raw
/// net-layer tests) classify as Any and only match Match::Any rules.
[[nodiscard]] inline std::optional<core::PktType> pkt_type_of(
    const net::Frame& f) {
  const auto* pkt = dynamic_cast<const core::OmxPkt*>(f.payload.get());
  if (!pkt) return std::nullopt;
  return pkt->type;
}

[[nodiscard]] inline bool matches(Match m, const net::Frame& f) {
  if (m == Match::Any) return true;
  const auto t = pkt_type_of(f);
  if (!t) return false;
  switch (m) {
    case Match::Eager: return *t == core::PktType::EagerFrag;
    case Match::Rndv: return *t == core::PktType::Rndv;
    case Match::PullReq: return *t == core::PktType::PullReq;
    case Match::PullReply: return *t == core::PktType::PullReply;
    case Match::MsgAck: return *t == core::PktType::MsgAck;
    case Match::LargeAck: return *t == core::PktType::LargeAck;
    case Match::Nack: return *t == core::PktType::Nack;
    case Match::AnyAck:
      return *t == core::PktType::MsgAck || *t == core::PktType::LargeAck;
    case Match::Data:
      return *t == core::PktType::EagerFrag ||
             *t == core::PktType::PullReply;
    default: return false;
  }
}

enum class Action : std::uint8_t { Drop, Duplicate, Delay, Corrupt };

/// One scripted per-frame fault: applies `action` to matching frames
/// number [from, from+count) (0-based occurrence order among matching
/// frames), each with probability `prob` drawn from the plan's seeded
/// RNG.  Scripted rules with prob=1 are fully deterministic.
struct Rule {
  Match match = Match::Any;
  Action action = Action::Drop;
  std::uint64_t from = 0;
  std::uint64_t count = std::numeric_limits<std::uint64_t>::max();
  double prob = 1.0;
  sim::Time delay_ns = 0;  // Action::Delay
  int copies = 1;          // Action::Duplicate
};

/// Gilbert–Elliott burst-loss channel: a two-state Markov chain stepped
/// once per frame; the loss probability depends on the state, which is
/// what makes the losses bursty rather than Bernoulli-uniform.
struct GilbertElliott {
  double p_good_to_bad = 0.01;
  double p_bad_to_good = 0.25;
  double loss_good = 0.0;
  double loss_bad = 0.6;
};

/// Scripted DMA faults, counted over every descriptor submission of the
/// engine the plan is installed on.
struct DmaScript {
  std::uint64_t fail_from = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t fail_count = 0;  // descriptors [fail_from, fail_from+count)
  double fail_prob = 0.0;        // additionally, each descriptor may fail
  int stall_chan = -1;           // -1 = any channel
  std::uint64_t stall_from = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t stall_count = 0;
  sim::Time stall_ns = 0;
};

/// A deterministic fault schedule: an ordered list of per-frame rules,
/// an optional Gilbert–Elliott burst-loss channel, and a DMA script.
/// One Plan instance can be installed on a Network and on any number of
/// IoatEngines at once (single-threaded simulation — no locking).
///
/// Rules combine per frame: any Drop wins; Delay durations add; Duplicate
/// copies add; Corrupt ORs.  All randomness comes from the plan's own
/// SplitMix64 stream, so a (seed, plan) pair replays bit-identically.
class Plan : public net::FaultInjector, public dma::DmaFaultInjector {
 public:
  explicit Plan(std::uint64_t seed = 1) : rng_(seed) {}

  Plan& add(Rule r) {
    rules_.push_back(RuleState{r, 0});
    return *this;
  }

  // ----- convenience builders (scripted, fully deterministic) -----
  Plan& drop_nth(Match m, std::uint64_t nth, std::uint64_t count = 1) {
    return add({m, Action::Drop, nth, count});
  }
  Plan& drop_all(Match m) {
    return add({m, Action::Drop, 0,
                std::numeric_limits<std::uint64_t>::max()});
  }
  Plan& drop_prob(Match m, double p) {
    return add({m, Action::Drop, 0,
                std::numeric_limits<std::uint64_t>::max(), p});
  }
  Plan& duplicate_nth(Match m, std::uint64_t nth, int copies = 1,
                      std::uint64_t count = 1) {
    Rule r{m, Action::Duplicate, nth, count};
    r.copies = copies;
    return add(r);
  }
  Plan& delay_nth(Match m, std::uint64_t nth, sim::Time ns,
                  std::uint64_t count = 1) {
    Rule r{m, Action::Delay, nth, count};
    r.delay_ns = ns;
    return add(r);
  }
  Plan& corrupt_nth(Match m, std::uint64_t nth, std::uint64_t count = 1) {
    return add({m, Action::Corrupt, nth, count});
  }
  Plan& burst_loss(GilbertElliott ge) {
    ge_ = ge;
    return *this;
  }

  // ----- DMA script -----
  Plan& fail_descriptors(std::uint64_t from, std::uint64_t count = 1) {
    dma_.fail_from = from;
    dma_.fail_count = count;
    return *this;
  }
  Plan& fail_descriptors_prob(double p) {
    dma_.fail_prob = p;
    return *this;
  }
  Plan& stall_channel(int chan, std::uint64_t from, std::uint64_t count,
                      sim::Time ns) {
    dma_.stall_chan = chan;
    dma_.stall_from = from;
    dma_.stall_count = count;
    dma_.stall_ns = ns;
    return *this;
  }

  // ----- net::FaultInjector -----
  net::FaultDecision on_transmit(const net::Frame& f) override {
    net::FaultDecision d;
    for (RuleState& rs : rules_) {
      if (!matches(rs.rule.match, f)) continue;
      const std::uint64_t idx = rs.seen++;
      if (idx < rs.rule.from || idx - rs.rule.from >= rs.rule.count)
        continue;
      if (rs.rule.prob < 1.0 && !rng_.chance(rs.rule.prob)) continue;
      switch (rs.rule.action) {
        case Action::Drop: d.drop = true; break;
        case Action::Duplicate: d.duplicates += rs.rule.copies; break;
        case Action::Delay: d.delay_ns += rs.rule.delay_ns; break;
        case Action::Corrupt: d.corrupt = true; break;
      }
    }
    if (ge_) {
      // Step the channel state once per frame, then draw by state.
      if (bad_state_) {
        if (rng_.chance(ge_->p_bad_to_good)) bad_state_ = false;
      } else {
        if (rng_.chance(ge_->p_good_to_bad)) bad_state_ = true;
      }
      const double p = bad_state_ ? ge_->loss_bad : ge_->loss_good;
      if (p > 0.0 && rng_.chance(p)) {
        d.drop = true;
        counters_.add("fault.burst_drops");
      }
    }
    if (d.drop) counters_.add("fault.drops");
    if (d.duplicates) counters_.add("fault.duplicates",
                                    static_cast<std::uint64_t>(d.duplicates));
    if (d.delay_ns) counters_.add("fault.delays");
    if (d.corrupt) counters_.add("fault.corruptions");
    return d;
  }

  // ----- dma::DmaFaultInjector -----
  dma::DmaFault on_submit(int chan, std::size_t /*len*/) override {
    dma::DmaFault f;
    const std::uint64_t idx = descs_seen_++;
    if (idx >= dma_.fail_from && idx - dma_.fail_from < dma_.fail_count)
      f.fail = true;
    if (!f.fail && dma_.fail_prob > 0.0 && rng_.chance(dma_.fail_prob))
      f.fail = true;
    if ((dma_.stall_chan < 0 || dma_.stall_chan == chan) &&
        idx >= dma_.stall_from && idx - dma_.stall_from < dma_.stall_count)
      f.stall_ns = dma_.stall_ns;
    if (f.fail) counters_.add("fault.dma_desc_failures");
    if (f.stall_ns) counters_.add("fault.dma_stalls");
    return f;
  }

  [[nodiscard]] const sim::Counters& counters() const { return counters_; }
  [[nodiscard]] std::uint64_t frames_seen() const {
    std::uint64_t n = 0;
    for (const RuleState& rs : rules_) n = std::max(n, rs.seen);
    return n;
  }

 private:
  struct RuleState {
    Rule rule;
    std::uint64_t seen = 0;  // matching frames observed so far
  };

  sim::Rng rng_;
  std::vector<RuleState> rules_;
  std::optional<GilbertElliott> ge_;
  bool bad_state_ = false;
  DmaScript dma_;
  std::uint64_t descs_seen_ = 0;
  sim::Counters counters_;
};

}  // namespace openmx::fault
