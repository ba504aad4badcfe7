#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cpu/machine.hpp"
#include "mem/memcpy_model.hpp"
#include "obs/wallprof.hpp"
#include "sim/engine.hpp"
#include "sim/lp.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace openmx::net {

/// Base class for typed frame payloads.  The network layer treats payloads
/// as opaque; the Open-MX wire protocol (core/wire.hpp) derives from this.
struct Payload {
  virtual ~Payload() = default;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// One Ethernet frame in flight.  `wire_bytes` is the full on-the-wire size
/// including protocol headers but excluding the fixed per-frame Ethernet
/// overhead (preamble/header/FCS/IFG), which the link model adds.
///
/// `csum` is the protocol layer's wire checksum (0 = the sender computed
/// none); Open-MX's core::pkt_checksum covers the packet header only.  The
/// payload object itself is shared and immutable, so wire corruption is
/// modeled by flipping bits of the checksum copy carried in the frame: the
/// receiver's recompute-and-compare fails exactly as it would had bits of
/// the frame flipped instead.
struct Frame {
  int src_node = -1;
  int dst_node = -1;
  std::size_t wire_bytes = 0;
  std::uint32_t csum = 0;
  PayloadPtr payload;
};

/// What the fault layer decided to do with one frame about to cross the
/// wire.  Defaults mean "deliver untouched".  Several rules can stack:
/// drop wins over everything; duplicates, delay and corruption combine.
struct FaultDecision {
  bool drop = false;      // frame vanishes on the wire
  bool corrupt = false;   // wire image damaged; receiver's checksum fails
  int duplicates = 0;     // extra copies delivered after the original
  sim::Time delay_ns = 0; // held back in the fabric: bounded reordering
};

/// Injection point for scripted adversarial faults, consulted once per
/// transmitted frame (after the frame occupied the tx port, before the
/// uniform Bernoulli loss draw).  Implemented by fault::Plan; the net
/// layer only knows this interface so it stays independent of the wire
/// protocol above it.  In a partitioned run each shard carries its own
/// injector, so fault occurrence counting follows the shard-local
/// transmit order and stays worker-count independent.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultDecision on_transmit(const Frame& frame) = 0;
};

/// Link and NIC timing parameters.
///
/// The wire is 10 Gbit/s Ethernet: 9953 Mbit/s of usable data rate
/// (= 1244 MB/s = 1186 MiB/s), the line-rate ceiling quoted throughout the
/// paper.  Hosts are connected back-to-back ("two Myri-10G NICs connected
/// without any switch").  `latency_ns` doubles as the conservative
/// lookahead of a partitioned run: no frame can affect another logical
/// process sooner than one wire latency after it left the tx port.
struct NetParams {
  double wire_bw = 1244.125e6;       // bytes/s of 10 GbE data rate
  sim::Time latency_ns = 500;        // NIC-to-NIC, back-to-back cable
  std::size_t frame_overhead = 38;   // preamble+eth hdr+FCS+IFG per frame
  std::size_t mtu = 9000;            // jumbo frames
  std::size_t rx_ring_slots = 512;   // receive descriptor ring depth
  sim::Time intr_ns = 350;           // interrupt entry + BH dispatch per frame
  double loss_prob = 0.0;            // injected frame loss
  std::uint64_t loss_seed = 42;
};

class Network;

/// A received frame held in a NIC-ring socket buffer.
///
/// The skbuff occupies one rx-ring slot until every reference is dropped —
/// exactly the resource the paper's Section III-B cleanup routine must
/// bound when asynchronous I/OAT copies keep skbuffs alive long after the
/// bottom half returned.
class Skbuff {
 public:
  Skbuff() = default;

  [[nodiscard]] const Payload* payload() const {
    return state_ ? state_->frame.payload.get() : nullptr;
  }
  [[nodiscard]] std::uint32_t csum() const {
    return state_ ? state_->frame.csum : 0;
  }
  [[nodiscard]] int src_node() const { return state_ ? state_->frame.src_node : -1; }
  [[nodiscard]] bool valid() const { return static_cast<bool>(state_); }

  /// Typed view of the payload; throws on type mismatch.
  template <typename T>
  [[nodiscard]] const T& as() const {
    const auto* p = dynamic_cast<const T*>(payload());
    if (!p) throw std::logic_error("Skbuff: payload type mismatch");
    return *p;
  }

  /// Explicitly returns the ring slot (also happens when the last copy of
  /// this handle is destroyed).
  void release() { state_.reset(); }

 private:
  friend class Nic;
  struct State {
    Frame frame;
    std::function<void()> on_free;
    ~State() {
      if (on_free) on_free();
    }
  };
  explicit Skbuff(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

/// One Ethernet NIC: a transmit path serialized at line rate and a receive
/// path that DMAs frames into ring skbuffs and hands them to a registered
/// callback from interrupt/bottom-half context.
///
/// This is the generic-hardware receive model the paper describes: the
/// driver cannot know which message a frame belongs to before it arrives,
/// so zero-copy receive into application buffers is impossible and every
/// frame lands in a ring skbuff first (Section II-B).
class Nic {
 public:
  /// Callback invoked (from engine context, after the modeled interrupt
  /// cost on `bh_core`) for each received frame.
  using RxCallback = std::function<void(Skbuff)>;

  Nic(sim::Engine& engine, cpu::Machine& machine, mem::MemBus& bus,
      int node_id, int bh_core)
      : engine_(engine),
        machine_(machine),
        bus_(bus),
        node_id_(node_id),
        bh_core_(bh_core) {
    // Interned once: deliver() runs per frame and must not do map lookups.
    c_rx_frames_ = &counters_.counter("nic.rx_frames");
    c_rx_bytes_ = &counters_.counter("nic.rx_bytes");
    c_ring_drops_ = &counters_.counter("nic.rx_ring_drops");
  }

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] int node_id() const { return node_id_; }
  [[nodiscard]] int bh_core() const { return bh_core_; }
  void set_rx_callback(RxCallback cb) { rx_cb_ = std::move(cb); }
  [[nodiscard]] std::size_t rx_ring_in_use() const { return ring_in_use_; }
  [[nodiscard]] const sim::Counters& counters() const { return counters_; }
  [[nodiscard]] sim::Counters& counters() { return counters_; }

 private:
  friend class Network;

  /// Network delivers a frame: claim a ring slot, model the NIC's DMA into
  /// host memory, then schedule the interrupt bottom half.
  void deliver(const Frame& frame, const NetParams& params) {
    if (ring_in_use_ >= params.rx_ring_slots) {
      c_ring_drops_->add();
      return;
    }
    ++ring_in_use_;
    c_rx_frames_->add();
    c_rx_bytes_->add(frame.wire_bytes);
    auto state = std::make_shared<Skbuff::State>();
    state->frame = frame;
    state->on_free = [this] { --ring_in_use_; };
    // Interrupt entry + bottom-half dispatch occupy the BH core before the
    // protocol callback runs.
    machine_.submit_fixed(bh_core_, cpu::Cat::BottomHalf, params.intr_ns,
                          [this, state = std::move(state)]() mutable {
                            if (rx_cb_) rx_cb_(Skbuff{std::move(state)});
                          });
  }

  sim::Engine& engine_;
  cpu::Machine& machine_;
  mem::MemBus& bus_;
  int node_id_;
  const int bh_core_;
  RxCallback rx_cb_;
  std::size_t ring_in_use_ = 0;
  sim::Counters counters_;
  obs::Counter* c_rx_frames_ = nullptr;
  obs::Counter* c_rx_bytes_ = nullptr;
  obs::Counter* c_ring_drops_ = nullptr;
};

/// One frame's pending reservation of a destination rx port.
///
/// The claim becomes eligible at `claim_time` = wire-arrival minus its
/// own serialization time — the earliest instant the port could start
/// taking this frame.  Claims on one port are served in the total order
/// (claim_time, src_node, src_seq), a key that exists identically in a
/// single-engine and a partitioned run, which is what makes the two
/// modes bit-identical (see DESIGN.md "Multi-LP execution").
struct RxClaim {
  sim::Time claim_time = 0;
  std::uint32_t src_node = 0;
  std::uint64_t src_seq = 0;   // per-source transmit counter (dups included)
  sim::Time ser = 0;           // rx-port serialization time
  sim::Time extra_delay = 0;   // fault-injected fabric delay, post-port
  Frame frame;
};

/// The cable(s): point-to-point full-duplex links between every pair of
/// attached NICs, each serialized at 10 GbE line rate on both the transmit
/// and the receive side.
///
/// Receive-port arbitration runs through per-destination claim heaps: a
/// transmit computes its claim time from sender-local state only (tx
/// port, wire latency) and enqueues an RxClaim; a Band::kClaim engine
/// event at that time pops the heap minimum and reserves the port.
/// Because the heap orders claims by a location-independent key, the
/// arbitration result does not depend on which engine executed the
/// transmit — so the Network can be sharded across logical processes
/// (one shard per LP via bind_partition) with remote claims carried as
/// timestamped LpMessages, and deliver bit-identical timing to the
/// sequential single-engine run.
class Network {
 public:
  Network(sim::Engine& engine, NetParams params = {})
      : engine_(engine), params_(params) {
    c_tx_frames_ = &counters_.counter("net.tx_frames");
    c_dropped_ = &counters_.counter("net.dropped_frames");
    c_fault_drops_ = &counters_.counter("net.fault_drops");
    c_fault_dups_ = &counters_.counter("net.fault_dup_frames");
    c_fault_delayed_ = &counters_.counter("net.fault_delayed");
    c_fault_corrupt_ = &counters_.counter("net.fault_corrupted");
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const NetParams& params() const { return params_; }

  /// Installs (or clears, with nullptr) the scripted fault injector.  No
  /// injector means the transmit path is byte-for-byte the pre-fault one.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }
  [[nodiscard]] FaultInjector* fault_injector() const { return faults_; }

  void attach(Nic& nic) {
    const auto id = static_cast<std::size_t>(nic.node_id());
    if (nics_.size() <= id) grow(id + 1);
    nics_[id] = &nic;
  }

  /// Multi-LP wiring: this instance becomes `lp`'s shard of the fabric.
  /// `lp_of_node` maps every node id to its LP; `shards` holds every
  /// shard indexed by LP id (including this one).  Only NICs of local
  /// nodes may be attached to a shard; a transmit to a remote node posts
  /// its rx-port claim to the destination shard as an LpMessage.  Must
  /// be called before the first transmit.
  void bind_partition(sim::Lp& lp, std::vector<int> lp_of_node,
                      std::vector<Network*> shards) {
    lp_ = &lp;
    lp_of_node_ = std::move(lp_of_node);
    shards_ = std::move(shards);
    grow(lp_of_node_.size());
  }

  /// Transmits `frame`; caller has already charged host-side send costs.
  /// The frame occupies the sender's tx port, crosses the wire, then
  /// occupies the receiver's rx port (which is also where the NIC's DMA
  /// into host memory is accounted for bus-contention purposes).
  void transmit(Frame frame) {
    OMX_WALL_ZONE("net.transmit");
    if (frame.wire_bytes > params_.mtu + 64)
      throw std::logic_error("Network: frame exceeds MTU");
    const auto src = static_cast<std::size_t>(frame.src_node);
    const auto dst = static_cast<std::size_t>(frame.dst_node);
    if (src >= nics_.size() || !nics_[src] || !node_known(dst))
      throw std::logic_error("Network: unattached node");

    c_tx_frames_->add();
    const std::size_t wire_total = frame.wire_bytes + params_.frame_overhead;
    const sim::Time ser = sim::duration_for_bytes(wire_total, params_.wire_bw);
    const sim::Time tx_start = std::max(engine_.now(), tx_free_[src]);
    tx_free_[src] = tx_start + ser;

    // Scripted faults see every frame in transmit order (deterministic
    // occurrence counting), before the uniform Bernoulli loss draw.
    FaultDecision fd;
    if (faults_) fd = faults_->on_transmit(frame);
    if (fd.drop) {
      c_fault_drops_->add();
      return;
    }
    if (fd.corrupt) {
      // Damage the wire image: the receiver recomputes the header
      // checksum of the unchanged payload object, compares it against
      // this flipped copy, and discards.
      frame.csum ^= 0xDEADBEEFu;
      c_fault_corrupt_->add();
    }
    if (fd.delay_ns > 0) c_fault_delayed_->add();

    // The Bernoulli loss stream is per source node (seeded from
    // loss_seed and the node id), so draws depend only on the sender's
    // own transmit order — identical sequentially and partitioned.
    if (params_.loss_prob > 0.0 &&
        loss_rng(src).chance(params_.loss_prob)) {
      c_dropped_->add();
      return;
    }

    // Earliest instant the rx port could start serializing this frame:
    // its first byte arrives one wire latency after the tx port started
    // sending it.  claim_time >= now + latency — the lookahead guarantee.
    const sim::Time claim_time = tx_start + params_.latency_ns;
    RxClaim claim{claim_time, static_cast<std::uint32_t>(src),
                  tx_seq_[src]++, ser, fd.delay_ns, frame};
    route_claim(dst, claim);

    for (int i = 0; i < fd.duplicates; ++i) {
      // Each duplicate is a real extra frame: it serializes on the rx
      // port again behind everything already queued there.
      RxClaim dup = claim;
      dup.src_seq = tx_seq_[src]++;
      c_fault_dups_->add();
      route_claim(dst, dup);
    }
  }

  /// Full wire-time of a frame of `wire_bytes`, for analytic checks.
  [[nodiscard]] sim::Time serialization_time(std::size_t wire_bytes) const {
    return sim::duration_for_bytes(wire_bytes + params_.frame_overhead,
                                   params_.wire_bw);
  }

  [[nodiscard]] const sim::Counters& counters() const { return counters_; }

 private:
  struct ClaimAfter {
    bool operator()(const RxClaim& a, const RxClaim& b) const {
      if (a.claim_time != b.claim_time) return a.claim_time > b.claim_time;
      if (a.src_node != b.src_node) return a.src_node > b.src_node;
      return a.src_seq > b.src_seq;
    }
  };
  using ClaimHeap =
      std::priority_queue<RxClaim, std::vector<RxClaim>, ClaimAfter>;

  [[nodiscard]] bool node_known(std::size_t node) const {
    if (node < nics_.size() && nics_[node]) return true;
    // Partitioned: a remote node is addressable without a local NIC.
    return lp_ && node < lp_of_node_.size();
  }

  [[nodiscard]] bool node_local(std::size_t node) const {
    return !lp_ || (node < lp_of_node_.size() &&
                    lp_of_node_[node] == lp_->id());
  }

  sim::Rng& loss_rng(std::size_t src) {
    if (loss_rng_.size() <= src) {
      loss_rng_.reserve(src + 1);
      for (std::size_t i = loss_rng_.size(); i <= src; ++i)
        loss_rng_.emplace_back(sim::sweep_seed(params_.loss_seed, i));
    }
    return loss_rng_[src];
  }

  void grow(std::size_t n) {
    if (nics_.size() < n) nics_.resize(n, nullptr);
    if (tx_free_.size() < n) tx_free_.resize(n, 0);
    if (rx_free_.size() < n) rx_free_.resize(n, 0);
    if (tx_seq_.size() < n) tx_seq_.resize(n, 0);
    if (claims_.size() < n) claims_.resize(n);
  }

  void route_claim(std::size_t dst, RxClaim claim) {
    if (node_local(dst)) {
      accept_claim(dst, std::move(claim));
      return;
    }
    Network* peer = shards_.at(
        static_cast<std::size_t>(lp_of_node_[dst]));
    sim::LpMessage msg;
    msg.when = claim.claim_time;
    msg.origin = claim.src_node;
    msg.seq = claim.src_seq;
    msg.apply = [peer, dst, claim = std::move(claim)]() mutable {
      peer->accept_claim(dst, std::move(claim));
    };
    lp_->post(lp_of_node_[dst], std::move(msg));
  }

  /// Enqueues a claim on the destination port and arms its service
  /// event.  One Band::kClaim event fires per claim; each pops the heap
  /// minimum, so claims are served in key order no matter how their
  /// events interleave with anything else at the same nanosecond.
  void accept_claim(std::size_t dst, RxClaim claim) {
    const sim::Time when = claim.claim_time;
    claims_[dst].push(std::move(claim));
    engine_.schedule_at(when, sim::Band::kClaim,
                        [this, dst] { process_claim(dst); });
  }

  void process_claim(std::size_t dst) {
    OMX_WALL_ZONE("net.rx_claim");
    ClaimHeap& heap = claims_[dst];
    assert(!heap.empty() && heap.top().claim_time == engine_.now());
    RxClaim c = heap.top();
    heap.pop();
    const sim::Time rx_start = std::max(engine_.now(), rx_free_[dst]);
    const sim::Time rx_end = rx_start + c.ser;
    rx_free_[dst] = rx_end;

    // A delayed frame is held back in the fabric *after* clearing the rx
    // port, so later frames overtake it: bounded reordering without
    // head-of-line blocking the stream behind it.  One delivery event per
    // frame: the closure must stay inside EventFn's inline buffer, so the
    // NIC is looked up when it fires rather than captured.
    auto delivery = [this, frame = std::move(c.frame)] {
      Nic* dnic = nics_[static_cast<std::size_t>(frame.dst_node)];
      // The NIC is writing this frame into host memory right up to now;
      // the bus stays loaded while the stream continues (descriptor
      // fetches, the next frames already crossing the wire), so the
      // contention window extends a few microseconds past each delivery.
      dnic->bus_.note_nic_dma_until(engine_.now() + 6 * sim::kMicrosecond);
      dnic->deliver(frame, params_);
    };
    static_assert(sim::EventFn::fits_inline<decltype(delivery)>(),
                  "the per-frame delivery closure must not heap-allocate");
    engine_.schedule_at(rx_end + c.extra_delay, std::move(delivery));
  }

  sim::Engine& engine_;
  NetParams params_;
  FaultInjector* faults_ = nullptr;
  std::vector<Nic*> nics_;
  std::vector<sim::Time> tx_free_;
  std::vector<sim::Time> rx_free_;
  std::vector<std::uint64_t> tx_seq_;
  std::vector<ClaimHeap> claims_;
  std::vector<sim::Rng> loss_rng_;
  sim::Lp* lp_ = nullptr;             // null = unpartitioned (single engine)
  std::vector<int> lp_of_node_;
  std::vector<Network*> shards_;
  sim::Counters counters_;
  obs::Counter* c_tx_frames_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_fault_drops_ = nullptr;
  obs::Counter* c_fault_dups_ = nullptr;
  obs::Counter* c_fault_delayed_ = nullptr;
  obs::Counter* c_fault_corrupt_ = nullptr;
};

}  // namespace openmx::net
