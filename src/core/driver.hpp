#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/events.hpp"
#include "core/node.hpp"
#include "core/params.hpp"
#include "core/seglist.hpp"
#include "core/wire.hpp"
#include "cpu/machine.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/sim_thread.hpp"
#include "sim/stats.hpp"
#include "mem/pinning.hpp"

namespace openmx::core {

/// Driver-side state of one open endpoint: the event ring shared with the
/// user library, the wait queue of sleeping library threads, and the
/// per-peer reliability state.
class DriverEndpoint {
 public:
  DriverEndpoint(int node, std::uint16_t id) : addr_{node, id} {}

  [[nodiscard]] Addr addr() const { return addr_; }
  [[nodiscard]] bool has_events() const { return !events_.empty(); }

  /// Pops the oldest event; caller (the library) charges the fetch cost.
  Event pop_event() {
    Event e = std::move(events_.front());
    events_.pop_front();
    return e;
  }

  [[nodiscard]] sim::WaitQueue& waitq() { return waitq_; }

 private:
  friend class Driver;

  /// Reassembly/acknowledgment state of one incoming eager message.
  struct EagerRx {
    std::vector<bool> got;
    std::size_t received = 0;
    // ioat_medium_overlap extension: events held back until the whole
    // message arrived (single completion report), with the skbuffs kept
    // alive while their asynchronous ring copies are in flight.
    // pending[i] is the in-flight copy of held[i]'s ring slot: the cookie
    // range [first, last] lets the completion wait detect an injected
    // descriptor failure and redo that fragment's copy with the CPU.
    struct PendingCopy {
      net::Skbuff skb;
      std::uint64_t first = 0;
      std::uint64_t last = 0;
    };
    int chan = -1;
    std::vector<Event> held;
    std::vector<PendingCopy> pending;
  };

  /// Per-(remote endpoint) receive flow: which eager messages are in
  /// flight and which recently completed (for retransmission dedup).
  struct RxFlow {
    std::map<std::uint32_t, EagerRx> active;   // msg_seq -> state
    std::set<std::uint32_t> completed;         // recently completed seqs
    std::set<std::uint32_t> known_rndv;        // rndv seqs already reported
    std::set<std::uint32_t> aborted;           // pulls given up on
  };

  Addr addr_;
  std::deque<Event> events_;
  sim::WaitQueue waitq_;
  std::map<std::uint64_t, RxFlow> rx_flows_;  // key: packed remote addr
  std::uint32_t next_msg_seq_ = 1;            // per-endpoint send sequence
};

/// The Open-MX kernel driver of one node.
///
/// Owns every kernel-side mechanism of the paper:
///  - the receive callback invoked from the interrupt bottom half, with
///    the eager ring-copy path and the large-message pull protocol
///    (Sections II-B, III-A);
///  - the I/OAT copy-offload integration: asynchronous offload of large
///    fragments with bounded skbuff tracking and the periodic cleanup
///    routine (Sections III-A/III-B), optional synchronous offload of
///    medium copies and of the intra-node one-copy path (Section III-C);
///  - registration (pinning) with an optional registration cache
///    (Section IV-D);
///  - retransmission timers for eager messages, rendezvous and pull
///    blocks (Section III-B mentions the timeout path explicitly).
///
/// With `config.native_mx` set, the same protocol engine models the
/// native MX/MXoE stack instead: the NIC firmware places data directly
/// (no bottom-half copies) and sends bypass the kernel.
class Driver {
 public:
  Driver(Node& node, OmxConfig config);

  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] const OmxConfig& config() const { return config_; }
  [[nodiscard]] sim::Counters& counters() { return counters_; }
  [[nodiscard]] mem::RegCache& regcache() { return regcache_; }

  /// Opens endpoint `id` on this node.
  DriverEndpoint& open_endpoint(std::uint16_t id);
  [[nodiscard]] DriverEndpoint* find_endpoint(std::uint16_t id);

  // ----- commands issued by the user library (syscall context) -----
  //
  // The library wrapper charges syscall entry + command-post costs and the
  // pinning cost returned by pin_cost(); these methods perform the
  // protocol work and any additional timed work they trigger.

  /// Sends an eager (tiny/small/medium) message.  Completion is reported
  /// as a SendDone event carrying `request_id` once the receiver acked.
  void cmd_send_eager(DriverEndpoint& ep, const SegList& segs, Addr dst,
                      std::uint64_t match, std::uint64_t request_id);

  /// Starts a large-message rendezvous.  SendDone arrives after the
  /// receiver pulled everything and acked.
  void cmd_send_rndv(DriverEndpoint& ep, const SegList& segs, Addr dst,
                     std::uint64_t match, std::uint64_t request_id);

  /// Posts an intra-node message; the receiver gets a LocalMsg event and
  /// performs the single copy via cmd_local_copy.
  void cmd_send_local(DriverEndpoint& ep, const SegList& segs, Addr dst,
                      std::uint64_t match, std::uint64_t request_id);

  /// Receiver side of a matched rendezvous: registers the target region
  /// and starts pulling.  Returns the pull handle (also the request_id
  /// reported by the eventual LargeRecvDone event).
  void cmd_pull(DriverEndpoint& ep, const SegList& segs, Addr src,
                std::uint32_t src_handle, std::uint32_t msg_seq,
                std::uint64_t request_id);

  /// Receiver side of a matched intra-node message: performs the one copy
  /// from the source process's buffer into `dst` inside this syscall,
  /// blocking the calling thread for the copy duration (memcpy or
  /// synchronous I/OAT, Section III-C).  Returns bytes copied.
  std::size_t cmd_local_copy(sim::SimThread& thread, int core,
                             std::uint32_t local_handle,
                             const SegList& dst);

  /// Pinning cost for a region, honoring the registration cache.  The
  /// library charges this to driver-syscall time before posting the
  /// command.  With `overlap_registration`, only the head of the region is
  /// pinned synchronously and the rest is charged concurrently.
  [[nodiscard]] sim::Time pin_cost_sync(const void* buf, std::size_t len);
  [[nodiscard]] sim::Time pin_cost_sync(const SegList& segs);

  /// Number of skbuffs currently held alive waiting for asynchronous
  /// I/OAT copies (Section III-B resource bound; tests assert on this).
  [[nodiscard]] std::size_t pending_offload_skbuffs() const;

  /// Startup auto-tuning of the offload thresholds (Section VI future
  /// work): picks min-fragment/min-message sizes from the cost models.
  void autotune_thresholds();

 private:
  // ----- receive path (bottom-half context) -----
  void rx(net::Skbuff skb);
  struct BhCtx;  // accumulated cost + deferred effects of one BH handler
  void bh_eager(BhCtx& ctx, net::Skbuff& skb);
  void bh_rndv(BhCtx& ctx, net::Skbuff& skb);
  void bh_pull_req(BhCtx& ctx, net::Skbuff& skb);
  void bh_pull_reply(BhCtx& ctx, net::Skbuff& skb);
  void bh_msg_ack(BhCtx& ctx, net::Skbuff& skb);
  void bh_large_ack(BhCtx& ctx, net::Skbuff& skb);
  void bh_nack(BhCtx& ctx, net::Skbuff& skb);

  // ----- sender-side large-message state -----
  struct SendRegion {
    std::uint32_t handle = 0;
    DriverEndpoint* ep = nullptr;
    SegList segs;
    std::size_t len = 0;
    Addr dst;
    std::uint64_t match = 0;
    std::uint32_t msg_seq = 0;
    std::uint64_t request_id = 0;
    bool first_pull_seen = false;
    int retries = 0;
    sim::Time last_activity = 0;  // last pull request seen
    sim::EventHandle rndv_timer;
  };

  // ----- sender-side eager reliability state -----
  struct EagerTx {
    DriverEndpoint* ep = nullptr;
    SegList segs;
    std::size_t len = 0;
    Addr dst;
    std::uint64_t match = 0;
    std::uint32_t msg_seq = 0;
    std::uint64_t request_id = 0;
    int retries = 0;
    sim::EventHandle timer;
  };

  // ----- receiver-side pull state -----
  struct PendingSkb {
    net::Skbuff skb;
    int chan = -1;
    std::uint64_t cookie = 0;        // last cookie of this fragment's chunks
    std::uint64_t first_cookie = 0;  // first cookie (consecutive on chan)
  };
  struct PullHandle {
    std::uint32_t handle = 0;
    DriverEndpoint* ep = nullptr;
    SegList segs;
    std::size_t len = 0;
    Addr src;
    std::uint32_t src_handle = 0;
    std::uint32_t msg_seq = 0;
    std::uint64_t request_id = 0;
    std::size_t frag_count = 0;
    std::vector<bool> got;
    std::size_t received = 0;
    std::uint32_t next_block = 0;   // next block index to request
    std::uint32_t blocks_total = 0;
    std::vector<PendingSkb> pending;  // skbuffs awaiting I/OAT completion
    std::vector<int> channels;        // I/OAT channels used by this message
    int next_channel_slot = 0;
    std::size_t head_copied = 0;      // cache_warm_head bytes done via memcpy
    int retries = 0;
    std::size_t last_progress = 0;    // received count at last timer fire
    sim::Time started_at = 0;         // cmd_pull time, for the latency hist
    sim::Time last_block_done = 0;    // when the previous block completed
    sim::Time srtt = 0;               // smoothed block service time
    sim::EventHandle block_timer;
  };

  // ----- intra-node messages awaiting their one-copy syscall -----
  struct LocalMsg {
    std::uint32_t handle = 0;
    DriverEndpoint* src_ep = nullptr;
    SegList segs;
    std::size_t len = 0;
    std::uint64_t request_id = 0;
  };

  // ----- helpers -----
  void transmit(Addr src_ep_addr, Addr dst, std::shared_ptr<OmxPkt> pkt,
                std::size_t data_bytes);
  void push_event(DriverEndpoint& ep, Event ev);
  void send_pull_req(PullHandle& h, std::uint32_t block);
  void arm_block_timer(PullHandle& h);
  void arm_rndv_timer(std::uint32_t handle);
  void arm_eager_timer(std::uint32_t seq);
  void send_eager_frags(const EagerTx& t);
  void cleanup_pull(PullHandle& h);
  void finish_pull(BhCtx& ctx, PullHandle& h);
  std::uint64_t flow_key(Addr a) const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.node))
            << 16) |
           a.endpoint;
  }
  [[nodiscard]] bool offload_large(std::size_t msg_len,
                                   std::size_t frag_len) const;
  [[nodiscard]] sim::Time bh_copy_cost(std::size_t len,
                                       std::size_t chunk) const;

  Node& node_;
  OmxConfig config_;
  mem::RegCache regcache_;
  sim::Counters counters_;

  // Typed trace-event ids, interned once at construction; the hot paths
  // below then emit fixed-size records without building strings.
  obs::EventId tid_wire_tx_{};
  obs::EventId tid_pull_start_{};
  obs::EventId tid_pull_done_{};

  // Hot-path counter handles (one interning at construction, plain
  // increments afterwards; ISSUE: no string-keyed map lookups on the
  // descriptor-submit or packet-dispatch paths).
  obs::Counter* c_pulls_started_ = nullptr;
  obs::Counter* c_pulls_finished_ = nullptr;
  obs::Counter* c_pull_reqs_ = nullptr;
  obs::Counter* c_pull_replies_ = nullptr;
  obs::Counter* c_large_ioat_bytes_ = nullptr;
  obs::Counter* c_large_memcpy_bytes_ = nullptr;
  obs::Counter* c_medium_overlap_bytes_ = nullptr;
  obs::Counter* c_medium_ioat_bytes_ = nullptr;
  obs::Counter* c_eager_sent_ = nullptr;
  obs::Counter* c_nacks_sent_ = nullptr;
  obs::Counter* c_cleanup_runs_ = nullptr;
  obs::Counter* c_csum_drops_ = nullptr;
  obs::Counter* c_dma_faults_ = nullptr;
  obs::Counter* c_dma_fallback_bytes_ = nullptr;

  // Per-message pull latency histogram (ns), fed on finish_pull.
  obs::Histogram* h_pull_ns_ = nullptr;

  std::map<std::uint16_t, std::unique_ptr<DriverEndpoint>> endpoints_;
  std::map<std::uint32_t, SendRegion> send_regions_;
  std::map<std::uint32_t, EagerTx> eager_tx_;
  std::map<std::uint32_t, std::unique_ptr<PullHandle>> pulls_;
  std::map<std::uint32_t, LocalMsg> local_msgs_;
  std::uint32_t next_handle_ = 1;
  std::uint32_t next_eager_id_ = 1;
};

}  // namespace openmx::core
