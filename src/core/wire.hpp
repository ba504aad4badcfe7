#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace openmx::core {

/// Open-MX wire protocol header sizes (bytes on the wire, charged to the
/// link model on top of the payload).
inline constexpr std::size_t kOmxHeaderBytes = 32;

/// Endpoint address on the fabric.
struct Addr {
  int node = -1;
  std::uint16_t endpoint = 0;

  bool operator==(const Addr&) const = default;
};

/// Packet types of the Open-MX wire protocol (Section II/III).
enum class PktType : std::uint8_t {
  EagerFrag,   // tiny/small/medium message fragment, copied via the ring
  Rndv,        // large-message rendezvous announcement
  PullReq,     // receiver requests one block of large-message fragments
  PullReply,   // one large-message fragment, copied straight to the target
  MsgAck,      // receiver acknowledges a fully received eager message
  LargeAck,    // receiver acknowledges a fully pulled large message
  Nack,        // destination endpoint does not exist (fail fast)
};

/// Base of every Open-MX frame payload.
struct OmxPkt : net::Payload {
  PktType type;
  std::uint16_t src_ep = 0;
  std::uint16_t dst_ep = 0;

  explicit OmxPkt(PktType t) : type(t) {}
};

/// Fragment of an eager (tiny/small/medium) message.  `data` holds the
/// actual payload bytes: the sender attaches its pinned user pages to the
/// skbuff and the NIC gathers them, so building the frame costs the sender
/// no copy (Section II-A) — the bytes here stand in for the wire transfer.
struct EagerFragPkt : OmxPkt {
  EagerFragPkt() : OmxPkt(PktType::EagerFrag) {}
  std::uint64_t match_info = 0;
  std::uint32_t msg_seq = 0;
  std::uint32_t msg_len = 0;
  std::uint16_t frag_idx = 0;
  std::uint16_t frag_count = 1;
  std::uint32_t offset = 0;
  std::vector<std::uint8_t> data;
};

/// Large-message rendezvous: no data, just the match information and the
/// sender-side pull handle the receiver will pull from.
struct RndvPkt : OmxPkt {
  RndvPkt() : OmxPkt(PktType::Rndv) {}
  std::uint64_t match_info = 0;
  std::uint32_t msg_seq = 0;
  std::uint32_t msg_len = 0;
  std::uint32_t src_handle = 0;
};

/// Receiver-driven request for one block of fragments.
struct PullReqPkt : OmxPkt {
  PullReqPkt() : OmxPkt(PktType::PullReq) {}
  std::uint32_t src_handle = 0;   // sender-side region handle
  std::uint32_t dst_handle = 0;   // receiver-side pull handle
  std::uint32_t frag_start = 0;   // first fragment index of the block
  std::uint32_t frag_count = 0;
};

/// One large-message fragment flowing back to the receiver.
///
/// The send side is zero-copy (Section II-A): the driver attaches the
/// pinned user pages to the reply skbuff, so `pages` points straight into
/// the sender's send region whenever the fragment is one contiguous piece
/// of it.  Only a fragment that straddles an isendv segment boundary is
/// gathered into `data`, standing in for the NIC's gather DMA.  The
/// receiver reads the bytes only while its pull is live, and the sender
/// keeps the region pinned until the pull's LargeAck or a Nack (DESIGN §3).
struct PullReplyPkt : OmxPkt {
  PullReplyPkt() : OmxPkt(PktType::PullReply) {}
  std::uint32_t dst_handle = 0;
  std::uint32_t frag_idx = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  const std::uint8_t* pages = nullptr;
  std::vector<std::uint8_t> data;

  /// The fragment's `length` bytes, wherever they live.
  [[nodiscard]] const std::uint8_t* bytes() const {
    return pages ? pages : data.data();
  }
};

/// Acknowledgment of a completed eager message (reliability).
struct MsgAckPkt : OmxPkt {
  MsgAckPkt() : OmxPkt(PktType::MsgAck) {}
  std::uint32_t msg_seq = 0;
};

/// Acknowledgment of a completed large-message pull (sender completion).
/// `failed` reports a receiver-side abort (pull retries exhausted).
struct LargeAckPkt : OmxPkt {
  LargeAckPkt() : OmxPkt(PktType::LargeAck) {}
  std::uint32_t src_handle = 0;
  std::uint32_t msg_seq = 0;
  bool failed = false;
};

/// "No such endpoint": lets senders fail fast instead of retrying into
/// the void (the moral equivalent of ICMP port-unreachable).
struct NackPkt : OmxPkt {
  NackPkt() : OmxPkt(PktType::Nack) {}
  std::uint32_t msg_seq = 0;
  std::uint32_t src_handle = 0;  // nonzero for rendezvous announcements
};

/// On-the-wire size of a frame carrying `data_bytes` of payload.
inline std::size_t wire_bytes_for(std::size_t data_bytes) {
  return kOmxHeaderBytes + data_bytes;
}

/// Wire checksum: 64-bit FNV-1a over the OMX header fields of `pkt`, not
/// its payload bytes, folded to 32 bits.  The sender stamps it into
/// net::Frame::csum; the receiver recomputes and discards on mismatch,
/// which is how injected wire corruption is detected and turned into an
/// ordinary retransmission.  Payloads are shared and immutable, and
/// corruption is modeled by flipping the carried checksum
/// (net::Network::transmit), so hashing the data bytes could detect
/// nothing more; payload integrity is the soak's byte-exact delivery
/// check.  Each header field is mixed in one xor-multiply step, so the
/// cost is one multiply per field, independent of the fragment size.
inline std::uint32_t pkt_checksum(const OmxPkt& pkt) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  mix(static_cast<std::uint64_t>(pkt.type));
  mix(pkt.src_ep);
  mix(pkt.dst_ep);
  switch (pkt.type) {
    case PktType::EagerFrag: {
      const auto& p = static_cast<const EagerFragPkt&>(pkt);
      mix(p.match_info);
      mix(p.msg_seq);
      mix(p.msg_len);
      mix(p.frag_idx);
      mix(p.frag_count);
      mix(p.offset);
      break;
    }
    case PktType::Rndv: {
      const auto& p = static_cast<const RndvPkt&>(pkt);
      mix(p.match_info);
      mix(p.msg_seq);
      mix(p.msg_len);
      mix(p.src_handle);
      break;
    }
    case PktType::PullReq: {
      const auto& p = static_cast<const PullReqPkt&>(pkt);
      mix(p.src_handle);
      mix(p.dst_handle);
      mix(p.frag_start);
      mix(p.frag_count);
      break;
    }
    case PktType::PullReply: {
      const auto& p = static_cast<const PullReplyPkt&>(pkt);
      mix(p.dst_handle);
      mix(p.frag_idx);
      mix(p.offset);
      mix(p.length);
      break;
    }
    case PktType::MsgAck:
      mix(static_cast<const MsgAckPkt&>(pkt).msg_seq);
      break;
    case PktType::LargeAck: {
      const auto& p = static_cast<const LargeAckPkt&>(pkt);
      mix(p.src_handle);
      mix(p.msg_seq);
      mix(static_cast<std::uint64_t>(p.failed));
      break;
    }
    case PktType::Nack: {
      const auto& p = static_cast<const NackPkt&>(pkt);
      mix(p.msg_seq);
      mix(p.src_handle);
      break;
    }
  }
  const auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
  // 0 means "no checksum"; remap the (1-in-4-billion) real zero.
  return folded ? folded : 1u;
}

}  // namespace openmx::core
