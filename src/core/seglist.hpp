#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace openmx::core {

/// One segment of a vectorial (iovec-style) application buffer, as in
/// mx_isend's segment list.
struct IoVec {
  std::uint8_t* base = nullptr;
  std::size_t len = 0;
};

/// A scatter/gather view over an application buffer.
///
/// Highly-vectorial buffers are the case the paper's Section IV-A calls
/// out: every copy is split at segment (and page) boundaries, so small
/// segments inflate the number of I/OAT descriptors per fragment and can
/// push a copy under the offload-profitability threshold.
class SegList {
 public:
  SegList() = default;

  /// Contiguous buffer as a single segment.
  SegList(void* base, std::size_t len) {
    if (len) segs_.push_back(IoVec{static_cast<std::uint8_t*>(base), len});
    total_ = len;
  }

  SegList(const IoVec* segs, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (segs[i].len == 0) continue;
      segs_.push_back(segs[i]);
      total_ += segs[i].len;
    }
  }

  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] std::size_t segment_count() const { return segs_.size(); }

  /// Calls `fn(ptr, len)` for each contiguous piece of [offset, offset+n),
  /// clipped to the list's extent.
  template <typename F>
  void for_pieces(std::size_t offset, std::size_t n, F&& fn) const {
    std::size_t pos = 0;
    for (const IoVec& s : segs_) {
      if (n == 0) break;
      const std::size_t seg_end = pos + s.len;
      if (seg_end > offset) {
        const std::size_t in_seg = offset - pos;
        const std::size_t take = std::min(n, s.len - in_seg);
        fn(s.base + in_seg, take);
        offset += take;
        n -= take;
      }
      pos = seg_end;
    }
  }

  /// Scatters [src, src+n) into the list at `offset`; returns bytes
  /// actually written (clipped at the end of the list).
  std::size_t write(std::size_t offset, const std::uint8_t* src,
                    std::size_t n) const {
    std::size_t written = 0;
    for_pieces(offset, n, [&](std::uint8_t* p, std::size_t len) {
      std::memcpy(p, src + written, len);
      written += len;
    });
    return written;
  }

  /// Gathers [offset, offset+n) from the list into dst; returns bytes read.
  std::size_t read(std::size_t offset, std::uint8_t* dst,
                   std::size_t n) const {
    std::size_t got = 0;
    for_pieces(offset, n, [&](std::uint8_t* p, std::size_t len) {
      std::memcpy(dst + got, p, len);
      got += len;
    });
    return got;
  }

  /// Address of [offset, offset+n) if that range lies inside one segment,
  /// else nullptr (the range straddles a segment boundary or the end).
  [[nodiscard]] std::uint8_t* contiguous(std::size_t offset,
                                         std::size_t n) const {
    for (const IoVec& s : segs_) {
      if (offset < s.len) return n <= s.len - offset ? s.base + offset : nullptr;
      offset -= s.len;
    }
    return nullptr;
  }

  /// Length of the smallest contiguous piece in [offset, offset+n); the
  /// offload-threshold check compares this against ioat_min_frag.
  [[nodiscard]] std::size_t min_piece(std::size_t offset,
                                      std::size_t n) const {
    std::size_t m = 0;
    bool any = false;
    for_pieces(offset, n, [&](std::uint8_t*, std::size_t len) {
      m = any ? std::min(m, len) : len;
      any = true;
    });
    return any ? m : 0;
  }

  /// Number of DMA descriptors needed to copy [offset, offset+n): one per
  /// piece per `page` bytes (the hardware takes physically contiguous
  /// chunks only).
  [[nodiscard]] std::size_t piece_count(std::size_t offset, std::size_t n,
                                        std::size_t page) const {
    std::size_t count = 0;
    for_pieces(offset, n, [&](std::uint8_t*, std::size_t len) {
      count += (len + page - 1) / page;
    });
    return count;
  }

  /// Clipped byte count available in [offset, offset+n).
  [[nodiscard]] std::size_t clipped(std::size_t offset, std::size_t n) const {
    if (offset >= total_) return 0;
    return std::min(n, total_ - offset);
  }

  /// The list restricted to its first `n` bytes (for truncated pulls).
  [[nodiscard]] SegList prefix(std::size_t n) const {
    SegList out;
    for_pieces(0, n, [&](std::uint8_t* p, std::size_t len) {
      out.segs_.push_back(IoVec{p, len});
      out.total_ += len;
    });
    return out;
  }

  /// Base address of the first segment (registration-cache key).
  [[nodiscard]] const void* first_base() const {
    return segs_.empty() ? nullptr : segs_.front().base;
  }

 private:
  std::vector<IoVec> segs_;
  std::size_t total_ = 0;
};

/// Walks the piecewise intersection of two segment lists: calls
/// `fn(src_ptr, dst_ptr, len)` for each maximal run contiguous in both.
template <typename F>
void for_piece_pairs(const SegList& src, const SegList& dst, std::size_t n,
                     F&& fn) {
  std::vector<IoVec> s, d;
  src.for_pieces(0, n, [&](std::uint8_t* p, std::size_t len) {
    s.push_back(IoVec{p, len});
  });
  dst.for_pieces(0, n, [&](std::uint8_t* p, std::size_t len) {
    d.push_back(IoVec{p, len});
  });
  std::size_t si = 0, di = 0, so = 0, dof = 0;
  while (si < s.size() && di < d.size()) {
    const std::size_t take = std::min(s[si].len - so, d[di].len - dof);
    fn(s[si].base + so, d[di].base + dof, take);
    so += take;
    dof += take;
    if (so == s[si].len) {
      ++si;
      so = 0;
    }
    if (dof == d[di].len) {
      ++di;
      dof = 0;
    }
  }
}

}  // namespace openmx::core
