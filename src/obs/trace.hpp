#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/time.hpp"

namespace openmx::obs {

/// Coarse event taxonomy.  The category lives on the record as one byte
/// so post-processing can bucket events without touching the string
/// tables; the precise event name is the interned `id`.
enum class Cat : std::uint8_t {
  Wire = 0,  // frame transmissions / arrivals
  Bh,        // bottom-half protocol processing
  Ioat,      // DMA engine activity
  Pull,      // large-message pull protocol lifecycle
  Lib,       // user-library activity
  Other,
};

[[nodiscard]] inline const char* cat_name(Cat c) {
  switch (c) {
    case Cat::Wire: return "wire";
    case Cat::Bh: return "bh";
    case Cat::Ioat: return "ioat";
    case Cat::Pull: return "pull";
    case Cat::Lib: return "lib";
    default: return "other";
  }
}

/// Classify an event name by its prefix ("wire.tx" -> Wire, ...).
[[nodiscard]] inline Cat classify(std::string_view name) {
  if (name.starts_with("wire")) return Cat::Wire;
  if (name.starts_with("bh")) return Cat::Bh;
  if (name.starts_with("ioat") || name.starts_with("dma")) return Cat::Ioat;
  if (name.starts_with("pull")) return Cat::Pull;
  if (name.starts_with("lib")) return Cat::Lib;
  return Cat::Other;
}

/// One trace record: fixed-size POD, no strings, no allocation on the
/// record path.  32 bytes.
struct TraceEvent {
  sim::Time when = 0;
  std::int32_t node = -1;
  Cat cat = Cat::Other;
  std::uint16_t id = 0;  // interned event name
  std::uint64_t a0 = 0;  // event argument
  std::uint64_t a1 = 0;  // event argument
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) == 32);

/// Pre-interned event identity handed out once (at component
/// construction) so the hot path records a u16 + enum with no lookup.
struct EventId {
  std::uint16_t id = 0;
  Cat cat = Cat::Other;
};

/// String interner: name -> dense id, with stable storage for the names
/// (a deque never moves its elements, so the map may key string_views
/// into it).  Interning is idempotent; ids are assigned in first-seen
/// order, which is deterministic for a deterministic simulation.
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  std::uint32_t intern(std::string_view s) {
    auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    names_.emplace_back(s);
    const auto id = static_cast<std::uint32_t>(names_.size() - 1);
    index_.emplace(names_.back(), id);
    return id;
  }

  [[nodiscard]] const std::string& name(std::uint32_t id) const {
    if (id >= names_.size()) throw std::out_of_range("Interner: bad id");
    return names_[id];
  }

  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  std::deque<std::string> names_;
  std::map<std::string_view, std::uint32_t> index_;
};

}  // namespace openmx::obs
