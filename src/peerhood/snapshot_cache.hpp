// Generation-versioned snapshot cache — the responder half of the
// conditional-fetch discovery protocol. The paper's inquiry loop has every
// node periodically fetch every neighbour's DeviceStorage snapshot; encoding
// that snapshot per request makes the discovery round cost O(density ×
// snapshot size). The cache makes it proportional to *change* instead:
//
//  * Full responses are encoded once per (sections, generations, load)
//    combination and kept as a shared immutable buffer; repeat requests at
//    the same generation are answered with a shared_ptr copy — no encode, no
//    buffer allocation, and the radio medium ships the same allocation to
//    every requester (the FramePtr scheme of PR 2).
//  * A request carrying a baseline (the requester's last-seen epoch +
//    per-section generations) is answered with kNotModified — also a shared
//    cached frame — when nothing the requester asked for moved, or with a
//    delta holding only the sections whose generation differs. A delta is
//    the full response for those sections, so it shares that cached frame.
//  * Epoch mismatch (responder restarted, generations regressed) and
//    generation wraparound both degrade safely to a full response because
//    generations are compared for equality only, never ordered.
//
// Shared frames cannot echo a per-request id (the bytes are immutable), so
// they carry wire::kSharedRequestId; requesters match them by peer address.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "discovery/device_storage.hpp"
#include "peerhood/protocol.hpp"

namespace peerhood {

// A view of the responder's advertised state, assembled by the owner per
// request. Pointers stay owned by the caller; `gens` hold the current
// per-section generations and `epoch` the per-start random token that
// invalidates every requester baseline when the responder restarts.
struct SnapshotSource {
  const DeviceInfo* device{nullptr};
  const std::vector<Technology>* prototypes{nullptr};
  const std::vector<ServiceInfo>* services{nullptr};
  const DeviceStorage* storage{nullptr};  // the neighbours section
  wire::SectionGens gens;
  std::uint64_t epoch{0};
  std::uint8_t load_percent{0};
};

class SnapshotCache {
 public:
  using FramePtr = std::shared_ptr<const Bytes>;

  struct Stats {
    std::uint64_t full_hits{0};     // full or delta response from cache
    std::uint64_t full_encodes{0};  // full response (re-)encoded
    std::uint64_t deltas{0};        // delta response (re-)encoded
    std::uint64_t not_modified{0};  // kNotModified served
  };

  // Produces the reply for `request` against `src`: a shared cached full
  // or delta response, or a shared cached kNotModified. Every buffer
  // is a complete sealed datagram frame (net::make_datagram_frame) that the
  // daemon hands to Network::send_datagram as is. Never returns nullptr.
  [[nodiscard]] FramePtr respond(const wire::FetchRequest& request,
                                 const SnapshotSource& src);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct CachedFull {
    FramePtr frame;
    wire::SectionGens gens;
    std::uint64_t epoch{0};
    std::uint8_t load_percent{0};
  };

  // True iff every section in `sections` has equal generations in a and b.
  [[nodiscard]] static bool sections_equal(std::uint8_t sections,
                                           const wire::SectionGens& a,
                                           const wire::SectionGens& b);

  // Encodes a response carrying `sections` straight from `src` — device,
  // prototypes, services and the storage records in place, no intermediate
  // FetchResponse — into one exactly-sized buffer.
  [[nodiscard]] FramePtr encode_sections(std::uint32_t request_id,
                                         std::uint8_t sections,
                                         const SnapshotSource& src) const;

  // One cached full response per requested-sections bitmask (0..15).
  std::array<CachedFull, 16> full_{};
  FramePtr not_modified_;
  std::uint8_t not_modified_load_{0};
  Stats stats_;
};

}  // namespace peerhood
