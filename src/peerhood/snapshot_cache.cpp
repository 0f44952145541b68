#include "peerhood/snapshot_cache.hpp"

#include "net/frame_check.hpp"

namespace peerhood {

bool SnapshotCache::sections_equal(std::uint8_t sections,
                                   const wire::SectionGens& a,
                                   const wire::SectionGens& b) {
  for (const std::uint8_t section : wire::kSectionOrder) {
    if ((sections & section) == 0) continue;
    if (a.of(section) != b.of(section)) return false;
  }
  return true;
}

SnapshotCache::FramePtr SnapshotCache::encode_sections(
    std::uint32_t request_id, std::uint8_t sections,
    const SnapshotSource& src) const {
  // Absent source parts encode as empty, like a default FetchResponse.
  static const DeviceInfo kNoDevice;
  static const std::vector<Technology> kNoPrototypes;
  static const std::vector<ServiceInfo> kNoServices;
  const DeviceInfo& device = src.device != nullptr ? *src.device : kNoDevice;
  const std::vector<Technology>& prototypes =
      src.prototypes != nullptr ? *src.prototypes : kNoPrototypes;
  const std::vector<ServiceInfo>& services =
      src.services != nullptr ? *src.services : kNoServices;
  const bool neighbours = (sections & wire::kSectionNeighbours) != 0 &&
                          src.storage != nullptr;

  // Size pass first, so the buffer is allocated once whatever the storage
  // holds. Each present section is its u32 generation plus its payload.
  std::size_t size = wire::kResponseHeaderSize;
  if ((sections & wire::kSectionDevice) != 0) {
    size += 4 + wire::encoded_size(device);
  }
  if ((sections & wire::kSectionPrototypes) != 0) {
    size += 4 + 1 + prototypes.size();
  }
  if ((sections & wire::kSectionServices) != 0) {
    size += 4 + wire::encoded_size(services);
  }
  if ((sections & wire::kSectionNeighbours) != 0) {
    size += 4 + 2;
    if (neighbours) {
      src.storage->for_each([&size](const DeviceRecord& record) {
        size += wire::snapshot_entry_size(record);
      });
    }
  }

  return net::make_datagram_frame(size, [&](ByteWriter& writer) {
    wire::encode_response_header(writer, request_id, sections,
                                 src.load_percent, src.epoch);
    if ((sections & wire::kSectionDevice) != 0) {
      writer.u32(src.gens.device);
      wire::encode_device(writer, device);
    }
    if ((sections & wire::kSectionPrototypes) != 0) {
      writer.u32(src.gens.prototypes);
      wire::encode_prototypes(writer, prototypes);
    }
    if ((sections & wire::kSectionServices) != 0) {
      writer.u32(src.gens.services);
      wire::encode_services(writer, services);
    }
    if ((sections & wire::kSectionNeighbours) != 0) {
      writer.u32(src.gens.neighbours);
      writer.u16(static_cast<std::uint16_t>(
          neighbours ? src.storage->size() : 0));
      if (neighbours) {
        src.storage->for_each([&writer](const DeviceRecord& record) {
          wire::encode_snapshot_entry(writer, record);
        });
      }
    }
  });
}

SnapshotCache::FramePtr SnapshotCache::respond(
    const wire::FetchRequest& request, const SnapshotSource& src) {
  auto sections =
      static_cast<std::uint8_t>(request.sections & wire::kSectionAll);
  bool delta = false;
  if (request.baseline.has_value() && request.baseline->epoch == src.epoch) {
    // Conditional fetch against a live baseline: ship only what moved.
    std::uint8_t changed = 0;
    for (const std::uint8_t section : wire::kSectionOrder) {
      if ((sections & section) == 0) continue;
      if (request.baseline->gens.of(section) != src.gens.of(section)) {
        changed |= section;
      }
    }
    if (changed == 0) {
      ++stats_.not_modified;
      if (not_modified_ != nullptr && not_modified_load_ == src.load_percent) {
        return not_modified_;
      }
      wire::FetchResponse response;
      response.not_modified = true;
      response.request_id = wire::kSharedRequestId;
      response.load_percent = src.load_percent;
      FramePtr frame = net::make_datagram_frame(
          6, [&response](ByteWriter& writer) {
            wire::encode_into(writer, response);
          });
      not_modified_ = frame;
      not_modified_load_ = src.load_percent;
      return frame;
    }
    // A delta is byte for byte the full response for the sections that
    // moved (only which sections moved depends on the baseline), so it is
    // served from, and fills, that response's shared slot.
    sections = changed;
    delta = true;
  }

  // Full response (no baseline, or the responder restarted since the
  // requester last looked: generations are incomparable) or a delta.
  CachedFull& slot = full_[sections];
  if (slot.frame != nullptr && slot.epoch == src.epoch &&
      slot.load_percent == src.load_percent &&
      sections_equal(sections, slot.gens, src.gens)) {
    ++stats_.full_hits;
    return slot.frame;
  }
  ++(delta ? stats_.deltas : stats_.full_encodes);
  FramePtr frame = encode_sections(wire::kSharedRequestId, sections, src);
  slot.frame = frame;
  slot.gens = src.gens;
  slot.epoch = src.epoch;
  slot.load_percent = src.load_percent;
  return frame;
}

}  // namespace peerhood
