// Test-support oracle: the materialising fetch-response decoder, which
// copies every neighbours-section entry into an owned NeighbourSnapshotEntry
// (strings and vectors of its own) — the decoder the requester used before
// it integrated entries viewed in the received frame.
//
// The protocol fuzz suite requires wire::decode_fetch_response to accept a
// frame exactly when this one does, with equal entries once materialised;
// tests that read back a decoded neighbourhood use it because the real
// decoder's entries are views that die with their frame. It lives under
// tests/ (bench targets get tests/ on their include path) so no production
// header carries it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "peerhood/protocol.hpp"

namespace peerhood::wire {

namespace reference_detail {

inline Technology decode_technology(ByteReader& reader) {
  const std::uint8_t raw = reader.u8();
  if (raw >= kTechnologyCount) reader.fail();
  return static_cast<Technology>(raw);
}

// A count read off the wire reserves no more than the remaining bytes could
// hold at `min_size` bytes per element.
template <typename T>
void reserve_from_wire(std::vector<T>& out, std::size_t count,
                       const ByteReader& reader, std::size_t min_size) {
  out.reserve(std::min(count, reader.remaining() / min_size));
}

inline void decode_prototypes(ByteReader& reader,
                              std::vector<Technology>& out) {
  const std::size_t count = reader.u8();
  reserve_from_wire(out, count, reader, 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(decode_technology(reader));
  }
}

inline void decode_services(ByteReader& reader,
                            std::vector<ServiceInfo>& out) {
  const std::size_t count = reader.u16();
  reserve_from_wire(out, count, reader, 6);
  for (std::size_t i = 0; i < count && reader.ok(); ++i) {
    out.push_back(decode_service(reader));
  }
}

inline NeighbourSnapshotEntry decode_snapshot_entry(ByteReader& reader) {
  NeighbourSnapshotEntry entry;
  entry.device = decode_device(reader);
  decode_prototypes(reader, entry.prototypes);
  decode_services(reader, entry.services);
  entry.jump = reader.u8();
  entry.bridge = MacAddress::from_u64(reader.u64());
  entry.quality_sum = reader.u16();
  entry.min_link_quality = reader.u8();
  return entry;
}

}  // namespace reference_detail

// Decodes kFetchResponse and kNotModified frames into an owned response, or
// nullopt on malformed input.
inline std::optional<FetchResponse> reference_decode_fetch_response(
    std::span<const std::uint8_t> payload) {
  using namespace reference_detail;
  ByteReader reader{payload};
  const auto command = static_cast<Command>(reader.u8());
  FetchResponse response;
  if (command == Command::kNotModified) {
    response.request_id = reader.u32();
    response.load_percent = reader.u8();
    response.not_modified = true;
    if (!reader.ok()) return std::nullopt;
    return response;
  }
  if (command != Command::kFetchResponse) return std::nullopt;
  response.request_id = reader.u32();
  response.sections = reader.u8();
  if ((response.sections & ~kSectionAll) != 0) return std::nullopt;
  response.load_percent = reader.u8();
  response.epoch = reader.u64();
  if ((response.sections & kSectionDevice) != 0) {
    response.gens.device = reader.u32();
    response.device = decode_device(reader);
  }
  if ((response.sections & kSectionPrototypes) != 0) {
    response.gens.prototypes = reader.u32();
    decode_prototypes(reader, response.prototypes);
  }
  if ((response.sections & kSectionServices) != 0) {
    response.gens.services = reader.u32();
    decode_services(reader, response.services);
  }
  if ((response.sections & kSectionNeighbours) != 0) {
    response.gens.neighbours = reader.u32();
    const std::size_t count = reader.u16();
    reserve_from_wire(response.neighbours, count, reader, 30);
    for (std::size_t i = 0; i < count && reader.ok(); ++i) {
      response.neighbours.push_back(decode_snapshot_entry(reader));
    }
  }
  if (!reader.ok()) return std::nullopt;
  return response;
}

// An owned copy of an entry view, built through the same copy the storage
// makes when it stores a viewed entry's descriptors.
inline NeighbourSnapshotEntry materialise(const SnapshotEntryView& view) {
  DeviceRecord record;
  view.copy_descriptors_to(record);
  NeighbourSnapshotEntry entry;
  entry.device = std::move(record.device);
  entry.prototypes = std::move(record.prototypes);
  entry.services = std::move(record.services);
  entry.jump = view.jump;
  entry.bridge = view.bridge;
  entry.quality_sum = view.quality_sum;
  entry.min_link_quality = view.min_link_quality;
  return entry;
}

}  // namespace peerhood::wire
