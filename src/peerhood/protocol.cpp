#include "peerhood/protocol.hpp"

#include <algorithm>

namespace peerhood::wire {

std::uint32_t& SectionGens::of(std::uint8_t section_bit) {
  switch (section_bit) {
    case kSectionDevice:
      return device;
    case kSectionPrototypes:
      return prototypes;
    case kSectionServices:
      return services;
    default:
      return neighbours;
  }
}

std::uint32_t SectionGens::of(std::uint8_t section_bit) const {
  return const_cast<SectionGens*>(this)->of(section_bit);
}

namespace {

constexpr std::uint8_t kTrue = 1;
constexpr std::uint8_t kFalse = 0;

// FetchRequest flag bits; unknown bits reject the frame.
constexpr std::uint8_t kRequestFlagBaseline = 1;

// Enum fields are untrusted input like everything else: a byte outside the
// enum's domain fails the reader, so the surrounding decoder returns nullopt
// instead of materialising an enumerator no switch can handle.
Technology decode_technology(ByteReader& reader) {
  const std::uint8_t raw = reader.u8();
  if (raw >= kTechnologyCount) reader.fail();
  return static_cast<Technology>(raw);
}

MobilityClass decode_mobility(ByteReader& reader) {
  switch (reader.u8()) {
    case static_cast<std::uint8_t>(MobilityClass::kStatic):
      return MobilityClass::kStatic;
    case static_cast<std::uint8_t>(MobilityClass::kHybrid):
      return MobilityClass::kHybrid;
    case static_cast<std::uint8_t>(MobilityClass::kDynamic):
      return MobilityClass::kDynamic;
    default:
      reader.fail();
      return MobilityClass::kStatic;
  }
}

void encode_request_body(ByteWriter& writer, const ConnectRequest& request) {
  writer.reserve(16 + request.service.size());
  writer.u64(request.session_id);
  writer.string(request.service);
  if (request.client_params.has_value()) {
    writer.u8(kTrue);
    const ClientParams& params = *request.client_params;
    encode_device(writer, params.device);
    writer.u8(static_cast<std::uint8_t>(params.tech));
    writer.string(params.reconnect_service);
    writer.u16(params.port);
  } else {
    writer.u8(kFalse);
  }
}

ConnectRequest decode_request_body(ByteReader& reader) {
  ConnectRequest request;
  request.session_id = reader.u64();
  request.service = reader.str_view();
  if (reader.u8() == kTrue) {
    ClientParams params;
    params.device = decode_device(reader);
    params.tech = decode_technology(reader);
    params.reconnect_service = reader.str_view();
    params.port = reader.u16();
    request.client_params = std::move(params);
  }
  return request;
}

// Smallest encoded service (two empty strings and the port) and snapshot
// entry (empty strings and lists): they bound the decoders' reserves by the
// bytes actually received.
constexpr std::size_t kMinServiceSize = 6;
constexpr std::size_t kMinSnapshotEntrySize = 30;

// Reserves room for `count` wire elements of at least `min_size` bytes each,
// but never more than the remaining input could hold: the count is
// untrusted, so a lying header cannot make the decoder over-allocate.
template <typename T>
void reserve_from_wire(std::vector<T>& out, std::size_t count,
                       const ByteReader& reader, std::size_t min_size) {
  out.reserve(std::min(count, reader.remaining() / min_size));
}

void decode_prototypes(ByteReader& reader, std::vector<Technology>& out) {
  const std::size_t count = reader.u8();
  reserve_from_wire(out, count, reader, 1);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(decode_technology(reader));
  }
}

void decode_services(ByteReader& reader, std::vector<ServiceInfo>& out) {
  const std::size_t count = reader.u16();
  reserve_from_wire(out, count, reader, kMinServiceSize);
  for (std::size_t i = 0; i < count && reader.ok(); ++i) {
    out.push_back(decode_service(reader));
  }
}

// Skips one encoded service (see encode_service), failing the reader on
// truncation.
void skip_service(ByteReader& reader) {
  (void)reader.str_view();
  (void)reader.str_view();
  (void)reader.u16();
}

// Parses and validates one snapshot entry (encode_snapshot_entry's layout)
// into `entry`, as views into the reader's buffer.
void decode_snapshot_entry(ByteReader& reader, SnapshotEntryView& entry) {
  entry.device.mac = MacAddress::from_u64(reader.u64());
  entry.device.name = reader.str_view();
  entry.device.checksum = reader.u32();
  entry.device.mobility = decode_mobility(reader);
  entry.prototypes = reader.view(reader.u8());
  for (const std::uint8_t raw : entry.prototypes) {
    if (raw >= kTechnologyCount) reader.fail();
  }
  entry.services.count = reader.u16();
  const std::size_t services_at = reader.position();
  for (std::size_t i = 0; i < entry.services.count && reader.ok(); ++i) {
    skip_service(reader);
  }
  entry.services.bytes = reader.since(services_at);
  entry.jump = reader.u8();
  entry.bridge = MacAddress::from_u64(reader.u64());
  entry.quality_sum = reader.u16();
  entry.min_link_quality = reader.u8();
}

}  // namespace

void encode_device(ByteWriter& writer, const DeviceInfo& device) {
  writer.reserve(15 + device.name.size());
  writer.u64(device.mac.as_u64());
  writer.string(device.name);
  writer.u32(device.checksum);
  writer.u8(static_cast<std::uint8_t>(device.mobility));
}

DeviceInfo decode_device(ByteReader& reader) {
  DeviceInfo device;
  device.mac = MacAddress::from_u64(reader.u64());
  device.name = reader.str_view();
  device.checksum = reader.u32();
  device.mobility = decode_mobility(reader);
  return device;
}

void encode_service(ByteWriter& writer, const ServiceInfo& service) {
  writer.reserve(6 + service.name.size() + service.attribute.size());
  writer.string(service.name);
  writer.string(service.attribute);
  writer.u16(service.port);
}

ServiceInfo decode_service(ByteReader& reader) {
  ServiceInfo service;
  service.name = reader.str_view();
  service.attribute = reader.str_view();
  service.port = reader.u16();
  return service;
}

void encode_response_header(ByteWriter& writer, std::uint32_t request_id,
                            std::uint8_t sections, std::uint8_t load_percent,
                            std::uint64_t epoch) {
  writer.u8(static_cast<std::uint8_t>(Command::kFetchResponse));
  writer.u32(request_id);
  writer.u8(sections);
  writer.u8(load_percent);
  writer.u64(epoch);
}

void encode_prototypes(ByteWriter& writer,
                       const std::vector<Technology>& prototypes) {
  writer.u8(static_cast<std::uint8_t>(prototypes.size()));
  for (const Technology tech : prototypes) {
    writer.u8(static_cast<std::uint8_t>(tech));
  }
}

void encode_services(ByteWriter& writer,
                     const std::vector<ServiceInfo>& services) {
  writer.u16(static_cast<std::uint16_t>(services.size()));
  for (const ServiceInfo& service : services) encode_service(writer, service);
}

void encode_into(ByteWriter& writer, const FetchRequest& request) {
  writer.reserve(7 + (request.baseline.has_value() ? 24 : 0));
  writer.u8(static_cast<std::uint8_t>(Command::kFetchRequest));
  writer.u32(request.request_id);
  writer.u8(request.sections);
  if (request.baseline.has_value()) {
    writer.u8(kRequestFlagBaseline);
    writer.u64(request.baseline->epoch);
    for (const std::uint8_t section : kSectionOrder) {
      writer.u32(request.baseline->gens.of(section));
    }
  } else {
    writer.u8(0);
  }
}

Bytes encode(const FetchRequest& request) {
  ByteWriter writer;
  encode_into(writer, request);
  return std::move(writer).take();
}

void encode_into(ByteWriter& writer, const FetchResponse& response) {
  if (response.not_modified) {
    writer.reserve(6);
    writer.u8(static_cast<std::uint8_t>(Command::kNotModified));
    writer.u32(response.request_id);
    writer.u8(response.load_percent);
    return;
  }
  writer.reserve(kResponseHeaderSize + 32 * response.services.size() +
                 64 * response.neighbours.size());
  encode_response_header(writer, response.request_id, response.sections,
                         response.load_percent, response.epoch);
  if ((response.sections & kSectionDevice) != 0) {
    writer.u32(response.gens.device);
    encode_device(writer, response.device);
  }
  if ((response.sections & kSectionPrototypes) != 0) {
    writer.u32(response.gens.prototypes);
    encode_prototypes(writer, response.prototypes);
  }
  if ((response.sections & kSectionServices) != 0) {
    writer.u32(response.gens.services);
    encode_services(writer, response.services);
  }
  if ((response.sections & kSectionNeighbours) != 0) {
    writer.u32(response.gens.neighbours);
    writer.u16(static_cast<std::uint16_t>(response.neighbours.size()));
    for (const NeighbourSnapshotEntry& entry : response.neighbours) {
      encode_snapshot_entry(writer, entry);
    }
  }
}

Bytes encode(const FetchResponse& response) {
  ByteWriter writer;
  encode_into(writer, response);
  return std::move(writer).take();
}

std::optional<Command> peek_command(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return std::nullopt;
  return static_cast<Command>(payload[0]);
}

std::optional<FetchRequest> decode_fetch_request(
    std::span<const std::uint8_t> payload) {
  ByteReader reader{payload};
  if (static_cast<Command>(reader.u8()) != Command::kFetchRequest) {
    return std::nullopt;
  }
  FetchRequest request;
  request.request_id = reader.u32();
  request.sections = reader.u8();
  if ((request.sections & ~kSectionAll) != 0) return std::nullopt;
  const std::uint8_t flags = reader.u8();
  if ((flags & ~kRequestFlagBaseline) != 0) return std::nullopt;
  if ((flags & kRequestFlagBaseline) != 0) {
    FetchBaseline baseline;
    baseline.epoch = reader.u64();
    for (const std::uint8_t section : kSectionOrder) {
      baseline.gens.of(section) = reader.u32();
    }
    request.baseline = baseline;
  }
  if (!reader.ok()) return std::nullopt;
  return request;
}

bool decode_fetch_response(std::span<const std::uint8_t> payload,
                           ReceivedFetchResponse& out) {
  // Start from a default response, but keep the neighbours buffer: a steady
  // neighbourhood refresh then allocates nothing.
  std::vector<SnapshotEntryView> buffer = std::move(out.neighbours);
  buffer.clear();
  out = ReceivedFetchResponse{};
  out.neighbours = std::move(buffer);
  ByteReader reader{payload};
  const auto command = static_cast<Command>(reader.u8());
  if (command == Command::kNotModified) {
    out.request_id = reader.u32();
    out.load_percent = reader.u8();
    out.not_modified = true;
    return reader.ok();
  }
  if (command != Command::kFetchResponse) return false;
  out.request_id = reader.u32();
  out.sections = reader.u8();
  if ((out.sections & ~kSectionAll) != 0) return false;
  out.load_percent = reader.u8();
  out.epoch = reader.u64();
  if ((out.sections & kSectionDevice) != 0) {
    out.gens.device = reader.u32();
    out.device = decode_device(reader);
  }
  if ((out.sections & kSectionPrototypes) != 0) {
    out.gens.prototypes = reader.u32();
    decode_prototypes(reader, out.prototypes);
  }
  if ((out.sections & kSectionServices) != 0) {
    out.gens.services = reader.u32();
    decode_services(reader, out.services);
  }
  if ((out.sections & kSectionNeighbours) != 0) {
    out.gens.neighbours = reader.u32();
    const std::size_t count = reader.u16();
    reserve_from_wire(out.neighbours, count, reader, kMinSnapshotEntrySize);
    for (std::size_t i = 0; i < count && reader.ok(); ++i) {
      decode_snapshot_entry(reader, out.neighbours.emplace_back());
    }
  }
  return reader.ok();
}

bool SnapshotEntryView::same_descriptors(const DeviceRecord& record) const {
  if (device.mac != record.device.mac || device.name != record.device.name ||
      device.checksum != record.device.checksum ||
      device.mobility != record.device.mobility ||
      prototypes.size() != record.prototypes.size() ||
      services.count != record.services.size()) {
    return false;
  }
  for (std::size_t i = 0; i < prototypes.size(); ++i) {
    if (prototypes[i] != static_cast<std::uint8_t>(record.prototypes[i])) {
      return false;
    }
  }
  ByteReader reader{services.bytes};
  for (const ServiceInfo& service : record.services) {
    if (reader.str_view() != service.name ||
        reader.str_view() != service.attribute ||
        reader.u16() != service.port) {
      return false;
    }
  }
  return true;
}

void SnapshotEntryView::copy_descriptors_to(DeviceRecord& record) const {
  record.device.mac = device.mac;
  record.device.name.assign(device.name);
  record.device.checksum = device.checksum;
  record.device.mobility = device.mobility;
  record.prototypes.resize(prototypes.size());
  for (std::size_t i = 0; i < prototypes.size(); ++i) {
    record.prototypes[i] = static_cast<Technology>(prototypes[i]);
  }
  record.services.resize(services.count);
  ByteReader reader{services.bytes};
  for (ServiceInfo& service : record.services) {
    service.name.assign(reader.str_view());
    service.attribute.assign(reader.str_view());
    service.port = reader.u16();
  }
}

Bytes encode_open(Command command, MacAddress hop, MacAddress destination,
                  const ConnectRequest& request) {
  ByteWriter writer;
  if (hop != destination) {
    writer.u8(static_cast<std::uint8_t>(Command::kBridge));
    writer.u64(destination.as_u64());
  }
  writer.u8(static_cast<std::uint8_t>(command));
  encode_request_body(writer, request);
  return std::move(writer).take();
}

Bytes encode_ok() {
  ByteWriter writer;
  writer.u8(static_cast<std::uint8_t>(Command::kOk));
  return std::move(writer).take();
}

Bytes encode_fail(ErrorCode code, std::string_view message) {
  ByteWriter writer;
  writer.reserve(4 + message.size());
  writer.u8(static_cast<std::uint8_t>(Command::kFail));
  writer.u8(static_cast<std::uint8_t>(code));
  writer.string(message);
  return std::move(writer).take();
}

std::optional<Handshake> decode_handshake(std::span<const std::uint8_t> frame) {
  ByteReader reader{frame};
  Handshake handshake;
  handshake.command = static_cast<Command>(reader.u8());
  if (handshake.command == Command::kBridge) {
    handshake.bridge.destination = MacAddress::from_u64(reader.u64());
    handshake.bridge.final_command = static_cast<Command>(reader.u8());
    handshake.bridge.inner = decode_request_body(reader);
    // A bridge relays one request; it does not nest another PH_BRIDGE.
    if (!opens_session(handshake.bridge.final_command) ||
        handshake.bridge.final_command == Command::kBridge) {
      return std::nullopt;
    }
  } else if (opens_session(handshake.command)) {
    handshake.connect = decode_request_body(reader);
  } else if (handshake.command == Command::kFail) {
    handshake.fail.code = static_cast<ErrorCode>(reader.u8());
    handshake.fail.message = reader.string();
  } else if (handshake.command != Command::kOk) {
    return std::nullopt;
  }
  if (!reader.ok()) return std::nullopt;
  return handshake;
}

}  // namespace peerhood::wire
