// PeerHood wire protocol.
//
// Two planes, mirroring the paper:
//  * Discovery datagrams — the short information-fetch exchanges of the
//    inquiry thread (Fig. 3.7: device / prototype / service / neighbourhood
//    information), carrying the responder's DeviceStorage snapshot.
//  * Connection handshakes — the first frame on a new connection identifies
//    the intention ("new connection, bridge connection or connection
//    re-establish", §4.1): PH_CONNECT, PH_BRIDGE (+ destination address and
//    service name, Fig. 4.3) or PH_RESUME, answered by PH_OK / PH_FAIL.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/mac_address.hpp"
#include "common/result.hpp"
#include "discovery/analyzer.hpp"
#include "discovery/device.hpp"

namespace peerhood::wire {

// ---------------------------------------------------------------------------
// Commands (first byte of a message in either plane).
enum class Command : std::uint8_t {
  kFetchRequest = 1,
  kFetchResponse = 2,
  kNotModified = 3,  // conditional fetch: nothing changed since the baseline
  kConnect = 10,     // PH_CONNECT
  kBridge = 11,      // PH_BRIDGE
  kResume = 12,      // connection re-establish
  kOk = 13,          // PH_OK
  kFail = 14,        // PH_FAIL
  // Connection re-establish against a *restarted* daemon: the responder lost
  // its in-memory sessions, but its SessionStore journal may still hold the
  // resume frontier. Sent by clients after a kResume was refused with
  // kUnknownSession (or after spotting a fresh epoch on re-fetch).
  kResumeRestart = 15,
};

// Sections of a fetch request/response; the paper issues four short
// connections (Fig. 3.7) or one unified connection (§3.4.1 suggestion).
enum Section : std::uint8_t {
  kSectionDevice = 1,
  kSectionPrototypes = 2,
  kSectionServices = 4,
  kSectionNeighbours = 8,
  kSectionAll = 15,
};

// ---------------------------------------------------------------------------
// Discovery plane.
//
// Versioned conditional fetch: the responder stamps every snapshot section
// with a generation counter and its whole state with a per-start epoch. A
// requester that has fetched before sends the versions it holds (the
// baseline); the responder answers kNotModified when nothing moved, or a
// delta response carrying only the sections whose generation differs.
// Generations are compared for *equality only* — wraparound and regression
// are simply "different", so a u32 counter is safe — and an epoch mismatch
// (responder restarted) always forces a full response.

// Per-section generation counters, one per Section bit.
struct SectionGens {
  std::uint32_t device{0};
  std::uint32_t prototypes{0};
  std::uint32_t services{0};
  std::uint32_t neighbours{0};

  [[nodiscard]] std::uint32_t& of(std::uint8_t section_bit);
  [[nodiscard]] std::uint32_t of(std::uint8_t section_bit) const;

  friend bool operator==(const SectionGens&, const SectionGens&) = default;
};

// The four section bits in canonical wire order.
inline constexpr std::uint8_t kSectionOrder[4] = {
    kSectionDevice, kSectionPrototypes, kSectionServices, kSectionNeighbours};

// The requester's last-seen versions of the responder's state.
struct FetchBaseline {
  std::uint64_t epoch{0};
  SectionGens gens;

  friend bool operator==(const FetchBaseline&, const FetchBaseline&) = default;
};

struct FetchRequest {
  std::uint32_t request_id{0};
  std::uint8_t sections{kSectionAll};
  // Present iff the requester holds versions for every requested section.
  std::optional<FetchBaseline> baseline;
};
// Command, id, sections, flags, then the optional u64 epoch + 4 u32 gens.
inline constexpr std::size_t kMaxFetchRequestSize = 7 + 24;

// Cached response frames are shared verbatim between requesters, so they
// cannot echo a per-request id; they carry kSharedRequestId instead and the
// requester matches them by peer address. Requesters mint ids from 1.
inline constexpr std::uint32_t kSharedRequestId = 0;

// One received neighbours-section entry, viewed in the frame that carried
// it: decode_fetch_response has validated every byte (enum fields are in
// their domains), and nothing is copied out of the frame until an integrate
// finds a new device or changed descriptors. Fields mirror
// NeighbourSnapshotEntry, so NeighbourhoodAnalyzer::integrate walks either.
struct SnapshotEntryView {
  struct Device {
    MacAddress mac;
    std::string_view name;
    std::uint32_t checksum{0};
    MobilityClass mobility{MobilityClass::kDynamic};
  };
  // `count` services as encode_services writes them, minus the count.
  struct Services {
    std::span<const std::uint8_t> bytes;
    std::size_t count{0};
  };

  Device device;
  std::span<const std::uint8_t> prototypes;  // one Technology byte each
  Services services;
  int jump{0};
  MacAddress bridge;
  int quality_sum{0};
  int min_link_quality{0};

  [[nodiscard]] bool same_descriptors(const DeviceRecord& record) const;
  // Assigns into the record's strings and vectors (reusing their capacity).
  void copy_descriptors_to(DeviceRecord& record) const;
};

// A fetch response. FetchResponse owns its neighbours section (what tests
// and tools build and encode); ReceivedFetchResponse is what a requester
// decodes, its neighbours viewed in the received frame.
template <typename Entry>
struct BasicFetchResponse {
  std::uint32_t request_id{0};
  // Sections present in *this* message. For a delta response this is the
  // subset of requested sections whose generation moved; absent requested
  // sections are unchanged and the requester keeps its view of them.
  std::uint8_t sections{0};
  // Responder's bridge occupancy percentage (0-100); used by the optional
  // load-derating of advertised link quality (§4: "bottle neck" avoidance).
  std::uint8_t load_percent{0};
  std::uint64_t epoch{0};
  // Generations of the present sections (others are meaningless).
  SectionGens gens;
  // Set when the frame was a kNotModified reply (not a wire field of
  // kFetchResponse; decode_fetch_response accepts both commands).
  bool not_modified{false};
  // Client-side annotation (never on the wire): the responder's epoch differs
  // from the epoch of the view this response was requested against — the
  // responder restarted mid-conversation, so any delta assembled so far is
  // relative to state that no longer exists.
  bool epoch_changed{false};
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;
  std::vector<Entry> neighbours;
};
using FetchResponse = BasicFetchResponse<NeighbourSnapshotEntry>;
// The entry views point into the received frame, so a ReceivedFetchResponse
// is valid only while that frame is: on both backends, for the datagram
// dispatch that delivered it. The requester integrates a neighbours section
// inside that dispatch — it is the last part of a split fetch (kSectionOrder)
// — and keeps no view past it.
using ReceivedFetchResponse = BasicFetchResponse<SnapshotEntryView>;

[[nodiscard]] Bytes encode(const FetchRequest& request);
[[nodiscard]] Bytes encode(const FetchResponse& response);
// As encode(), but appends to `writer` (lets callers prepend framing bytes
// without a copy; the snapshot cache bakes the net-layer datagram tag in).
void encode_into(ByteWriter& writer, const FetchRequest& request);
void encode_into(ByteWriter& writer, const FetchResponse& response);

// ---------------------------------------------------------------------------
// Connection plane.

// Reconnection parameters a client may push at connection start so that the
// server can call back after processing (§5.3 Method 2: "prototype, Pid
// number, service name, checksum, device name and port number are sent in
// the beginning of the connection").
struct ClientParams {
  DeviceInfo device;
  Technology tech{Technology::kBluetooth};
  std::string reconnect_service;
  std::uint16_t port{0};

  friend bool operator==(const ClientParams&, const ClientParams&) = default;
};

struct ConnectRequest {
  std::uint64_t session_id{0};
  std::string service;
  std::optional<ClientParams> client_params;
};

struct BridgeRequest {
  MacAddress destination;
  // What the last bridge sends to the final device: a fresh PH_CONNECT or a
  // PH_RESUME that substitutes an existing session.
  Command final_command{Command::kConnect};
  ConnectRequest inner;
};

struct FailInfo {
  ErrorCode code{ErrorCode::kConnectionFailed};
  std::string message;
};

// A decoded first-frame handshake or control response.
struct Handshake {
  Command command{Command::kOk};
  ConnectRequest connect;  // valid for kConnect / kResume / kResumeRestart
  BridgeRequest bridge;    // valid for kBridge
  FailInfo fail;           // valid for kFail
};

// The commands a connection's first frame may carry: PH_CONNECT, PH_BRIDGE,
// PH_RESUME and PH_RESUME_RESTART.
[[nodiscard]] constexpr bool opens_session(Command command) {
  return command == Command::kConnect || command == Command::kBridge ||
         command == Command::kResume || command == Command::kResumeRestart;
}

// The first frame of a connection to `hop` that opens `request` with
// `command` (kConnect, kResume or kResumeRestart) at `destination`: the bare
// request when the hop is the destination, else a PH_BRIDGE asking the hop
// to relay it there.
[[nodiscard]] Bytes encode_open(Command command, MacAddress hop,
                                MacAddress destination,
                                const ConnectRequest& request);
[[nodiscard]] Bytes encode_ok();
[[nodiscard]] Bytes encode_fail(ErrorCode code, std::string_view message);

// Decoders return nullopt on malformed input (remote peers are untrusted).
// They take spans so datagram dispatch can hand out views into the received
// frame without copying it into a fresh Bytes first.
[[nodiscard]] std::optional<Handshake> decode_handshake(
    std::span<const std::uint8_t> frame);
[[nodiscard]] std::optional<FetchRequest> decode_fetch_request(
    std::span<const std::uint8_t> payload);
// Decodes kFetchResponse and kNotModified frames (the latter yields
// not_modified == true and no sections) into `out`, reusing its neighbours
// buffer, and returns false on malformed input — checked for the whole
// frame, so a rejected section leaves nothing to integrate. Views in `out`
// point into `payload`.
[[nodiscard]] bool decode_fetch_response(std::span<const std::uint8_t> payload,
                                         ReceivedFetchResponse& out);
// Peeks the command byte of a datagram payload.
[[nodiscard]] std::optional<Command> peek_command(
    std::span<const std::uint8_t> payload);

// Shared sub-encoders (exposed for tests).
void encode_device(ByteWriter& writer, const DeviceInfo& device);
[[nodiscard]] DeviceInfo decode_device(ByteReader& reader);
void encode_service(ByteWriter& writer, const ServiceInfo& service);
[[nodiscard]] ServiceInfo decode_service(ByteReader& reader);

// ---------------------------------------------------------------------------
// Fetch-response pieces. encode_into(FetchResponse) writes a decoded struct;
// the snapshot cache writes the same layout straight from the responder's
// live state (no FetchResponse copy of the storage). Both are built from
// these pieces, and test_snapshot_delta (EncodesLikeTheResponseStructEncoder)
// pins their output byte-identical.

// Command, request id, section bits, load and epoch (kResponseHeaderSize).
void encode_response_header(ByteWriter& writer, std::uint32_t request_id,
                            std::uint8_t sections, std::uint8_t load_percent,
                            std::uint64_t epoch);
inline constexpr std::size_t kResponseHeaderSize = 15;
// u8 count + one byte per technology.
void encode_prototypes(ByteWriter& writer,
                       const std::vector<Technology>& prototypes);
// u16 count + each service.
void encode_services(ByteWriter& writer,
                     const std::vector<ServiceInfo>& services);

// Upper bounds on the encoded sizes (exact unless a string exceeds the u16
// length prefix and is truncated), for one-allocation response buffers.
[[nodiscard]] inline std::size_t encoded_size(const DeviceInfo& device) {
  return 15 + device.name.size();
}
[[nodiscard]] inline std::size_t encoded_size(
    const std::vector<ServiceInfo>& services) {
  std::size_t size = 2;
  for (const ServiceInfo& service : services) {
    size += 6 + service.name.size() + service.attribute.size();
  }
  return size;
}

// One neighbourhood-snapshot entry. `Entry` is NeighbourSnapshotEntry or a
// DeviceRecord — the snapshot cache encodes storage records in place.
//
// KEEP IN SYNC with DeviceStorage::advertised_route_equal and
// SnapshotEntryView::same_descriptors, which compares field by field (the
// other upsert candidates compare whole structs): a field shipped here but
// missing there would let the snapshot cache serve stale frames as
// kNotModified.
// tests/test_device_storage.cpp (GenerationCoversEveryAdvertisedField) flips
// each field one by one.
template <typename Entry>
[[nodiscard]] std::size_t snapshot_entry_size(const Entry& entry) {
  return encoded_size(entry.device) + 1 + entry.prototypes.size() +
         encoded_size(entry.services) + 12;
}
template <typename Entry>
void encode_snapshot_entry(ByteWriter& writer, const Entry& entry) {
  writer.reserve(snapshot_entry_size(entry));
  encode_device(writer, entry.device);
  encode_prototypes(writer, entry.prototypes);
  encode_services(writer, entry.services);
  writer.u8(static_cast<std::uint8_t>(entry.jump));
  writer.u64(entry.bridge.as_u64());
  writer.u16(static_cast<std::uint16_t>(entry.quality_sum));
  writer.u8(static_cast<std::uint8_t>(entry.min_link_quality));
}

}  // namespace peerhood::wire
