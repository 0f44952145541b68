// Decoder fuzz robustness (runs under ASan/UBSan in CI's sanitize job):
// every protocol.* decoder must survive arbitrary byte soup and single-bit
// mutations of valid frames without crashing, overflowing, or fabricating
// out-of-domain enum values. Decoders either return nullopt or a value whose
// enum fields are in range — never anything in between. The fetch-response
// decoder must also agree with the materialising reference decoder on every
// frame, and a frame it rejects must leave a daemon's storage untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/stream_framer.hpp"
#include "peerhood/daemon.hpp"
#include "peerhood/protocol.hpp"
#include "peerhood/reliable_channel.hpp"
#include "reference_fetch_decoder.hpp"
#include "scripted_network.hpp"

namespace peerhood::wire {
namespace {

void check_decoded_domain(const FetchResponse& response) {
  for (const Technology tech : response.prototypes) {
    EXPECT_LT(static_cast<std::size_t>(tech), kTechnologyCount);
  }
  for (const NeighbourSnapshotEntry& entry : response.neighbours) {
    for (const Technology tech : entry.prototypes) {
      EXPECT_LT(static_cast<std::size_t>(tech), kTechnologyCount);
    }
    const auto mobility = static_cast<std::uint8_t>(entry.device.mobility);
    EXPECT_TRUE(mobility == 0 || mobility == 1 || mobility == 3);
  }
}

// The requester's decoder (entries viewed in the frame) must accept a frame
// exactly when the materialising reference decoder does, and then yield the
// same response once its entries are materialised. One buffer is reused
// for every frame, as the daemon reuses its own.
void check_fetch_response(std::span<const std::uint8_t> bytes) {
  static ReceivedFetchResponse viewed;
  const auto reference = reference_decode_fetch_response(bytes);
  const bool accepted = decode_fetch_response(bytes, viewed);
  ASSERT_EQ(accepted, reference.has_value());
  if (!accepted) return;
  check_decoded_domain(*reference);
  EXPECT_EQ(viewed.request_id, reference->request_id);
  EXPECT_EQ(viewed.sections, reference->sections);
  EXPECT_EQ(viewed.load_percent, reference->load_percent);
  EXPECT_EQ(viewed.epoch, reference->epoch);
  EXPECT_EQ(viewed.gens, reference->gens);
  EXPECT_EQ(viewed.not_modified, reference->not_modified);
  EXPECT_EQ(viewed.device, reference->device);
  EXPECT_EQ(viewed.prototypes, reference->prototypes);
  EXPECT_EQ(viewed.services, reference->services);
  ASSERT_EQ(viewed.neighbours.size(), reference->neighbours.size());
  for (std::size_t i = 0; i < viewed.neighbours.size(); ++i) {
    EXPECT_EQ(materialise(viewed.neighbours[i]), reference->neighbours[i])
        << "entry " << i;
  }
}

void decode_everything(std::span<const std::uint8_t> bytes) {
  (void)peek_command(bytes);
  (void)decode_handshake(bytes);
  (void)decode_fetch_request(bytes);
  check_fetch_response(bytes);
  (void)peerhood::decode_reliable_frame(bytes);
}

NeighbourSnapshotEntry sample_entry(std::uint64_t index, int services) {
  NeighbourSnapshotEntry entry;
  entry.device = DeviceInfo{MacAddress::from_index(index),
                            "neighbour-" + std::to_string(index),
                            static_cast<std::uint32_t>(index * 31),
                            index % 2 == 0 ? MobilityClass::kStatic
                                           : MobilityClass::kHybrid};
  entry.prototypes = {Technology::kGprs, Technology::kWlan};
  for (int i = 0; i < services; ++i) {
    entry.services.push_back(
        ServiceInfo{"svc-" + std::to_string(i), i % 2 == 0 ? "" : "client",
                    static_cast<std::uint16_t>(5 + i)});
  }
  entry.jump = static_cast<int>(index % 3);
  entry.bridge = MacAddress::from_index(9);
  entry.quality_sum = 200 + static_cast<int>(index);
  entry.min_link_quality = 180;
  return entry;
}

// A neighbours-only answer with three entries of 0, 1 and 2 services.
Bytes sample_neighbours_response() {
  FetchResponse response;
  response.request_id = 8;
  response.sections = kSectionNeighbours;
  response.epoch = 3;
  response.gens = SectionGens{0, 0, 0, 77};
  for (int i = 0; i < 3; ++i) {
    response.neighbours.push_back(sample_entry(20 + i, i));
  }
  return encode(response);
}

Bytes sample_fetch_response() {
  FetchResponse response;
  response.request_id = 7;
  response.sections = kSectionAll;
  response.load_percent = 40;
  response.epoch = 11;
  response.gens = SectionGens{1, 2, 3, 4};
  response.device = DeviceInfo{MacAddress::from_index(9), "device-nine",
                               0x1234, MobilityClass::kDynamic};
  response.prototypes = {Technology::kBluetooth, Technology::kWlan};
  response.services = {ServiceInfo{"print", "attr", 19},
                       ServiceInfo{"task", "", 23}};
  NeighbourSnapshotEntry entry;
  entry.device = DeviceInfo{MacAddress::from_index(12), "neighbour", 0x99,
                            MobilityClass::kStatic};
  entry.prototypes = {Technology::kGprs};
  entry.services = {ServiceInfo{"relay", "client", 5}};
  entry.jump = 1;
  entry.bridge = MacAddress::from_index(9);
  entry.quality_sum = 200;
  entry.min_link_quality = 180;
  response.neighbours = {entry};
  return encode(response);
}

Bytes sample_bridge_handshake() {
  ConnectRequest inner;
  inner.session_id = 42;
  inner.service = "print";
  ClientParams params;
  params.device = DeviceInfo{MacAddress::from_index(3), "client-three", 0x42,
                             MobilityClass::kHybrid};
  params.tech = Technology::kWlan;
  params.reconnect_service = "client.result";
  params.port = 88;
  inner.client_params = params;
  return encode_open(Command::kResume, MacAddress::from_index(8),
                     MacAddress::from_index(9), inner);
}

// The crash-recovery handshake: a client replaying a journalled session
// against a restarted daemon, directly...
Bytes sample_resume_restart() {
  ConnectRequest request;
  request.session_id = 77;
  request.service = "print";
  return encode_open(Command::kResumeRestart, MacAddress::from_index(4),
                     MacAddress::from_index(4), request);
}

// ...and relayed, as the final command of a bridge chain.
Bytes sample_bridge_resume_restart() {
  return encode_open(Command::kResumeRestart, MacAddress::from_index(8),
                     MacAddress::from_index(4),
                     ConnectRequest{77, "print", std::nullopt});
}

// The reliability layer's wire frames (the ack advertises a window and
// names held frames past the cumulative ack in its SACK bitmap).
Bytes sample_reliable_data() {
  return peerhood::encode_reliable_data(0x1122334455667788ull,
                                        Bytes{0xDE, 0xAD, 0xBE, 0xEF});
}

Bytes sample_reliable_ack() {
  return peerhood::encode_reliable_ack(0x8877665544332211ull, 192,
                                       0x8000000000000105ull);
}

Bytes sample_fetch_request() {
  FetchRequest request;
  request.request_id = 3;
  request.sections = kSectionNeighbours | kSectionDevice;
  request.baseline = FetchBaseline{5, SectionGens{1, 1, 2, 9}};
  return encode(request);
}

TEST(ProtocolFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng{0xF0221E5};
  for (int round = 0; round < 4000; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 96));
    Bytes bytes(size, 0);
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    decode_everything(bytes);
  }
}

TEST(ProtocolFuzz, RandomFetchResponsesAgreeWithReference) {
  // Byte soup rarely gets past the command byte, so this round mutates valid
  // responses: 1-6 random bytes overwritten, sometimes cut short.
  Rng rng{0x5EC7105};
  const Bytes samples[] = {sample_fetch_response(),
                           sample_neighbours_response()};
  for (int round = 0; round < 6000; ++round) {
    Bytes frame = samples[round % 2];
    const int edits = rng.uniform_int(1, 6);
    for (int i = 0; i < edits; ++i) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(frame.size()) - 1));
      frame[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.2)) {
      frame.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(frame.size()))));
    }
    check_fetch_response(frame);
  }
}

TEST(ProtocolFuzz, OutOfDomainEnumValuesAgreeWithReference) {
  // Every byte of the responses set in turn to values just past each enum's
  // domain (Technology 0-2, MobilityClass 0/1/3) and to the extremes.
  for (const Bytes& sample :
       {sample_fetch_response(), sample_neighbours_response()}) {
    for (std::size_t at = 0; at < sample.size(); ++at) {
      for (const std::uint8_t value : {0x00, 0x02, 0x03, 0x04, 0x7F, 0xFF}) {
        Bytes frame = sample;
        frame[at] = value;
        check_fetch_response(frame);
      }
    }
  }
}

TEST(ProtocolFuzz, RejectedNeighboursSectionNeverReachesTheStorage) {
  // A unified fetch answered with a neighbours section whose last entry is
  // corrupt: the entries before it are well formed, yet none of them — and
  // not the responder itself — may be stored. The intact answer then
  // integrates in full.
  const MacAddress self = MacAddress::from_index(1);
  const MacAddress responder = MacAddress::from_index(2);
  testing::ScriptedNetwork network{{responder}};
  DaemonConfig config;
  config.bridge_enabled = false;
  config.unified_fetch = true;
  Daemon daemon{network, self, nullptr, config};
  daemon.start();
  const auto sent = network.next_request();
  ASSERT_TRUE(sent.has_value());
  ASSERT_EQ(sent->request.sections, kSectionAll);

  FetchResponse response;
  response.request_id = sent->request.request_id;
  response.sections = kSectionAll;
  response.epoch = 5;
  response.gens = SectionGens{1, 1, 1, 1};
  response.device = DeviceInfo{responder, "responder", 2,
                               MobilityClass::kStatic};
  for (int i = 0; i < 4; ++i) {
    response.neighbours.push_back(sample_entry(30 + i, i));
  }
  const Bytes intact = encode(response);
  // The last entry closes the frame; its mobility byte follows the MAC, the
  // length-prefixed name and the checksum.
  const NeighbourSnapshotEntry& last = response.neighbours.back();
  const std::size_t last_entry_mobility = intact.size() -
                                          snapshot_entry_size(last) + 8 + 2 +
                                          last.device.name.size() + 4;
  Bytes corrupt_mobility = intact;
  ASSERT_EQ(corrupt_mobility[last_entry_mobility],
            static_cast<std::uint8_t>(MobilityClass::kHybrid));
  corrupt_mobility[last_entry_mobility] = 2;  // between kHybrid and kDynamic
  const Bytes truncated(intact.begin(), intact.end() - 1);

  const std::uint32_t generation = daemon.storage().generation();
  for (const Bytes& malformed : {corrupt_mobility, truncated}) {
    ASSERT_FALSE(reference_decode_fetch_response(malformed).has_value());
    network.deliver(responder, malformed);
    EXPECT_EQ(daemon.storage().size(), 0u);
    EXPECT_EQ(daemon.storage().generation(), generation);
  }
  network.deliver(responder, intact);
  EXPECT_EQ(daemon.storage().size(), 1u + 4u);
  EXPECT_EQ(daemon.plugin(Technology::kBluetooth)->stats().integrations,
            1u + 4u);
}

TEST(ProtocolFuzz, BitFlippedValidFramesNeverCrashDecoders) {
  const Bytes samples[] = {sample_fetch_response(), sample_fetch_request(),
                           sample_neighbours_response(),
                           sample_bridge_handshake(), encode_ok(),
                           encode_fail(ErrorCode::kProtocolError, "boom"),
                           encode_open(Command::kConnect,
                                       MacAddress::from_index(1),
                                       MacAddress::from_index(1),
                                       ConnectRequest{1, "svc", {}}),
                           sample_resume_restart(),
                           sample_bridge_resume_restart(),
                           sample_reliable_data(), sample_reliable_ack()};
  for (const Bytes& sample : samples) {
    // The pristine frame must decode (sanity), then every single-bit
    // mutation must be survivable.
    decode_everything(sample);
    for (std::size_t bit = 0; bit < sample.size() * 8; ++bit) {
      Bytes mutated = sample;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      decode_everything(mutated);
    }
  }
}

TEST(ProtocolFuzz, TruncationsNeverCrashDecoders) {
  const Bytes samples[] = {sample_fetch_response(), sample_fetch_request(),
                           sample_neighbours_response(),
                           sample_bridge_handshake(),
                           sample_resume_restart(),
                           sample_bridge_resume_restart(),
                           sample_reliable_data(), sample_reliable_ack()};
  for (const Bytes& sample : samples) {
    for (std::size_t len = 0; len < sample.size(); ++len) {
      decode_everything({sample.data(), len});
    }
  }
}

// --- TCP length-prefix framing (net/stream_framer.hpp) ----------------------
//
// The socket backend's stream leg has no datagram boundary to resynchronise
// on, so its contract is harsher: any number of frames fed at ANY read
// boundary must reassemble byte-identically, and any corruption (truncation,
// bit flip, byte soup) must either be absorbed before a frame boundary or
// latch the poison bit — never crash, never emit a wrong frame.

Bytes sample_stream_payloads_concat(const std::vector<Bytes>& bodies) {
  Bytes wire;
  for (const Bytes& body : bodies) {
    const Bytes frame = net::encode_stream_frame(body);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

TEST(ProtocolFuzz, StreamFramerReassemblesAcrossArbitraryReadBoundaries) {
  Rng rng{0x57A3};
  const std::vector<Bytes> bodies = {
      Bytes{}, Bytes{0x01}, sample_reliable_data(), sample_fetch_response(),
      Bytes(300, 0xAB)};
  const Bytes wire = sample_stream_payloads_concat(bodies);
  for (int round = 0; round < 200; ++round) {
    net::StreamFramer framer;
    std::vector<Bytes> decoded;
    std::size_t cursor = 0;
    while (cursor < wire.size()) {
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<int>(std::min<std::size_t>(64, wire.size() - cursor))));
      framer.feed({wire.data() + cursor, chunk});
      cursor += chunk;
      while (auto body = framer.next()) decoded.push_back(std::move(*body));
    }
    ASSERT_FALSE(framer.poisoned());
    ASSERT_EQ(decoded, bodies) << "desync at round " << round;
  }
}

TEST(ProtocolFuzz, StreamTruncationsNeverCrashOrEmitPartialFrames) {
  const Bytes wire =
      sample_stream_payloads_concat({sample_reliable_data(), Bytes(40, 0x55)});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    net::StreamFramer framer;
    framer.feed({wire.data(), len});
    std::size_t whole = 0;
    while (auto body = framer.next()) {
      ++whole;
      // Any frame that does come out must be one of the two originals.
      EXPECT_TRUE(*body == sample_reliable_data() || *body == Bytes(40, 0x55));
    }
    EXPECT_LE(whole, 2u);
    EXPECT_FALSE(framer.poisoned());  // a clean cut is "need more", not rot
  }
}

TEST(ProtocolFuzz, StreamBitFlipsPoisonOrDropNeverDesync) {
  const std::vector<Bytes> bodies = {sample_reliable_data(),
                                     sample_fetch_request()};
  const Bytes wire = sample_stream_payloads_concat(bodies);
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    Bytes mutated = wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    net::StreamFramer framer;
    framer.feed(mutated);
    std::vector<Bytes> decoded;
    while (auto body = framer.next()) decoded.push_back(std::move(*body));
    // Every emitted frame must be byte-identical to an original at its
    // position: the framer may stop early (poisoned) but must never hand a
    // corrupted body onward — that is the whole point of the checksum.
    ASSERT_LE(decoded.size(), bodies.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_EQ(decoded[i], bodies[i]) << "bit " << bit;
    }
    // A flip that killed a frame must have latched the poison bit (streams
    // cannot skip-and-resync), unless it only grew the length field so the
    // tail is still "waiting for more bytes".
    if (decoded.size() < bodies.size()) {
      EXPECT_TRUE(framer.poisoned() || framer.buffered() > 0) << "bit " << bit;
    }
  }
}

TEST(ProtocolFuzz, StreamRandomByteSoupNeverCrashes) {
  Rng rng{0xBADF00D};
  for (int round = 0; round < 2000; ++round) {
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 128));
    Bytes soup(size, 0);
    for (auto& b : soup) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    net::StreamFramer framer;
    // Feed in two random halves to exercise the compaction path too.
    const std::size_t split =
        size == 0 ? 0
                  : static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(size)));
    framer.feed({soup.data(), split});
    while (framer.next().has_value()) {
    }
    framer.feed({soup.data() + split, size - split});
    while (framer.next().has_value()) {
    }
    // No assertion on poisoned(): most soup is rejected, a lucky prefix may
    // just be left waiting. The invariant is "no crash, no bogus frame".
  }
}

TEST(ProtocolFuzz, OutOfDomainEnumBytesRejectTheFrame) {
  // Corrupt the mobility byte of the device section to an undefined value:
  // the decoder must reject the whole frame, not materialise enum garbage.
  FetchResponse response;
  response.request_id = 1;
  response.sections = kSectionDevice;
  response.epoch = 1;
  response.gens = SectionGens{1, 1, 1, 1};
  response.device = DeviceInfo{MacAddress::from_index(2), "d", 0,
                               MobilityClass::kStatic};
  Bytes frame = encode(response);
  ReceivedFetchResponse decoded;
  ASSERT_TRUE(decode_fetch_response(frame, decoded));
  // The mobility byte is the last byte of the device record (see
  // encode_device); for a kSectionDevice-only response it is the final byte.
  frame.back() = 0x7F;
  EXPECT_FALSE(decode_fetch_response(frame, decoded));
}

}  // namespace
}  // namespace peerhood::wire
