// The conditional-fetch discovery protocol (generation-versioned snapshot
// cache + delta responses), tested at the wire level:
//  * the cache serves repeat same-generation requests from one shared frame,
//  * deltas carry exactly the sections whose generation moved, and share
//    the cached frame of a full response for those sections,
//  * kNotModified round-trips,
//  * epoch mismatch (responder restart) and generation wraparound force a
//    full / correct response,
//  * malformed and truncated frames are rejected,
//  * a randomized parity oracle: a view maintained through conditional
//    fetches (deltas + kNotModified) equals a view fetched full, after
//    arbitrary interleavings of responder mutations and fetches.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "net/frame_check.hpp"
#include "peerhood/snapshot_cache.hpp"
#include "reference_fetch_decoder.hpp"

namespace peerhood {
namespace {

DeviceInfo sample_device(std::uint64_t index) {
  DeviceInfo device;
  device.mac = MacAddress::from_index(index);
  device.name = "device-" + std::to_string(index);
  device.checksum = static_cast<std::uint32_t>(index * 31);
  device.mobility = MobilityClass::kStatic;
  return device;
}

// A responder: the authoritative state the daemon would own, plus the cache.
struct Responder {
  DeviceInfo self = sample_device(1);
  std::vector<Technology> prototypes{Technology::kBluetooth,
                                     Technology::kWlan};
  std::vector<ServiceInfo> services;
  std::uint32_t services_gen{1};
  DeviceStorage storage;
  std::uint64_t epoch{0x1111};
  std::uint8_t load{0};
  SnapshotCache cache;

  [[nodiscard]] SnapshotSource source() const {
    SnapshotSource src;
    src.device = &self;
    src.prototypes = &prototypes;
    src.services = &services;
    src.storage = &storage;
    src.gens.device = 1;
    src.gens.prototypes = 1;
    src.gens.services = services_gen;
    src.gens.neighbours = storage.generation();
    src.epoch = epoch;
    src.load_percent = load;
    return src;
  }

  [[nodiscard]] SnapshotCache::FramePtr answer(
      const wire::FetchRequest& request) {
    return cache.respond(request, source());
  }

  void restart() {
    epoch += 7;  // a restarted daemon mints a fresh epoch
    services_gen = 1;
    // The cache does not survive a restart in the real daemon; a fresh one
    // also proves correctness does not depend on cache continuity.
    cache = SnapshotCache{};
  }
};

// The requester's assembled view of one responder (the plugin's per-peer
// state, reduced to the protocol rules: overlay present sections, keep the
// rest; epoch change invalidates every known generation).
struct View {
  std::uint64_t epoch{0};
  wire::SectionGens gens;
  std::uint8_t known{0};
  DeviceInfo device;
  std::vector<Technology> prototypes;
  std::vector<ServiceInfo> services;
  std::vector<NeighbourSnapshotEntry> neighbours;

  [[nodiscard]] std::optional<wire::FetchBaseline> baseline(
      std::uint8_t sections) const {
    if ((known & sections) != sections) return std::nullopt;
    return wire::FetchBaseline{epoch, gens};
  }

  void apply(const wire::FetchResponse& response) {
    if (response.not_modified) return;
    if (epoch != response.epoch) {
      known = 0;
      gens = {};
      epoch = response.epoch;
    }
    if ((response.sections & wire::kSectionDevice) != 0) {
      device = response.device;
      gens.device = response.gens.device;
    }
    if ((response.sections & wire::kSectionPrototypes) != 0) {
      prototypes = response.prototypes;
      gens.prototypes = response.gens.prototypes;
    }
    if ((response.sections & wire::kSectionServices) != 0) {
      services = response.services;
      gens.services = response.gens.services;
    }
    if ((response.sections & wire::kSectionNeighbours) != 0) {
      neighbours = response.neighbours;
      gens.neighbours = response.gens.neighbours;
    }
    known |= response.sections;
  }
};

// The cache answers with sealed datagram frames: the encoded response is
// the body behind the integrity header and the datagram tag.
Bytes response_bytes(const SnapshotCache::FramePtr& frame) {
  const auto body = net::check_frame(*frame);
  EXPECT_TRUE(body.has_value());
  if (!body.has_value() || body->empty()) return {};
  EXPECT_EQ(body->front(), net::kDatagramFrameTag);
  return Bytes{body->begin() + 1, body->end()};
}

wire::FetchResponse decode_or_die(const SnapshotCache::FramePtr& frame) {
  const auto decoded =
      wire::reference_decode_fetch_response(response_bytes(frame));
  EXPECT_TRUE(decoded.has_value());
  return decoded.value_or(wire::FetchResponse{});
}

DeviceRecord record_for(std::uint64_t index, int jump, int quality) {
  DeviceRecord record;
  record.device = sample_device(index);
  record.prototypes = {Technology::kBluetooth};
  record.services = {{"svc-" + std::to_string(index), "", 9}};
  record.jump = jump;
  record.bridge = jump == 0 ? MacAddress{} : MacAddress::from_index(2);
  record.quality_sum = quality;
  record.min_link_quality = quality;
  return record;
}

TEST(SnapshotCache, RepeatRequestsShareOneFrame) {
  Responder responder;
  responder.services = {{"echo", "", 4}};
  ASSERT_TRUE(responder.storage.upsert(record_for(5, 0, 200)));

  const wire::FetchRequest request{1, wire::kSectionAll, std::nullopt};
  const auto first = responder.answer(request);
  const auto second = responder.answer({2, wire::kSectionAll, std::nullopt});
  // Same generations: the exact same buffer, not an equal copy.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(responder.cache.stats().full_encodes, 1u);
  EXPECT_EQ(responder.cache.stats().full_hits, 1u);

  // Shared frames cannot echo a request id.
  EXPECT_EQ(decode_or_die(first).request_id, wire::kSharedRequestId);

  // A storage mutation moves the neighbours generation: fresh encode.
  ASSERT_TRUE(responder.storage.upsert(record_for(6, 1, 150)));
  const auto third = responder.answer({3, wire::kSectionAll, std::nullopt});
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(responder.cache.stats().full_encodes, 2u);
}

TEST(SnapshotCache, EncodesLikeTheResponseStructEncoder) {
  // The cache writes responses straight from the responder's state; the
  // bytes must equal wire::encode of the same response as a struct.
  Responder responder;
  responder.services = {{"echo", "", 4}, {"compute", "attr", 5}};
  ASSERT_TRUE(responder.storage.upsert(record_for(5, 0, 200)));
  ASSERT_TRUE(responder.storage.upsert(record_for(6, 1, 150)));
  ASSERT_TRUE(responder.storage.upsert(record_for(7, 2, 90)));
  responder.load = 25;
  const SnapshotSource src = responder.source();
  for (std::uint8_t sections = 1; sections <= wire::kSectionAll; ++sections) {
    wire::FetchResponse expected;
    expected.request_id = wire::kSharedRequestId;
    expected.sections = sections;
    expected.load_percent = src.load_percent;
    expected.epoch = src.epoch;
    expected.gens = src.gens;
    expected.device = responder.self;
    expected.prototypes = responder.prototypes;
    expected.services = responder.services;
    responder.storage.for_each([&](const DeviceRecord& record) {
      expected.neighbours.push_back(
          {record.device, record.prototypes, record.services, record.jump,
           record.bridge, record.quality_sum, record.min_link_quality});
    });
    const auto frame = responder.answer({9, sections, std::nullopt});
    EXPECT_EQ(response_bytes(frame), wire::encode(expected))
        << "sections " << +sections;
  }
}

TEST(SnapshotCache, SectionSubsetsCacheIndependently) {
  Responder responder;
  const auto all = responder.answer({1, wire::kSectionAll, std::nullopt});
  const auto dev = responder.answer({2, wire::kSectionDevice, std::nullopt});
  EXPECT_NE(all.get(), dev.get());
  EXPECT_EQ(decode_or_die(dev).sections, wire::kSectionDevice);
  EXPECT_EQ(dev.get(),
            responder.answer({3, wire::kSectionDevice, std::nullopt}).get());
}

TEST(SnapshotCache, NotModifiedWhenBaselineCurrent) {
  Responder responder;
  responder.services = {{"echo", "", 4}};
  View view;
  view.apply(decode_or_die(
      responder.answer({1, wire::kSectionAll, std::nullopt})));

  const auto reply = responder.answer(
      {2, wire::kSectionAll, view.baseline(wire::kSectionAll)});
  const auto decoded = decode_or_die(reply);
  EXPECT_TRUE(decoded.not_modified);
  // The kNotModified frame is cached and shared too.
  EXPECT_EQ(reply.get(),
            responder
                .answer({3, wire::kSectionAll, view.baseline(wire::kSectionAll)})
                .get());
  EXPECT_EQ(responder.cache.stats().not_modified, 2u);
}

TEST(SnapshotCache, DeltaCarriesOnlyChangedSections) {
  Responder responder;
  responder.services = {{"echo", "", 4}};
  View view;
  view.apply(decode_or_die(
      responder.answer({1, wire::kSectionAll, std::nullopt})));

  responder.services.push_back({"late", "", 5});
  ++responder.services_gen;
  const auto reply = responder.answer(
      {7, wire::kSectionAll, view.baseline(wire::kSectionAll)});
  const auto decoded = decode_or_die(reply);
  EXPECT_EQ(decoded.sections, wire::kSectionServices);
  ASSERT_EQ(decoded.services.size(), 2u);
  // A delta is the full response for the sections that moved: one shared
  // frame, which cannot echo a request id.
  EXPECT_EQ(decoded.request_id, wire::kSharedRequestId);
  EXPECT_EQ(reply.get(),
            responder.answer({8, wire::kSectionServices, std::nullopt}).get());
  EXPECT_EQ(responder.cache.stats().deltas, 1u);
  EXPECT_EQ(responder.cache.stats().full_hits, 1u);

  view.apply(decoded);
  EXPECT_EQ(view.services, responder.services);
}

TEST(SnapshotCache, LoadChangeInvalidatesCachedFrames) {
  Responder responder;
  const auto first = responder.answer({1, wire::kSectionAll, std::nullopt});
  responder.load = 40;
  const auto second = responder.answer({2, wire::kSectionAll, std::nullopt});
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(decode_or_die(second).load_percent, 40);
}

TEST(SnapshotCache, EpochMismatchForcesFullResponse) {
  Responder responder;
  responder.services = {{"echo", "", 4}};
  View view;
  view.apply(decode_or_die(
      responder.answer({1, wire::kSectionAll, std::nullopt})));

  // Responder restarts: generations regress, epoch changes. The stale
  // baseline must be ignored and every requested section shipped.
  responder.restart();
  responder.services = {{"reborn", "", 6}};
  const auto decoded = decode_or_die(responder.answer(
      {2, wire::kSectionAll, view.baseline(wire::kSectionAll)}));
  EXPECT_FALSE(decoded.not_modified);
  EXPECT_EQ(decoded.sections, wire::kSectionAll);
  view.apply(decoded);
  EXPECT_EQ(view.services, responder.services);
  EXPECT_EQ(view.epoch, responder.epoch);
}

TEST(SnapshotCache, GenerationWraparoundIsAChange) {
  Responder responder;
  // Equality-only comparison makes wraparound safe: 0xffffffff -> 0 is just
  // "different", never "older".
  responder.services_gen = 0xffffffffu;
  View view;
  view.apply(decode_or_die(
      responder.answer({1, wire::kSectionAll, std::nullopt})));
  EXPECT_EQ(view.gens.services, 0xffffffffu);

  responder.services = {{"wrapped", "", 2}};
  ++responder.services_gen;  // wraps to 0
  EXPECT_EQ(responder.services_gen, 0u);
  const auto decoded = decode_or_die(responder.answer(
      {2, wire::kSectionAll, view.baseline(wire::kSectionAll)}));
  EXPECT_EQ(decoded.sections, wire::kSectionServices);
  view.apply(decoded);
  EXPECT_EQ(view.services, responder.services);

  // And the new value is a stable baseline again.
  const auto again = decode_or_die(responder.answer(
      {3, wire::kSectionAll, view.baseline(wire::kSectionAll)}));
  EXPECT_TRUE(again.not_modified);
}

TEST(SnapshotDelta, TruncatedFramesRejected) {
  Responder responder;
  responder.services = {{"echo", "attr", 4}};
  ASSERT_TRUE(responder.storage.upsert(record_for(5, 0, 200)));
  View view;
  view.apply(decode_or_die(
      responder.answer({1, wire::kSectionAll, std::nullopt})));
  responder.services.push_back({"late", "", 5});
  ++responder.services_gen;

  const auto full = responder.answer({2, wire::kSectionAll, std::nullopt});
  const auto delta = responder.answer(
      {3, wire::kSectionAll, view.baseline(wire::kSectionAll)});
  const auto not_modified = responder.answer(
      {4, wire::kSectionAll,
       wire::FetchBaseline{responder.epoch, responder.source().gens}});
  wire::ReceivedFetchResponse decoded;
  for (const auto& frame : {full, delta, not_modified}) {
    const Bytes bytes = response_bytes(frame);
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
      Bytes truncated{bytes.begin(), bytes.begin() + static_cast<long>(cut)};
      EXPECT_FALSE(wire::decode_fetch_response(truncated, decoded))
          << "prefix of length " << cut << " must be rejected";
    }
    EXPECT_TRUE(wire::decode_fetch_response(bytes, decoded));
  }

  // Conditional requests reject truncation too.
  wire::FetchRequest request{9, wire::kSectionAll,
                             view.baseline(wire::kSectionAll)};
  const Bytes encoded = wire::encode(request);
  for (std::size_t cut = 1; cut < encoded.size(); ++cut) {
    Bytes truncated{encoded.begin(), encoded.begin() + static_cast<long>(cut)};
    EXPECT_FALSE(wire::decode_fetch_request(truncated).has_value());
  }

  // Unknown section bits and unknown request flags are rejected.
  Bytes bad_sections = response_bytes(full);
  bad_sections[5] = 0xff;
  EXPECT_FALSE(wire::decode_fetch_response(bad_sections, decoded));
  Bytes bad_flags = encoded;
  bad_flags[6] = 0x7e;
  EXPECT_FALSE(wire::decode_fetch_request(bad_flags).has_value());
}

// The randomized parity oracle: >=10k mixed mutate/fetch operations; after
// every conditional fetch the delta-assembled view must equal a full fetch.
TEST(SnapshotDelta, RandomizedDeltaVsFullParity) {
  Rng rng{20260729};
  Responder responder;
  responder.services_gen = 0xfffffff0u;  // wraps mid-run
  View view;

  int fetches = 0;
  for (int op = 0; op < 12000; ++op) {
    switch (rng.uniform_int(0, 9)) {
      case 0:
      case 1: {  // neighbour upsert (insert / refresh / better route)
        const auto index = static_cast<std::uint64_t>(rng.uniform_int(3, 40));
        responder.storage.upsert(record_for(
            index, static_cast<int>(rng.uniform_int(0, 3)),
            static_cast<int>(rng.uniform_int(100, 255))));
        break;
      }
      case 2: {  // neighbour removal
        responder.storage.remove(MacAddress::from_index(
            static_cast<std::uint64_t>(rng.uniform_int(3, 40))));
        break;
      }
      case 3: {  // service churn
        if (!responder.services.empty() && rng.bernoulli(0.5)) {
          responder.services.pop_back();
        } else {
          responder.services.push_back(
              {"svc-" + std::to_string(op), "", static_cast<std::uint16_t>(op)});
        }
        ++responder.services_gen;
        break;
      }
      case 4: {  // load drift
        responder.load = static_cast<std::uint8_t>(rng.uniform_int(0, 100));
        break;
      }
      case 5: {  // responder restart (rare-ish): epoch change + regression
        if (rng.bernoulli(0.05)) responder.restart();
        break;
      }
      default: {  // conditional fetch, then verify against a full fetch
        ++fetches;
        const std::uint8_t sections = wire::kSectionAll;
        const auto request_id = static_cast<std::uint32_t>(op + 1);
        const auto conditional =
            wire::reference_decode_fetch_response(response_bytes(
                responder.answer(
                    {request_id, sections, view.baseline(sections)})));
        ASSERT_TRUE(conditional.has_value());
        view.apply(*conditional);

        const auto full = wire::reference_decode_fetch_response(
            response_bytes(
                responder.answer({request_id, sections, std::nullopt})));
        ASSERT_TRUE(full.has_value());
        ASSERT_EQ(view.device, full->device) << "op " << op;
        ASSERT_EQ(view.prototypes, full->prototypes) << "op " << op;
        ASSERT_EQ(view.services, full->services) << "op " << op;
        ASSERT_EQ(view.neighbours, full->neighbours) << "op " << op;
        break;
      }
    }
  }
  EXPECT_GT(fetches, 3000);
  const auto& stats = responder.cache.stats();
  // The run must actually exercise every answer path.
  EXPECT_GT(stats.not_modified, 0u);
  EXPECT_GT(stats.deltas, 0u);
  EXPECT_GT(stats.full_hits, 0u);
  EXPECT_GT(stats.full_encodes, 0u);
}

}  // namespace
}  // namespace peerhood
