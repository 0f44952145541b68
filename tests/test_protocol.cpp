#include "peerhood/protocol.hpp"

#include <gtest/gtest.h>

#include "reference_fetch_decoder.hpp"

namespace peerhood::wire {
namespace {

DeviceInfo sample_device(std::uint64_t index) {
  DeviceInfo device;
  device.mac = MacAddress::from_index(index);
  device.name = "device-" + std::to_string(index);
  device.checksum = static_cast<std::uint32_t>(index * 17);
  device.mobility = MobilityClass::kHybrid;
  return device;
}

TEST(Protocol, DeviceRoundTrip) {
  const DeviceInfo device = sample_device(3);
  ByteWriter writer;
  encode_device(writer, device);
  ByteReader reader{writer.bytes()};
  EXPECT_EQ(decode_device(reader), device);
  EXPECT_TRUE(reader.ok());
}

TEST(Protocol, ServiceRoundTrip) {
  const ServiceInfo service{"picture.analyse", "compute", 42};
  ByteWriter writer;
  encode_service(writer, service);
  ByteReader reader{writer.bytes()};
  EXPECT_EQ(decode_service(reader), service);
}

TEST(Protocol, FetchRequestRoundTrip) {
  const FetchRequest request{77, kSectionDevice | kSectionNeighbours};
  const auto decoded = decode_fetch_request(encode(request));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->sections, kSectionDevice | kSectionNeighbours);
  EXPECT_FALSE(decoded->baseline.has_value());
}

TEST(Protocol, FetchRequestBaselineRoundTrip) {
  FetchRequest request{78, kSectionAll};
  SectionGens gens;
  gens.device = 1;
  gens.prototypes = 2;
  gens.services = 0xffffffffu;  // wraparound values are plain payload
  gens.neighbours = 940;
  request.baseline = FetchBaseline{0xabcdef0123456789ull, gens};
  const auto decoded = decode_fetch_request(encode(request));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->baseline.has_value());
  EXPECT_EQ(*decoded->baseline, *request.baseline);
}

TEST(Protocol, NotModifiedRoundTrip) {
  FetchResponse response;
  response.not_modified = true;
  response.request_id = 5;
  response.load_percent = 61;
  const Bytes frame = encode(response);
  EXPECT_EQ(peek_command(frame), Command::kNotModified);
  ReceivedFetchResponse decoded;
  ASSERT_TRUE(decode_fetch_response(frame, decoded));
  EXPECT_TRUE(decoded.not_modified);
  EXPECT_EQ(decoded.request_id, 5u);
  EXPECT_EQ(decoded.load_percent, 61);
  EXPECT_EQ(decoded.sections, 0);
}

TEST(Protocol, ResponseCarriesEpochAndSectionGens) {
  FetchResponse response;
  response.request_id = 12;
  response.sections = kSectionServices | kSectionNeighbours;
  response.epoch = 0x1122334455667788ull;
  response.gens.services = 7;
  response.gens.neighbours = 0xffffffffu;
  response.services = {{"svc", "", 3}};
  const Bytes frame = encode(response);
  ReceivedFetchResponse decoded;
  ASSERT_TRUE(decode_fetch_response(frame, decoded));
  EXPECT_EQ(decoded.epoch, response.epoch);
  EXPECT_EQ(decoded.gens.services, 7u);
  EXPECT_EQ(decoded.gens.neighbours, 0xffffffffu);
  EXPECT_EQ(decoded.services, response.services);
  EXPECT_FALSE(decoded.not_modified);
}

TEST(Protocol, RequestRejectsUnknownSectionBits) {
  Bytes frame = encode(FetchRequest{3, kSectionAll});
  frame[5] = 0x90;  // sections byte: unknown high bits
  EXPECT_FALSE(decode_fetch_request(frame).has_value());
}

TEST(Protocol, ResponseRejectsUnknownSectionBits) {
  FetchResponse response;
  response.sections = kSectionDevice;
  response.device = sample_device(2);
  Bytes frame = encode(response);
  frame[5] = 0x90;  // sections byte: unknown high bits
  ReceivedFetchResponse decoded;
  EXPECT_FALSE(decode_fetch_response(frame, decoded));
}

TEST(Protocol, FetchResponseFullRoundTrip) {
  FetchResponse response;
  response.request_id = 9;
  response.sections = kSectionAll;
  response.load_percent = 25;
  response.device = sample_device(1);
  response.prototypes = {Technology::kBluetooth, Technology::kWlan};
  response.services = {{"svc-a", "", 10}, {"svc-b", "hidden", 11}};

  NeighbourSnapshotEntry entry;
  entry.device = sample_device(2);
  entry.prototypes = {Technology::kGprs};
  entry.services = {{"remote", "attr", 5}};
  entry.jump = 2;
  entry.bridge = MacAddress::from_index(7);
  entry.quality_sum = 480;
  entry.min_link_quality = 231;
  response.neighbours.push_back(entry);

  const auto decoded = reference_decode_fetch_response(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 9u);
  EXPECT_EQ(decoded->load_percent, 25);
  EXPECT_EQ(decoded->device, response.device);
  EXPECT_EQ(decoded->prototypes, response.prototypes);
  EXPECT_EQ(decoded->services, response.services);
  ASSERT_EQ(decoded->neighbours.size(), 1u);
  const NeighbourSnapshotEntry& back = decoded->neighbours[0];
  EXPECT_EQ(back.device, entry.device);
  EXPECT_EQ(back.jump, 2);
  EXPECT_EQ(back.bridge, entry.bridge);
  EXPECT_EQ(back.quality_sum, 480);
  EXPECT_EQ(back.min_link_quality, 231);
}

TEST(Protocol, FetchResponseEntriesAreViewsIntoTheFrame) {
  FetchResponse response;
  response.sections = kSectionNeighbours;
  NeighbourSnapshotEntry entry;
  entry.device = sample_device(2);
  entry.prototypes = {Technology::kGprs, Technology::kBluetooth};
  entry.services = {{"remote", "attr", 5}, {"other", "", 6}};
  entry.jump = 1;
  entry.bridge = MacAddress::from_index(7);
  entry.quality_sum = 480;
  entry.min_link_quality = 231;
  response.neighbours.push_back(entry);
  const Bytes frame = encode(response);

  ReceivedFetchResponse decoded;
  ASSERT_TRUE(decode_fetch_response(frame, decoded));
  ASSERT_EQ(decoded.neighbours.size(), 1u);
  const SnapshotEntryView& view = decoded.neighbours[0];
  const auto inside = [&frame](const void* p) {
    const auto* byte = static_cast<const std::uint8_t*>(p);
    return byte >= frame.data() && byte < frame.data() + frame.size();
  };
  EXPECT_TRUE(inside(view.device.name.data()));
  EXPECT_TRUE(inside(view.prototypes.data()));
  EXPECT_TRUE(inside(view.services.bytes.data()));
  EXPECT_EQ(view.device.name, entry.device.name);
  EXPECT_EQ(view.services.count, 2u);
  EXPECT_EQ(view.jump, 1);
  EXPECT_EQ(view.bridge, entry.bridge);
  EXPECT_EQ(view.quality_sum, 480);
  EXPECT_EQ(view.min_link_quality, 231);
  EXPECT_EQ(materialise(view), entry);

  // Descriptor comparison against a stored record, one field at a time.
  DeviceRecord stored;
  view.copy_descriptors_to(stored);
  EXPECT_TRUE(view.same_descriptors(stored));
  DeviceRecord renamed = stored;
  renamed.device.name += "x";
  EXPECT_FALSE(view.same_descriptors(renamed));
  DeviceRecord reordered = stored;
  std::swap(reordered.prototypes[0], reordered.prototypes[1]);
  EXPECT_FALSE(view.same_descriptors(reordered));
  DeviceRecord reported = stored;
  reported.services[1].port = 7;
  EXPECT_FALSE(view.same_descriptors(reported));
}

TEST(Protocol, FetchResponsePartialSections) {
  FetchResponse response;
  response.request_id = 4;
  response.sections = kSectionServices;
  response.services = {{"only-services", "", 1}};
  const Bytes frame = encode(response);
  ReceivedFetchResponse decoded;
  ASSERT_TRUE(decode_fetch_response(frame, decoded));
  EXPECT_TRUE(decoded.neighbours.empty());
  EXPECT_TRUE(decoded.device.mac.is_null());
  ASSERT_EQ(decoded.services.size(), 1u);
}

// Every first frame encode_open writes — each opening request, sent
// directly to its destination or through a bridge, with and without pushed
// client parameters — decodes to the handshake it stands for.
TEST(Protocol, OpeningFramesRoundTrip) {
  const MacAddress destination = MacAddress::from_index(66);
  const MacAddress bridge = MacAddress::from_index(9);
  ClientParams params;
  params.device = sample_device(11);
  params.tech = Technology::kWlan;
  params.reconnect_service = "client.result";
  params.port = 8;
  struct Entry {
    Command command;
    MacAddress hop;
  };
  const Entry table[] = {
      {Command::kConnect, destination},  {Command::kConnect, bridge},
      {Command::kResume, destination},   {Command::kResume, bridge},
      {Command::kResumeRestart, destination},
      {Command::kResumeRestart, bridge},
  };
  for (const Entry& entry : table) {
    for (const bool with_params : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "command " << static_cast<int>(entry.command)
                   << (entry.hop == bridge ? " via bridge" : " direct")
                   << (with_params ? " with params" : ""));
      ConnectRequest request;
      request.session_id = 0xABCD;
      request.service = "picture.analyse";
      if (with_params) request.client_params = params;
      const auto decoded = decode_handshake(
          encode_open(entry.command, entry.hop, destination, request));
      ASSERT_TRUE(decoded.has_value());
      const ConnectRequest* inner = &decoded->connect;
      if (entry.hop == bridge) {
        EXPECT_EQ(decoded->command, Command::kBridge);
        EXPECT_EQ(decoded->bridge.destination, destination);
        EXPECT_EQ(decoded->bridge.final_command, entry.command);
        inner = &decoded->bridge.inner;
      } else {
        EXPECT_EQ(decoded->command, entry.command);
      }
      EXPECT_EQ(inner->session_id, 0xABCDu);
      EXPECT_EQ(inner->service, "picture.analyse");
      EXPECT_EQ(inner->client_params, request.client_params);
    }
  }
}

TEST(Protocol, BridgeRejectsBadFinalCommand) {
  ConnectRequest request;
  request.service = "x";
  const Bytes frame = encode_open(Command::kConnect, MacAddress::from_index(9),
                                  MacAddress::from_index(66), request);
  // Corrupt the final-command byte (offset: cmd(1) + mac(8)): neither an
  // unknown command nor a nested PH_BRIDGE is a request a bridge can relay.
  for (const std::uint8_t bad :
       {std::uint8_t{0x63}, static_cast<std::uint8_t>(Command::kBridge)}) {
    Bytes corrupted = frame;
    corrupted[9] = bad;
    EXPECT_FALSE(decode_handshake(corrupted).has_value()) << int{bad};
  }
}

TEST(Protocol, OkAndFail) {
  const auto ok = decode_handshake(encode_ok());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->command, Command::kOk);

  const auto fail =
      decode_handshake(encode_fail(ErrorCode::kNoRoute, "nothing"));
  ASSERT_TRUE(fail.has_value());
  EXPECT_EQ(fail->command, Command::kFail);
  EXPECT_EQ(fail->fail.code, ErrorCode::kNoRoute);
  EXPECT_EQ(fail->fail.message, "nothing");
}

TEST(Protocol, MalformedInputRejected) {
  EXPECT_FALSE(decode_handshake(Bytes{}).has_value());
  EXPECT_FALSE(decode_handshake(Bytes{0x63}).has_value());
  // Truncated connect.
  ConnectRequest request;
  request.service = "abcdef";
  Bytes frame = encode_open(Command::kConnect, MacAddress::from_index(1),
                            MacAddress::from_index(1), request);
  frame.resize(frame.size() / 2);
  EXPECT_FALSE(decode_handshake(frame).has_value());
  EXPECT_FALSE(decode_fetch_request(Bytes{1, 2}).has_value());
  ReceivedFetchResponse response;
  EXPECT_FALSE(decode_fetch_response(Bytes{2, 0}, response));
}

TEST(Protocol, PeekCommand) {
  EXPECT_EQ(peek_command(encode_ok()), Command::kOk);
  EXPECT_EQ(peek_command(Bytes{}), std::nullopt);
}

TEST(Protocol, FuzzDecodersDoNotCrash) {
  Rng rng{2024};
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(static_cast<std::size_t>(rng.uniform_int(0, 64)), 0);
    for (auto& byte : junk) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode_handshake(junk);
    (void)decode_fetch_request(junk);
    ReceivedFetchResponse response;
    (void)decode_fetch_response(junk, response);
    (void)peek_command(junk);
  }
  SUCCEED();
}

}  // namespace
}  // namespace peerhood::wire
