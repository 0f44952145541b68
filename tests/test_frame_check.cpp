// The frame integrity header (net/frame_check.hpp): seal/check round trips,
// the checksum's single-byte detection guarantee, and pinned values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "net/frame_check.hpp"

namespace peerhood::net {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// A body whose bytes all differ from their neighbours and lanes.
Bytes patterned_body(std::size_t length) {
  Bytes body(length);
  for (std::size_t i = 0; i < length; ++i) {
    body[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return body;
}

Bytes sealed(const Bytes& body) {
  ByteWriter writer;
  begin_frame(writer);
  writer.raw(body);
  Bytes frame = std::move(writer).take();
  seal_frame(frame);
  return frame;
}

TEST(FrameCheck, ChecksumIsXxHash32) {
  // Published xxHash32 (seed 0) test vectors; any change to the function
  // changes every sealed frame on the wire.
  EXPECT_EQ(frame_checksum(bytes_of("")), 0x02CC5D05u);
  EXPECT_EQ(frame_checksum(bytes_of("a")), 0x550D7456u);
  EXPECT_EQ(frame_checksum(bytes_of("abc")), 0x32D153FFu);
  EXPECT_EQ(frame_checksum(
                bytes_of("Nobody inspects the spammish repetition")),
            0xE2293B2Fu);
}

TEST(FrameCheck, SealThenCheckRoundTrips) {
  for (std::size_t length = 0; length <= 70; ++length) {
    const Bytes body = patterned_body(length);
    const Bytes frame = sealed(body);
    ASSERT_EQ(frame.size(), kFrameHeaderSize + length);
    const auto checked = check_frame(frame);
    ASSERT_TRUE(checked.has_value()) << "length " << length;
    EXPECT_TRUE(std::equal(checked->begin(), checked->end(), body.begin(),
                           body.end()));
  }
}

TEST(FrameCheck, EverySingleByteChangeIsDetected) {
  // Lengths 0-70 cover bodies shorter than one 16-byte lane stripe, whole
  // stripes, and every tail shape (0-3 words, then 0-3 bytes). Every value
  // of every byte position must change the checksum; a sealed frame with
  // any one byte changed — header included — must fail the check.
  std::uint64_t misses = 0;
  for (std::size_t length = 0; length <= 70; ++length) {
    const Bytes body = patterned_body(length);
    const std::uint32_t reference = frame_checksum(body);
    Bytes mutated = body;
    for (std::size_t pos = 0; pos < length; ++pos) {
      for (int delta = 1; delta < 256; ++delta) {
        mutated[pos] = static_cast<std::uint8_t>(body[pos] + delta);
        if (frame_checksum(mutated) == reference) ++misses;
      }
      mutated[pos] = body[pos];
    }
    Bytes frame = sealed(body);
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      const std::uint8_t original = frame[pos];
      for (int delta = 1; delta < 256; ++delta) {
        frame[pos] = static_cast<std::uint8_t>(original + delta);
        if (check_frame(frame).has_value()) ++misses;
      }
      frame[pos] = original;
    }
  }
  EXPECT_EQ(misses, 0u);
}

TEST(FrameCheck, TruncatedOrPaddedFramesFail) {
  const Bytes frame = sealed(patterned_body(20));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(check_frame({frame.data(), cut}).has_value()) << cut;
  }
  Bytes padded = frame;
  padded.push_back(0);
  EXPECT_FALSE(check_frame(padded).has_value());
}

TEST(FrameCheck, DatagramFrameIsSealedWithTag) {
  const Bytes payload{9, 8, 7};
  const FramePtr frame = make_datagram_frame(
      payload.size(), [&payload](ByteWriter& writer) { writer.raw(payload); });
  ASSERT_NE(frame, nullptr);
  const auto body = check_frame(*frame);
  ASSERT_TRUE(body.has_value());
  ASSERT_EQ(body->size(), 1 + payload.size());
  EXPECT_EQ((*body)[0], kDatagramFrameTag);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), body->begin() + 1));
}

}  // namespace
}  // namespace peerhood::net
