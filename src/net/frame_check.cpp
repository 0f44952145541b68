#include "net/frame_check.hpp"

#include <cassert>

namespace peerhood::net {

namespace {

// The xxHash32 primes.
constexpr std::uint32_t kPrime1 = 0x9E3779B1u;
constexpr std::uint32_t kPrime2 = 0x85EBCA77u;
constexpr std::uint32_t kPrime3 = 0xC2B2AE3Du;
constexpr std::uint32_t kPrime4 = 0x27D4EB2Fu;
constexpr std::uint32_t kPrime5 = 0x165667B1u;

constexpr std::uint32_t rotl(std::uint32_t v, int r) {
  return (v << r) | (v >> (32 - r));
}

// Little-endian load; compiles to one mov on little-endian targets, and
// keeps the checksum identical on big-endian ones.
std::uint32_t load_word(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// One lane step: bijective in `lane` for a fixed word and in `word` for a
// fixed lane (odd multipliers are invertible mod 2^32, rotation permutes).
constexpr std::uint32_t lane_round(std::uint32_t lane, std::uint32_t word) {
  return rotl(lane + word * kPrime2, 13) * kPrime1;
}

}  // namespace

std::uint32_t frame_checksum(std::span<const std::uint8_t> body) {
  const std::uint8_t* p = body.data();
  const std::uint8_t* const end = p + body.size();
  std::uint32_t hash;
  if (body.size() >= 16) {
    std::uint32_t lanes[4] = {kPrime1 + kPrime2, kPrime2, 0u, 0u - kPrime1};
    for (const std::uint8_t* const limit = end - 16; p <= limit; p += 16) {
      lanes[0] = lane_round(lanes[0], load_word(p));
      lanes[1] = lane_round(lanes[1], load_word(p + 4));
      lanes[2] = lane_round(lanes[2], load_word(p + 8));
      lanes[3] = lane_round(lanes[3], load_word(p + 12));
    }
    // A sum is bijective in each addend: a change in one lane survives.
    hash = rotl(lanes[0], 1) + rotl(lanes[1], 7) + rotl(lanes[2], 12) +
           rotl(lanes[3], 18);
  } else {
    hash = kPrime5;
  }
  hash += static_cast<std::uint32_t>(body.size());
  for (; end - p >= 4; p += 4) {
    hash = rotl(hash + load_word(p) * kPrime3, 17) * kPrime4;
  }
  for (; p < end; ++p) {
    hash = rotl(hash + *p * kPrime5, 11) * kPrime1;
  }
  // Avalanche: xorshifts and odd multiplies, each a bijection.
  hash ^= hash >> 15;
  hash *= kPrime2;
  hash ^= hash >> 13;
  hash *= kPrime3;
  hash ^= hash >> 16;
  return hash;
}

void begin_frame(ByteWriter& writer) {
  writer.u16(0);
  writer.u32(0);
}

void seal_frame(Bytes& frame) {
  assert(frame.size() >= kFrameHeaderSize);
  const std::size_t body_len = frame.size() - kFrameHeaderSize;
  assert(body_len <= 0xffff);
  const std::span<const std::uint8_t> body{frame.data() + kFrameHeaderSize,
                                           body_len};
  const std::uint32_t checksum = frame_checksum(body);
  frame[0] = static_cast<std::uint8_t>(body_len >> 8);
  frame[1] = static_cast<std::uint8_t>(body_len & 0xff);
  frame[2] = static_cast<std::uint8_t>(checksum >> 24);
  frame[3] = static_cast<std::uint8_t>((checksum >> 16) & 0xff);
  frame[4] = static_cast<std::uint8_t>((checksum >> 8) & 0xff);
  frame[5] = static_cast<std::uint8_t>(checksum & 0xff);
}

std::optional<std::span<const std::uint8_t>> check_frame(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kFrameHeaderSize) return std::nullopt;
  const std::size_t body_len =
      (static_cast<std::size_t>(frame[0]) << 8) | frame[1];
  if (body_len != frame.size() - kFrameHeaderSize) return std::nullopt;
  const std::uint32_t claimed = (static_cast<std::uint32_t>(frame[2]) << 24) |
                                (static_cast<std::uint32_t>(frame[3]) << 16) |
                                (static_cast<std::uint32_t>(frame[4]) << 8) |
                                static_cast<std::uint32_t>(frame[5]);
  const std::span<const std::uint8_t> body = frame.subspan(kFrameHeaderSize);
  if (frame_checksum(body) != claimed) return std::nullopt;
  return body;
}

}  // namespace peerhood::net
