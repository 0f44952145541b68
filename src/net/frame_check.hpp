// Wire-frame integrity: every SimNetwork frame carries a 6-byte header —
// u16 body length + u32 checksum of the body — so bit corruption on the
// medium (sim/fault.hpp) is detected and the frame dropped at the receiver
// instead of feeding mangled bytes to the decoders. The decoders stay
// untrusted-input-strict regardless: the checksum is a fault *counter*, not
// the security boundary.
//
// The checksum is xxHash32 (seed 0): a four-lane multiply-rotate hash over
// little-endian 32-bit words. Each lane absorbs every fourth word, the
// lanes are summed, the tail words and bytes are folded in one at a time
// and a final avalanche mixes the result. Every step is a bijection
// of the running state for a fixed input word, and of the input word for a
// fixed state, so any change confined to one word — in particular any
// single-byte corruption — changes the checksum with certainty. Multi-word
// corruption is missed with probability about 2^-32.
//
// Frames are built with a 6-byte placeholder (begin_frame) and sealed in
// place once the body is complete, so the send path stays single-buffer;
// shared cached frames (SnapshotCache) bake the sealed header into the
// buffer once and every requester ships the same allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/bytes.hpp"

namespace peerhood::net {

// u16 body length + u32 checksum.
inline constexpr std::size_t kFrameHeaderSize = 6;

// Header of a SimNetwork connection frame: the integrity header, the frame
// kind and the u64 connection id. A frame written through
// Connection::write_with_room starts with this much room for it.
inline constexpr std::size_t kConnFrameHeaderSize = kFrameHeaderSize + 1 + 8;

// First body byte of every frame carrying a datagram (the other body tags
// are the sim backend's connection frames).
inline constexpr std::uint8_t kDatagramFrameTag = 0;

// Shared immutable frame buffer (one allocation, many sends).
using FramePtr = std::shared_ptr<const Bytes>;

// xxHash32 (seed 0) of the body bytes (see the header comment).
[[nodiscard]] std::uint32_t frame_checksum(std::span<const std::uint8_t> body);

// Reserves the header: writes kFrameHeaderSize zero bytes. The frame body
// follows; seal_frame fills the header in afterwards.
void begin_frame(ByteWriter& writer);

// Overwrites the placeholder at frame[0..5] with the real length + checksum
// of everything after it. The body must fit a u16 (asserted; medium frames
// are hundreds of bytes).
void seal_frame(Bytes& frame);

// Builds a sealed datagram frame in one buffer: header placeholder,
// kDatagramFrameTag, then whatever `write_body(ByteWriter&)` appends, sealed
// in place. `body_size_hint` pre-sizes the buffer; an upper bound on the
// body size keeps the frame to one buffer plus one control block.
template <typename WriteBody>
[[nodiscard]] FramePtr make_datagram_frame(std::size_t body_size_hint,
                                           WriteBody&& write_body) {
  ByteWriter writer;
  writer.reserve(kFrameHeaderSize + 1 + body_size_hint);
  begin_frame(writer);
  writer.u8(kDatagramFrameTag);
  std::forward<WriteBody>(write_body)(writer);
  Bytes frame = std::move(writer).take();
  seal_frame(frame);
  return std::make_shared<const Bytes>(std::move(frame));
}

// Verifies the header; returns the body span on success, nullopt when the
// frame is truncated, length-inconsistent or fails the checksum.
[[nodiscard]] std::optional<std::span<const std::uint8_t>> check_frame(
    std::span<const std::uint8_t> frame);

}  // namespace peerhood::net
