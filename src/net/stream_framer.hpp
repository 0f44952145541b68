// Length-prefix framing for byte streams (the TCP leg of PosixNetwork).
//
// A TCP connection delivers an ordered byte stream with arbitrary read
// boundaries — a frame can arrive split across any number of reads, or
// glued to its neighbours. StreamFramer reassembles:
//
//   [u16 magic 'PH'][u16 body_len][u32 frame_checksum(body)][body ...]
//
// The length+checksum part is exactly the net/frame_check.hpp header, so a
// stream frame is magic + sealed frame and the two integrity planes share
// one checksum implementation: the four-lane word-wide hash, which detects
// every single-byte corruption of a body with certainty.
//
// Corruption contract: a stream, unlike a datagram, has no frame boundary
// to fall back on — after any integrity failure (bad magic, bad checksum,
// length inconsistency) the decoder cannot know where the next frame
// starts. The framer therefore *latches* the error: no further frames are
// emitted, and the owner must close the connection (kill -9, RST and
// middlebox mangling all land here). It never crashes and never desyncs:
// every frame emitted before the error was verified whole.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"

namespace peerhood::net {

// 'P','H' — detects cross-talk and framing bugs before the checksum does.
inline constexpr std::uint16_t kStreamMagic = 0x5048;
inline constexpr std::size_t kStreamHeaderSize = 8;  // magic + len + checksum

// One allocation: magic + sealed integrity header + body.
[[nodiscard]] Bytes encode_stream_frame(std::span<const std::uint8_t> body);

class StreamFramer {
 public:
  // Appends raw stream bytes. Cheap to call with any split — single bytes,
  // half headers, many frames at once.
  void feed(std::span<const std::uint8_t> data);

  // Returns the next complete, verified frame body, or nullopt when more
  // bytes are needed (or the framer is poisoned). Call in a loop after each
  // feed.
  [[nodiscard]] std::optional<Bytes> next();

  // True after any integrity failure: the stream position is untrustworthy
  // and the connection must be closed.
  [[nodiscard]] bool poisoned() const { return poisoned_; }

  // Bytes buffered but not yet emitted (bounded by one max frame plus one
  // read's worth of input; the poll loop drains eagerly).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - head_; }

 private:
  Bytes buffer_;
  std::size_t head_{0};
  bool poisoned_{false};
};

}  // namespace peerhood::net
