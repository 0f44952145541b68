#include "net/stream_framer.hpp"

#include <cassert>

#include "net/frame_check.hpp"

namespace peerhood::net {

Bytes encode_stream_frame(std::span<const std::uint8_t> body) {
  assert(body.size() <= 0xffff);  // Connection::write refuses larger frames
  Bytes frame;
  frame.reserve(kStreamHeaderSize + body.size());
  frame.push_back(static_cast<std::uint8_t>(kStreamMagic >> 8));
  frame.push_back(static_cast<std::uint8_t>(kStreamMagic & 0xff));
  // The remainder is a standard sealed frame: 6-byte placeholder, body,
  // seal in place.
  frame.resize(frame.size() + kFrameHeaderSize);
  frame.insert(frame.end(), body.begin(), body.end());
  // seal_frame seals from offset 0; the magic prefix means we seal a view.
  // Re-seal manually: u16 len + u32 checksum at offsets 2..7.
  const std::size_t body_len = body.size();
  frame[2] = static_cast<std::uint8_t>(body_len >> 8);
  frame[3] = static_cast<std::uint8_t>(body_len & 0xff);
  const std::uint32_t sum = frame_checksum(body);
  frame[4] = static_cast<std::uint8_t>(sum >> 24);
  frame[5] = static_cast<std::uint8_t>(sum >> 16);
  frame[6] = static_cast<std::uint8_t>(sum >> 8);
  frame[7] = static_cast<std::uint8_t>(sum & 0xff);
  return frame;
}

void StreamFramer::feed(std::span<const std::uint8_t> data) {
  if (poisoned_) return;  // the stream is already untrustworthy
  // Compact before growing: keeps the buffer bounded by (one frame + one
  // read) instead of the whole connection history.
  if (head_ > 0 && head_ == buffer_.size()) {
    buffer_.clear();
    head_ = 0;
  } else if (head_ > kStreamHeaderSize + 0xffff) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<Bytes> StreamFramer::next() {
  if (poisoned_) return std::nullopt;
  const std::size_t avail = buffer_.size() - head_;
  if (avail < kStreamHeaderSize) return std::nullopt;
  const std::uint8_t* p = buffer_.data() + head_;
  const std::uint16_t magic =
      static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  if (magic != kStreamMagic) {
    poisoned_ = true;
    return std::nullopt;
  }
  const std::size_t body_len = static_cast<std::size_t>((p[2] << 8) | p[3]);
  const std::size_t total = kStreamHeaderSize + body_len;
  if (avail < total) return std::nullopt;  // partial frame: wait for more
  // Verify with the shared integrity checker over the sealed part
  // (len + checksum + body).
  const auto body = check_frame(
      std::span<const std::uint8_t>{p + 2, kFrameHeaderSize + body_len});
  if (!body.has_value()) {
    poisoned_ = true;
    return std::nullopt;
  }
  Bytes out{body->begin(), body->end()};
  head_ += total;
  return out;
}

}  // namespace peerhood::net
