// Byte-buffer codec for the PeerHood wire protocol. All multi-byte integers
// are big-endian on the wire. Reads are bounds-checked; a read past the end
// marks the reader failed and yields zero values, so decoders can finish a
// parse and check `ok()` once (remote peers are untrusted input).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace peerhood {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  // Pre-sizes the buffer for `n` further bytes. Encoders call this with a
  // cheap size estimate before each message or repeated sub-record; growth
  // stays geometric (never below doubling) so a stream of exact-fit
  // estimates cannot degrade vector growth to per-call reallocations.
  void reserve(std::size_t n) {
    const std::size_t need = out_.size() + n;
    if (need > out_.capacity()) {
      out_.reserve(std::max(need, out_.capacity() * 2));
    }
  }

  // Fixed-width primitives are inline: every encoder calls them per field.
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    std::uint8_t* p = grow(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    std::uint8_t* p = grow(4);
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  // Length-prefixed (u16) string.
  void string(std::string_view v);
  // Length-prefixed (u32) blob.
  void blob(std::span<const std::uint8_t> v);
  void raw(std::span<const std::uint8_t> v);

  [[nodiscard]] const Bytes& bytes() const& { return out_; }
  [[nodiscard]] Bytes&& take() && { return std::move(out_); }

 private:
  // Appends `n` bytes and returns where they start.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  Bytes out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_{data} {}

  // Fixed-width primitives are inline: every decoder calls them per field.
  [[nodiscard]] std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    if (!take(2)) return 0;
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) |
                                              data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    if (!take(4)) return 0;
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    if (!take(8)) return 0;
    const auto hi = static_cast<std::uint64_t>(u32());
    return (hi << 32) | u32();
  }
  [[nodiscard]] std::string string();
  // Zero-copy variant of string(): a view into the underlying buffer, valid
  // only while that buffer lives. Decode hot paths use it so fields that are
  // merely compared — or assigned into a std::string that already has the
  // capacity — never materialise a temporary heap string.
  [[nodiscard]] std::string_view str_view();
  [[nodiscard]] Bytes blob();
  // Zero-copy: the next `n` bytes as a view (empty if fewer remain, which
  // fails the reader), valid only while the underlying buffer lives.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t n) {
    if (!take(n)) return {};
    const std::span<const std::uint8_t> v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  // The read position, and a view of everything read since an earlier one.
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::span<const std::uint8_t> since(std::size_t mark) const {
    return data_.subspan(mark, pos_ - mark);
  }

  // True iff no read has run past the end of the buffer and no decoder
  // called fail() on a semantically invalid field.
  [[nodiscard]] bool ok() const { return !failed_; }
  // Marks the reader failed: decoders reject out-of-domain values (an enum
  // byte outside its range, say) through the same single ok() check that
  // catches truncation.
  void fail() { failed_ = true; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  // Fails the reader (and returns false) unless `n` more bytes remain.
  [[nodiscard]] bool take(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  bool failed_{false};
};

}  // namespace peerhood
