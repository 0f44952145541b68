#include "common/bytes.hpp"

#include <limits>

namespace peerhood {

void ByteWriter::string(std::string_view v) {
  const auto n = std::min<std::size_t>(
      v.size(), std::numeric_limits<std::uint16_t>::max());
  u16(static_cast<std::uint16_t>(n));
  out_.insert(out_.end(), v.begin(), v.begin() + static_cast<long>(n));
}

void ByteWriter::blob(std::span<const std::uint8_t> v) {
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void ByteWriter::raw(std::span<const std::uint8_t> v) {
  out_.insert(out_.end(), v.begin(), v.end());
}

std::string ByteReader::string() {
  return std::string{str_view()};
}

std::string_view ByteReader::str_view() {
  const std::size_t n = u16();
  if (!take(n)) return {};
  const std::string_view out{
      reinterpret_cast<const char*>(data_.data() + pos_), n};
  pos_ += n;
  return out;
}

Bytes ByteReader::blob() {
  const std::size_t n = u32();
  if (!take(n)) return {};
  Bytes out{data_.begin() + static_cast<long>(pos_),
            data_.begin() + static_cast<long>(pos_ + n)};
  pos_ += n;
  return out;
}

}  // namespace peerhood
