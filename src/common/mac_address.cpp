#include "common/mac_address.hpp"

#include <cstdio>

namespace peerhood {

MacAddress MacAddress::from_index(std::uint64_t index) {
  // Locally-administered unicast prefix 02: keeps simulated MACs out of any
  // vendor OUI space.
  std::array<std::uint8_t, 6> octets{};
  octets[0] = 0x02;
  octets[1] = static_cast<std::uint8_t>(index >> 32);
  octets[2] = static_cast<std::uint8_t>(index >> 24);
  octets[3] = static_cast<std::uint8_t>(index >> 16);
  octets[4] = static_cast<std::uint8_t>(index >> 8);
  octets[5] = static_cast<std::uint8_t>(index);
  return MacAddress{octets};
}

std::optional<MacAddress> MacAddress::parse(std::string_view text) {
  if (text.size() != 17) return std::nullopt;
  std::array<std::uint8_t, 6> octets{};
  for (int i = 0; i < 6; ++i) {
    const std::size_t pos = static_cast<std::size_t>(i) * 3;
    auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    const int hi = hex(text[pos]);
    const int lo = hex(text[pos + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    if (i < 5 && text[pos + 2] != ':') return std::nullopt;
    octets[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(hi * 16 + lo);
  }
  return MacAddress{octets};
}

std::string MacAddress::to_string() const {
  const std::array<std::uint8_t, 6> o = octets();
  char buffer[18];
  std::snprintf(buffer, sizeof buffer, "%02x:%02x:%02x:%02x:%02x:%02x", o[0],
                o[1], o[2], o[3], o[4], o[5]);
  return std::string{buffer};
}

}  // namespace peerhood
