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

std::string MacAddress::to_string() const {
  const std::array<std::uint8_t, 6> o = octets();
  char buffer[18];
  std::snprintf(buffer, sizeof buffer, "%02x:%02x:%02x:%02x:%02x:%02x", o[0],
                o[1], o[2], o[3], o[4], o[5]);
  return std::string{buffer};
}

}  // namespace peerhood
