// MAC address — the unique device identity used throughout PeerHood.
//
// The paper (§2.3) identifies devices by the MAC address of each network
// interface: "MAC-Address of network interfaces is the most appropriate due
// to the singularity of each interface, even inside the same device."
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace peerhood {

class MacAddress {
 public:
  constexpr MacAddress() = default;

  constexpr explicit MacAddress(std::array<std::uint8_t, 6> octets)
      : octets_{octets} {}

  // Deterministically derives a MAC from a small integer; used by the
  // simulator to mint unique interface identities.
  [[nodiscard]] static MacAddress from_index(std::uint64_t index);

  // Parses "aa:bb:cc:dd:ee:ff"; returns nullopt on malformed input.
  [[nodiscard]] static std::optional<MacAddress> parse(std::string_view text);

  [[nodiscard]] const std::array<std::uint8_t, 6>& octets() const {
    return octets_;
  }

  // Packs the six octets into the low 48 bits of a u64 (big-endian order).
  // Inline: hash keys and wire encoders call it on every frame.
  [[nodiscard]] constexpr std::uint64_t as_u64() const {
    std::uint64_t packed = 0;
    for (const std::uint8_t octet : octets_) packed = (packed << 8) | octet;
    return packed;
  }

  [[nodiscard]] static constexpr MacAddress from_u64(std::uint64_t packed) {
    std::array<std::uint8_t, 6> octets{};
    for (int i = 5; i >= 0; --i) {
      octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(packed);
      packed >>= 8;
    }
    return MacAddress{octets};
  }

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] bool is_null() const { return as_u64() == 0; }

  friend auto operator<=>(const MacAddress&, const MacAddress&) = default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

}  // namespace peerhood

template <>
struct std::hash<peerhood::MacAddress> {
  std::size_t operator()(const peerhood::MacAddress& mac) const noexcept {
    return std::hash<std::uint64_t>{}(mac.as_u64());
  }
};
