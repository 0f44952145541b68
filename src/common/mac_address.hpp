// MAC address — the unique device identity used throughout PeerHood.
//
// The paper (§2.3) identifies devices by the MAC address of each network
// interface: "MAC-Address of network interfaces is the most appropriate due
// to the singularity of each interface, even inside the same device."
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

namespace peerhood {

class MacAddress {
 public:
  constexpr MacAddress() = default;

  constexpr explicit MacAddress(std::array<std::uint8_t, 6> octets) {
    for (const std::uint8_t octet : octets) packed_ = (packed_ << 8) | octet;
  }

  // Deterministically derives a MAC from a small integer; used by the
  // simulator to mint unique interface identities.
  [[nodiscard]] static MacAddress from_index(std::uint64_t index);

  [[nodiscard]] constexpr std::array<std::uint8_t, 6> octets() const {
    std::array<std::uint8_t, 6> octets{};
    std::uint64_t packed = packed_;
    for (int i = 5; i >= 0; --i) {
      octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(packed);
      packed >>= 8;
    }
    return octets;
  }

  // The six octets in the low 48 bits of a u64, big-endian (first octet
  // highest) — which is how the address is stored.
  [[nodiscard]] constexpr std::uint64_t as_u64() const { return packed_; }

  // Keeps the low 48 bits of `packed`.
  [[nodiscard]] static constexpr MacAddress from_u64(std::uint64_t packed) {
    MacAddress mac;
    mac.packed_ = packed & kMask;
    return mac;
  }

  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] constexpr bool is_null() const { return packed_ == 0; }

  // One 48-bit word compare: with the first octet in the highest bits this
  // is the octets' lexicographic order, and every std::map<MacAddress, ...>
  // probe is a single integer compare instead of a memcmp call.
  friend constexpr auto operator<=>(const MacAddress&,
                                    const MacAddress&) = default;

 private:
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << 48) - 1;

  std::uint64_t packed_{0};
};

}  // namespace peerhood

template <>
struct std::hash<peerhood::MacAddress> {
  std::size_t operator()(const peerhood::MacAddress& mac) const noexcept {
    return std::hash<std::uint64_t>{}(mac.as_u64());
  }
};
