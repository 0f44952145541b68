#include "common/mac_address.hpp"

#include <gtest/gtest.h>

#include <array>
#include <compare>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace peerhood {
namespace {

TEST(MacAddress, DefaultIsNull) {
  MacAddress mac;
  EXPECT_TRUE(mac.is_null());
  EXPECT_EQ(mac.as_u64(), 0u);
}

TEST(MacAddress, FromIndexIsUniqueAndLocal) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const MacAddress mac = MacAddress::from_index(i);
    EXPECT_EQ(mac.octets()[0], 0x02) << "locally administered prefix";
    EXPECT_TRUE(seen.insert(mac.as_u64()).second) << "collision at " << i;
  }
}

TEST(MacAddress, U64RoundTrip) {
  const MacAddress mac = MacAddress::from_index(123456);
  EXPECT_EQ(MacAddress::from_u64(mac.as_u64()), mac);
  // Only six octets exist: the high 16 bits of the word are dropped.
  EXPECT_EQ(MacAddress::from_u64(0xABCD'0000'0000'0001ull).as_u64(), 1u);
}

TEST(MacAddress, ToStringFormat) {
  const MacAddress mac{
      std::array<std::uint8_t, 6>{0x02, 0x00, 0x00, 0x01, 0xE2, 0x40}};
  EXPECT_EQ(mac.to_string(), "02:00:00:01:e2:40");
}

TEST(MacAddress, Ordering) {
  const MacAddress a = MacAddress::from_index(1);
  const MacAddress b = MacAddress::from_index(2);
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

// The address compares as one 48-bit word; that must be exactly the octets'
// lexicographic order (std::array's <=>), which maps and sorted MAC lists
// throughout the stack are built on.
void expect_order_matches_octets(const MacAddress& a, const MacAddress& b) {
  const std::array<std::uint8_t, 6> oa = a.octets();
  const std::array<std::uint8_t, 6> ob = b.octets();
  EXPECT_EQ(a <=> b, oa <=> ob) << a.to_string() << " vs " << b.to_string();
  EXPECT_EQ(a < b, oa < ob) << a.to_string() << " vs " << b.to_string();
  EXPECT_EQ(a == b, oa == ob) << a.to_string() << " vs " << b.to_string();
}

std::vector<MacAddress> order_probes() {
  std::vector<MacAddress> probes;
  // 0x00 and 0xff in each octet position, over an all-0x00, a mid-range and
  // an all-0xff background.
  for (const std::uint8_t background : {0x00, 0x7f, 0xff}) {
    for (std::size_t at = 0; at < 6; ++at) {
      for (const std::uint8_t value : {0x00, 0xff}) {
        std::array<std::uint8_t, 6> octets{};
        octets.fill(background);
        octets[at] = value;
        probes.push_back(MacAddress{octets});
      }
    }
  }
  Rng rng{0x3AC};
  for (int i = 0; i < 200; ++i) {
    std::array<std::uint8_t, 6> octets{};
    for (std::uint8_t& octet : octets) {
      octet = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    probes.push_back(MacAddress{octets});
  }
  return probes;
}

TEST(MacAddress, WordOrderIsOctetOrder) {
  const std::vector<MacAddress> probes = order_probes();
  // Every pair of the 236 probes: 55,696 comparisons.
  for (const MacAddress& a : probes) {
    for (const MacAddress& b : probes) expect_order_matches_octets(a, b);
  }
  // Random pairs that differ only late, where a word compare that got the
  // byte order wrong would disagree most.
  Rng rng{0x3AD};
  for (int i = 0; i < 10000; ++i) {
    std::array<std::uint8_t, 6> oa{};
    for (std::uint8_t& octet : oa) {
      octet = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    std::array<std::uint8_t, 6> ob = oa;
    const auto from = static_cast<std::size_t>(rng.uniform_int(0, 5));
    for (std::size_t at = from; at < 6; ++at) {
      ob[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    expect_order_matches_octets(MacAddress{oa}, MacAddress{ob});
  }
}

TEST(MacAddress, MapIteratesInOctetOrder) {
  std::map<MacAddress, int> by_mac;
  std::map<std::array<std::uint8_t, 6>, int> by_octets;
  int value = 0;
  for (const MacAddress& mac : order_probes()) {
    by_mac.emplace(mac, value);
    by_octets.emplace(mac.octets(), value);
    ++value;
  }
  ASSERT_EQ(by_mac.size(), by_octets.size());
  auto octets_it = by_octets.begin();
  for (const auto& [mac, index] : by_mac) {
    EXPECT_EQ(mac.octets(), octets_it->first);
    EXPECT_EQ(index, octets_it->second);
    ++octets_it;
  }
}

TEST(MacAddress, HashUsableInUnorderedContainers) {
  const MacAddress a = MacAddress::from_index(7);
  const MacAddress b = MacAddress::from_index(7);
  EXPECT_EQ(std::hash<MacAddress>{}(a), std::hash<MacAddress>{}(b));
}

}  // namespace
}  // namespace peerhood
