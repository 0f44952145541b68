#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

namespace peerhood {
namespace {

// SplitMix64 seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

bool Rng::bernoulli(double p) {
  return next_double() < std::clamp(p, 0.0, 1.0);
}

double Rng::exponential(double mean) {
  // Inverse-CDF sampling; next_double() < 1 so the log argument is > 0.
  return -mean * std::log(1.0 - next_double());
}

Rng Rng::fork() { return Rng{next_u64()}; }

}  // namespace peerhood
