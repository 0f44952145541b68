// Deterministic random number generation (xoshiro256**). Every stochastic
// element of the simulation — connect delays, failure injection, mobility —
// draws from an explicitly seeded Rng so whole-system runs replay exactly.
#pragma once

#include <cstdint>

namespace peerhood {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  [[nodiscard]] std::uint64_t next_u64();

  // Uniform double in [0, 1).
  [[nodiscard]] double next_double();

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p);

  // Exponentially distributed value with the given mean.
  [[nodiscard]] double exponential(double mean);

  // Derives an independent child stream; used to give each simulated device
  // its own stream so that adding devices does not perturb others.
  [[nodiscard]] Rng fork();

 private:
  std::uint64_t state_[4];
};

}  // namespace peerhood
