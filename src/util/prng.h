// Deterministic, seedable pseudo-random number generation.
//
// Everything in this repository that needs randomness (RMAT generation, SGD edge
// shuffling, sampled workloads) goes through Xorshift64Star so that runs are exactly
// reproducible from a seed, independent of the standard library implementation.
#ifndef MAZE_UTIL_PRNG_H_
#define MAZE_UTIL_PRNG_H_

#include <cstdint>

#include "util/check.h"

namespace maze {

// xorshift64* generator: tiny state, good statistical quality for workload
// generation, and identical output on every platform.
class Xorshift64Star {
 public:
  explicit Xorshift64Star(uint64_t seed = 0x9E3779B97F4A7C15ull)
      : state_(seed != 0 ? seed : 0x9E3779B97F4A7C15ull) {}

  // Next raw 64-bit value.
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    MAZE_DCHECK(bound > 0);
    // Multiply-shift reduction avoids the modulo bias for our bound sizes.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Advances the generator exactly as `steps` calls to Next() would. The
  // state update is linear over GF(2), so this applies precomputed powers of
  // its 64x64 bit matrix: O(log steps) matrix-vector products. Lets parallel
  // chunks of one stream start where a serial pass would have reached.
  void Jump(uint64_t steps);

  // Approximately standard-normal value (sum of uniforms; adequate for
  // initializing latent factors, not for statistics).
  double NextGaussian() {
    double sum = 0.0;
    for (int i = 0; i < 12; ++i) sum += NextDouble();
    return sum - 6.0;
  }

 private:
  uint64_t state_;
};

// SplitMix64: used to derive independent per-thread / per-partition seeds from a
// master seed without correlation.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace maze

#endif  // MAZE_UTIL_PRNG_H_
