#include "util/prng.h"

#include <array>

namespace maze {
namespace {

// A linear map on GF(2)^64, stored as the images of the 64 unit vectors.
using BitMatrix = std::array<uint64_t, 64>;

uint64_t Apply(const BitMatrix& m, uint64_t v) {
  uint64_t out = 0;
  for (int bit = 0; v != 0; ++bit, v >>= 1) {
    if (v & 1) out ^= m[bit];
  }
  return out;
}

// The xorshift state update of Next(), without the output multiply.
uint64_t Step(uint64_t s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s;
}

// powers[i] is the state update applied 2^i times.
const std::array<BitMatrix, 64>& StepPowers() {
  static const std::array<BitMatrix, 64>* powers = [] {
    auto* p = new std::array<BitMatrix, 64>();
    for (int bit = 0; bit < 64; ++bit) (*p)[0][bit] = Step(uint64_t{1} << bit);
    for (int i = 1; i < 64; ++i) {
      for (int bit = 0; bit < 64; ++bit) {
        (*p)[i][bit] = Apply((*p)[i - 1], (*p)[i - 1][bit]);
      }
    }
    return p;
  }();
  return *powers;
}

}  // namespace

void Xorshift64Star::Jump(uint64_t steps) {
  if (steps == 0) return;
  const auto& powers = StepPowers();
  for (int i = 0; steps != 0; ++i, steps >>= 1) {
    if (steps & 1) state_ = Apply(powers[i], state_);
  }
}

}  // namespace maze
