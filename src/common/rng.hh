/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * Every stochastic choice in the simulator and the synthetic workloads
 * draws from a seeded Rng so runs are bit-for-bit reproducible.
 */

#ifndef CATCHSIM_COMMON_RNG_HH_
#define CATCHSIM_COMMON_RNG_HH_

#include <cstdint>

#include "common/bitutil.hh"

namespace catchsim
{

/** Small, fast, seedable PRNG with helpers for bounded draws. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 1)
    {
        // splitmix64 seeding per the xoshiro authors' recommendation
        uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            word = mix64(x);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform draw in [0, bound); bound must be non-zero. */
    uint64_t
    below(uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform draw in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability @p percent / 100. */
    bool
    percent(uint32_t percent)
    {
        return below(100) < percent;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static constexpr uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_RNG_HH_
