// Deterministic pseudo-random number generation for workload generators and the
// stochastic restart phase of the SCG solver.
//
// We keep our own generator (xoshiro256** seeded through SplitMix64) instead of
// std::mt19937 so that instance generators produce identical workloads across
// standard libraries and platforms — benchmark tables must be reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <limits>

namespace ucp {

/// SplitMix64: used to expand a single 64-bit seed into a full generator state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number generators".
class SplitMix64 {
public:
    explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    constexpr std::uint64_t next() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// Seed of stream `i` in a seeded fan-out (SCG multi-starts, portfolio polish
/// tasks). Stream 0 is `seed` verbatim, so a one-stream run reproduces the
/// single-seed run exactly; stream i > 0 is seed ⊕ SplitMix64(i), an
/// independent stream.
constexpr std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t i) noexcept {
    return i == 0 ? seed : seed ^ SplitMix64(i).next();
}

/// xoshiro256**: fast, high-quality 64-bit generator.
/// Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x2545F4914F6CDD1DULL) noexcept { reseed(seed); }

    void reseed(std::uint64_t seed) noexcept {
        SplitMix64 sm(seed);
        for (auto& s : state_) s = sm.next();
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    result_type operator()() noexcept {
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

    /// Uniform integer in [0, n). Precondition: n > 0.
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t below(std::uint64_t n) noexcept {
        // 128-bit multiply; rejection loop runs < 2 iterations in expectation.
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            const std::uint64_t threshold = (0 - n) % n;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
    std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /// Uniform double in [0, 1).
    double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Bernoulli trial with success probability p.
    bool chance(double p) noexcept { return uniform() < p; }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
};

}  // namespace ucp
