// Wall-clock timing used by benchmark harnesses to fill the CC(s) / T(s) columns
// of the paper's tables.
#pragma once

#include <chrono>

namespace ucp {

/// Simple monotonic stopwatch. Starts running on construction.
class Timer {
public:
    Timer() noexcept : start_(Clock::now()) {}

    void restart() noexcept { start_ = Clock::now(); }

    /// Elapsed time in seconds since construction or the last restart().
    [[nodiscard]] double seconds() const noexcept {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

}  // namespace ucp
