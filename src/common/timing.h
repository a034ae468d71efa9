#ifndef XYSIG_COMMON_TIMING_H
#define XYSIG_COMMON_TIMING_H

/// \file timing.h
/// Wall-clock stopwatch shared by the bench drivers' scaling reports and
/// the server's job, shard and partition timings.

#include <chrono>
#include <functional>

namespace xysig {

/// Seconds of wall-clock time (steady clock) elapsed since t0.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

/// Seconds of wall-clock time (steady clock) taken by one call of fn.
inline double seconds_of(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace xysig

#endif // XYSIG_COMMON_TIMING_H
