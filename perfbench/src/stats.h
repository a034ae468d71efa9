#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

/// \file stats.h
/// Order statistics for benchmark samples: median and quartiles from
/// xysig::percentile (linear interpolation between closest ranks, at rank
/// p * (n - 1)), and a tail percentile that is only reported when enough
/// samples lie beyond it to make it a measurement rather than one unlucky
/// sample.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A tail percentile is reported only with at least this many samples
/// strictly beyond its interpolation position.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Number of samples strictly beyond the q quantile's position in a sample
/// of n: n - 1 - floor(q * (n - 1)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Summary of one metric's samples. The sample count is always reported
/// next to the percentiles derived from it.
struct Distribution {
    std::size_t count = 0;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    /// Present only when samples_beyond(count, 0.9) >= kMinSamplesBeyond.
    std::optional<double> p90;
    std::size_t beyond_p90 = 0;
};

/// Describes a sample (any order). An empty sample gives count 0.
[[nodiscard]] Distribution describe(const std::vector<double>& values);

/// Median of a sample (any order, non-empty; an empty one throws).
[[nodiscard]] double median(const std::vector<double>& values);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
