#include "stats.h"

#include <cmath>

#include "common/statistics.h"

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
    if (n == 0)
        return 0;
    const auto lo = static_cast<std::size_t>(
        std::floor(q * static_cast<double>(n - 1)));
    return n - 1 - lo;
}

Distribution describe(const std::vector<double>& values) {
    Distribution d;
    d.count = values.size();
    if (values.empty())
        return d;
    d.median = xysig::percentile(values, 50.0);
    d.q1 = xysig::percentile(values, 25.0);
    d.q3 = xysig::percentile(values, 75.0);
    d.beyond_p90 = samples_beyond(values.size(), 0.9);
    if (d.beyond_p90 >= kMinSamplesBeyond)
        d.p90 = xysig::percentile(values, 90.0);
    return d;
}

double median(const std::vector<double>& values) {
    return xysig::percentile(values, 50.0);
}

} // namespace perfbench
