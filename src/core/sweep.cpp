#include "core/sweep.h"

#include <cmath>
#include <map>

#include "common/contracts.h"
#include "common/statistics.h"
#include "core/batch_ndf.h"

namespace xysig::core {

filter::Biquad deviated_biquad(const filter::Biquad& nominal,
                               double deviation_percent,
                               SweptParameter parameter) {
    const double frac = deviation_percent / 100.0;
    return parameter == SweptParameter::f0 ? nominal.with_f0_shift(frac)
                                           : nominal.with_q_shift(frac);
}

std::vector<SweepPoint> deviation_sweep(SignaturePipeline& pipeline,
                                        const filter::Biquad& nominal,
                                        std::span<const double> deviations_percent,
                                        SweptParameter parameter, unsigned threads) {
    XYSIG_EXPECTS(!deviations_percent.empty());
    pipeline.set_golden(filter::BehaviouralCut(nominal));

    const BatchNdfEvaluator batch(pipeline, {.threads = threads});
    const std::vector<double> ndfs =
        batch.evaluate_deviations(nominal, deviations_percent, parameter);

    std::vector<SweepPoint> out;
    out.reserve(deviations_percent.size());
    for (std::size_t i = 0; i < deviations_percent.size(); ++i)
        out.push_back({deviations_percent[i], ndfs[i]});
    return out;
}

SweepShape analyse_sweep(std::span<const SweepPoint> points) {
    XYSIG_EXPECTS(points.size() >= 3);
    SweepShape shape;

    std::vector<double> abs_dev, ndf_vals;
    std::map<double, double> by_dev;
    for (const auto& p : points) {
        abs_dev.push_back(std::abs(p.deviation_percent));
        ndf_vals.push_back(p.ndf_value);
        by_dev[p.deviation_percent] = p.ndf_value;
        shape.max_ndf = std::max(shape.max_ndf, p.ndf_value);
    }

    const LineFit fit = fit_line(abs_dev, ndf_vals);
    shape.slope_per_percent = fit.slope;
    shape.r_squared = fit.r_squared;

    // Symmetry: compare each +d with its -d partner where both exist.
    double asym_acc = 0.0;
    double ndf_acc = 0.0;
    std::size_t pairs = 0;
    for (const auto& [dev, val] : by_dev) {
        if (dev <= 0.0)
            continue;
        const auto it = by_dev.find(-dev);
        if (it == by_dev.end())
            continue;
        asym_acc += std::abs(val - it->second);
        ndf_acc += 0.5 * (val + it->second);
        ++pairs;
    }
    shape.asymmetry = (pairs > 0 && ndf_acc > 0.0) ? asym_acc / (2.0 * ndf_acc) : 0.0;
    return shape;
}

} // namespace xysig::core
