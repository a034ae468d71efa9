#ifndef XYSIG_CORE_SWEEP_H
#define XYSIG_CORE_SWEEP_H

/// \file sweep.h
/// Parameter-deviation sweeps: the Fig. 8 experiment (NDF versus % defect
/// in f0) and its Q-deviation sibling.

#include <span>
#include <vector>

#include "core/pipeline.h"
#include "filter/biquad.h"

namespace xysig::core {

/// One sweep sample.
struct SweepPoint {
    double deviation_percent = 0.0;
    double ndf_value = 0.0;
};

/// Which Biquad parameter the sweep deviates.
enum class SweptParameter { f0, q };

/// The nominal filter with `parameter` shifted by `deviation_percent` %:
/// the one member constructor of every deviation-sweep engine, so their
/// members are bit-identical. Requires deviation_percent > -100.
[[nodiscard]] filter::Biquad deviated_biquad(const filter::Biquad& nominal,
                                             double deviation_percent,
                                             SweptParameter parameter);

/// Runs the deviation sweep of a behavioural Biquad CUT. The pipeline's
/// golden signature is (re)set to the nominal filter first. Sweep points
/// are evaluated concurrently through the batch NDF engine (threads == 0
/// uses default_thread_count()); results do not depend on the thread count.
[[nodiscard]] std::vector<SweepPoint> deviation_sweep(
    SignaturePipeline& pipeline, const filter::Biquad& nominal,
    std::span<const double> deviations_percent,
    SweptParameter parameter = SweptParameter::f0, unsigned threads = 0);

/// Summary of the Fig. 8 shape claims: linearity and +/- symmetry.
struct SweepShape {
    double slope_per_percent = 0.0;  ///< |dNDF/d%| from a linear fit on |dev|
    double r_squared = 0.0;          ///< fit quality (paper: "almost linearly")
    double asymmetry = 0.0;          ///< mean |NDF(+d) - NDF(-d)| / mean NDF
    double max_ndf = 0.0;
};

/// Fits the shape descriptors over a symmetric sweep.
[[nodiscard]] SweepShape analyse_sweep(std::span<const SweepPoint> points);

} // namespace xysig::core

#endif // XYSIG_CORE_SWEEP_H
