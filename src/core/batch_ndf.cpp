#include "core/batch_ndf.h"

#include <limits>

#include "common/contracts.h"
#include "common/parallel.h"

namespace xysig::core {

BatchNdfEvaluator::BatchNdfEvaluator(const SignaturePipeline& pipeline,
                                     Options options)
    : pipeline_(&pipeline), options_(options) {}

std::vector<double> BatchNdfEvaluator::evaluate(
    std::span<const filter::Cut* const> cuts) const {
    XYSIG_EXPECTS(pipeline_->has_golden());
    std::vector<double> out(cuts.size());
    parallel_for(
        0, cuts.size(),
        [&](std::size_t i) {
            XYSIG_EXPECTS(cuts[i] != nullptr);
            // One scratch per worker thread, reused across the whole batch
            // (and across batches on pool threads).
            thread_local NdfScratch scratch;
            if (options_.nan_on_numeric_error) {
                try {
                    out[i] = pipeline_->ndf_of(*cuts[i], scratch);
                } catch (const NumericError&) {
                    out[i] = std::numeric_limits<double>::quiet_NaN();
                }
            } else {
                out[i] = pipeline_->ndf_of(*cuts[i], scratch);
            }
        },
        options_.threads);
    return out;
}

std::vector<double> BatchNdfEvaluator::evaluate(
    const std::vector<std::unique_ptr<filter::Cut>>& cuts) const {
    std::vector<const filter::Cut*> raw;
    raw.reserve(cuts.size());
    for (const auto& c : cuts)
        raw.push_back(c.get());
    return evaluate(raw);
}

std::vector<std::unique_ptr<filter::Cut>> BatchNdfEvaluator::build_fault_universe(
    const spice::Netlist& nominal, std::span<const capture::NetlistFault> faults,
    const SpiceObservation& observation) {
    std::vector<std::unique_ptr<filter::Cut>> universe;
    universe.reserve(faults.size());
    for (const auto& fault : faults) {
        auto faulty = std::make_unique<spice::Netlist>(
            capture::apply_fault(nominal, fault));
        universe.push_back(std::make_unique<filter::SpiceCut>(
            std::move(faulty), observation.input_source, observation.x_node,
            observation.y_node, observation.settle_periods));
    }
    return universe;
}

std::vector<double> BatchNdfEvaluator::evaluate_netlist_faults(
    const spice::Netlist& nominal, std::span<const capture::NetlistFault> faults,
    const SpiceObservation& observation) const {
    Options opts = options_;
    opts.nan_on_numeric_error = true; // see BatchNdfOptions: universes may
                                      // contain unsolvable members
    const BatchNdfEvaluator tolerant(*pipeline_, opts);
    return tolerant.evaluate(build_fault_universe(nominal, faults, observation));
}

std::vector<double> BatchNdfEvaluator::evaluate_deviations(
    const filter::Biquad& nominal, std::span<const double> deviations_percent,
    SweptParameter parameter) const {
    std::vector<filter::BehaviouralCut> universe;
    universe.reserve(deviations_percent.size());
    for (const double dev : deviations_percent)
        universe.emplace_back(deviated_biquad(nominal, dev, parameter));
    std::vector<const filter::Cut*> raw;
    raw.reserve(universe.size());
    for (const auto& c : universe)
        raw.push_back(&c);
    return evaluate(raw);
}

} // namespace xysig::core
