#include "core/pipeline.h"

#include <span>
#include <utility>

#include "common/contracts.h"
#include "common/rng.h"
#include "core/fingerprint.h"
#include "core/golden_cache.h"
#include "core/trace_cache.h"

namespace xysig::core {

SignaturePipeline::SignaturePipeline(monitor::MonitorBank bank,
                                     MultitoneWaveform stimulus,
                                     PipelineOptions options)
    : bank_(std::move(bank)),
      compiled_bank_(kernels::CompiledMonitorBank::compile(bank_)),
      stimulus_(std::move(stimulus)), options_(options) {
    XYSIG_EXPECTS(bank_.size() >= 1);
    XYSIG_EXPECTS(options_.samples_per_period >= 64);
    XYSIG_EXPECTS(options_.noise_sigma >= 0.0);
    refresh_stimulus_trace();
}

void SignaturePipeline::set_fast_math(bool enable) {
    if (options_.fast_math == enable)
        return;
    options_.fast_math = enable;
    // The stored golden was computed under the other mode; comparing an
    // observation against it would mix modes, which the keying scheme
    // exists to forbid. Callers re-set it (the sweep service does so per
    // job anyway).
    golden_.reset();
    refresh_stimulus_trace();
}

void SignaturePipeline::refresh_stimulus_trace() {
    const SampleMode mode = sample_mode();
    stimulus_trace_ = StimulusTraceCache::instance().find_or_compute(
        stimulus_trace_key(stimulus_, options_.samples_per_period, mode), [&] {
            std::vector<double> trace;
            SampledSignal::sample_waveform_into(stimulus_, 0.0,
                                                stimulus_.period(),
                                                options_.samples_per_period,
                                                trace, mode);
            return trace;
        });
}

XyTrace SignaturePipeline::trace(const filter::Cut& cut, Rng* noise_rng) const {
    XyTrace tr = cut.respond(stimulus_, options_.samples_per_period);
    if (noise_rng != nullptr && options_.noise_sigma > 0.0)
        tr.add_white_noise(*noise_rng, options_.noise_sigma);
    return tr;
}

capture::Chronogram SignaturePipeline::chronogram(const filter::Cut& cut,
                                                  Rng* noise_rng) const {
    const XyTrace tr = trace(cut, noise_rng);
    capture::Chronogram ideal = capture::Chronogram::from_trace(tr, bank_);
    if (!options_.quantise)
        return ideal;
    const capture::CaptureUnit unit(options_.capture);
    return unit.capture(ideal).signature.to_chronogram();
}

capture::CaptureResult SignaturePipeline::capture(const filter::Cut& cut,
                                                  Rng* noise_rng) const {
    const XyTrace tr = trace(cut, noise_rng);
    const capture::CaptureUnit unit(options_.capture);
    return unit.capture(tr, bank_);
}

std::string SignaturePipeline::golden_cache_key(const filter::Cut& cut) const {
    const std::string cut_key = cut.cache_key();
    if (cut_key.empty())
        return {};
    const std::string bank_fp = bank_.fingerprint();
    if (bank_fp.empty())
        return {};
    std::string key = "cut{";
    key += cut_key;
    key += "}|";
    key += setup_fingerprint(bank_fp, stimulus_, options_.samples_per_period,
                             options_.fast_math);
    return key;
}

void SignaturePipeline::set_golden(const filter::Cut& golden_cut) {
    std::shared_ptr<const std::vector<double>>& lanes = x_leg_lanes_[mode_index()];
    if (lanes == nullptr)
        lanes = std::make_shared<const std::vector<double>>(
            compiled_bank_.x_leg_lanes(*stimulus_trace_, sample_mode()));
    NdfScratch scratch;
    std::shared_ptr<const capture::Chronogram> ideal;
    const std::string key = golden_cache_key(golden_cut);
    if (key.empty()) {
        ideal = std::make_shared<const capture::Chronogram>(
            ideal_chronogram(golden_cut, scratch, nullptr));
    } else {
        ideal = GoldenSignatureCache::instance().find_or_compute(
            key, [&] { return ideal_chronogram(golden_cut, scratch, nullptr); });
    }
    if (!options_.quantise) {
        golden_ = *ideal;
        return;
    }
    const capture::CaptureUnit unit(options_.capture);
    golden_ = unit.capture(*ideal).signature.to_chronogram();
}

const capture::Chronogram& SignaturePipeline::golden() const {
    XYSIG_EXPECTS(golden_.has_value());
    return *golden_;
}

double SignaturePipeline::ndf_of(const filter::Cut& cut, Rng* noise_rng) const {
    // Delegates to the scratch path (bit-identical to the virtual
    // chronogram route by the evaluate() contract) so every NDF — one-shot
    // or batched — flows through the shared stimulus trace and the
    // fast-math plumbing.
    NdfScratch scratch;
    return ndf_of(cut, scratch, noise_rng);
}

capture::Chronogram SignaturePipeline::ideal_chronogram(const filter::Cut& cut,
                                                        NdfScratch& scratch,
                                                        Rng* noise_rng) const {
    const bool noisy = noise_rng != nullptr && options_.noise_sigma > 0.0;
    double dt = 0.0;
    std::span<const double> xs;
    std::span<const double> x_lanes;
    if (cut.x_is_stimulus()) {
        // x is the sampled stimulus bit for bit (the cut promised), so
        // zone straight from the shared immutable trace — sampled once per
        // (stimulus, spp, mode) process-wide — and from its x-leg lanes,
        // and ask the cut for y only. In exact mode this is bit-identical
        // to respond_into and a from-scratch zoning by construction.
        cut.respond_y_into(stimulus_, options_.samples_per_period,
                           scratch.ys_, dt, sample_mode());
        const std::vector<double>& trace = *stimulus_trace_;
        if (noisy) {
            scratch.xs_.assign(trace.begin(), trace.end());
            xs = scratch.xs_;
        } else {
            xs = trace;
            if (const auto& lanes = x_leg_lanes(); lanes != nullptr)
                x_lanes = *lanes;
        }
    } else {
        cut.respond_into(stimulus_, options_.samples_per_period, scratch.xs_,
                         scratch.ys_, dt);
        xs = scratch.xs_;
    }
    if (noisy) {
        // Same draw order as XyTrace::add_white_noise: all of x, then all
        // of y, so noisy results stay bit-identical to the allocating path.
        for (double& v : scratch.xs_)
            v += noise_rng->normal(0.0, options_.noise_sigma);
        for (double& v : scratch.ys_)
            v += noise_rng->normal(0.0, options_.noise_sigma);
    }
    // Fused zoning -> run-length path: one devirtualised monitor pass per
    // bit-plane, then RLE over the code buffer. Bit-identical to
    // encode_events (tests/kernels pin this).
    compiled_bank_.codes_into(xs, scratch.ys_, scratch.codes_, sample_mode(),
                              x_lanes);
    capture::Chronogram::encode_codes(scratch.codes_, dt, scratch.events_);
    const double period = dt * static_cast<double>(xs.size());
    return capture::Chronogram(period, static_cast<unsigned>(bank_.size()),
                               scratch.events_);
}

double SignaturePipeline::ndf_of(const filter::Cut& cut, NdfScratch& scratch,
                                 Rng* noise_rng) const {
    // One copy of the observed-chronogram -> NDF sequence: delegating keeps
    // the "bit-identical to evaluate()" contract true by construction.
    return evaluate(cut, scratch, noise_rng).ndf;
}

SignaturePipeline::CutEvaluation SignaturePipeline::evaluate(
    const filter::Cut& cut, NdfScratch& scratch, Rng* noise_rng) const {
    capture::Chronogram observed = ideal_chronogram(cut, scratch, noise_rng);
    if (options_.quantise) {
        const capture::CaptureUnit unit(options_.capture);
        observed = unit.capture(observed).signature.to_chronogram();
    }
    const double value = ndf(observed, golden());
    return {value, std::move(observed)};
}

} // namespace xysig::core
