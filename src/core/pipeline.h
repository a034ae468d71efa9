#ifndef XYSIG_CORE_PIPELINE_H
#define XYSIG_CORE_PIPELINE_H

/// \file pipeline.h
/// End-to-end test pipeline: stimulus -> CUT -> (optional noise) -> monitor
/// bank -> (optional capture quantisation) -> chronogram -> NDF against the
/// golden signature. This is the paper's complete verification flow in one
/// object.

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "capture/capture_unit.h"
#include "core/ndf.h"
#include "filter/cut.h"
#include "kernels/compiled_monitor_bank.h"
#include "monitor/monitor_bank.h"

namespace xysig::core {

/// Knobs of the flow.
struct PipelineOptions {
    std::size_t samples_per_period = 8192; ///< CUT simulation resolution
    double noise_sigma = 0.0;              ///< white noise on x and y (V)
    bool quantise = false;                 ///< run through the Fig. 5 capture
    capture::CaptureOptions capture{};     ///< used when quantise is true
    /// Opt-in SIMD math (kernels/vecmath.h): tone-table sines on the
    /// NDF/golden path evaluate through the batched polynomial kernels —
    /// each sine within 2 ULP of the exact value (gate-enforced by
    /// bench_kernels and tests/kernels/test_vecmath_differential) — and
    /// the EKV comparators zone through the batched softplus kernel
    /// (within 4 ULP of correctly rounded).
    /// Results are bit-identical across ISAs but NOT to exact mode, so
    /// signatures computed under different modes must never be compared
    /// (golden cache keys and the trace cache key this flag for that
    /// reason). Scope: closed-form sampling and zoning on the
    /// scratch/NDF/golden path for cuts with x_is_stimulus(); SPICE/
    /// transient cuts are solver-driven and keep exact sampling, as do
    /// PWL/pulse/custom waveforms and the virtual observation APIs
    /// (trace()/chronogram()/capture()), which always stay exact.
    /// Default off: exact mode is the paper's contract.
    bool fast_math = false;
};

/// Reusable workspace for repeated NDF evaluations: the trace sample
/// buffers (the dominant allocations — two samples_per_period arrays per
/// call) and the run-length event buffer are written in place, so a batch
/// of thousands of evaluations stops reallocating traces. The small event
/// list is still copied into each Chronogram (tens of entries; a deliberate
/// tradeoff to keep Chronogram immutable). One instance must not be shared
/// between threads concurrently (give each worker its own, as
/// BatchNdfEvaluator does).
class NdfScratch {
private:
    friend class SignaturePipeline;
    std::vector<double> xs_;
    std::vector<double> ys_;
    std::vector<unsigned> codes_; ///< per-sample zone codes
    std::vector<capture::CodeEvent> events_;
};

/// The flow, bound to a monitor bank and a stimulus.
class SignaturePipeline {
public:
    SignaturePipeline(monitor::MonitorBank bank, MultitoneWaveform stimulus,
                      PipelineOptions options = {});

    [[nodiscard]] const monitor::MonitorBank& bank() const noexcept { return bank_; }
    [[nodiscard]] const MultitoneWaveform& stimulus() const noexcept {
        return stimulus_;
    }
    [[nodiscard]] const PipelineOptions& options() const noexcept { return options_; }

    /// One steady-state period of the CUT's (x, y), with noise if configured
    /// (pass the RNG; no RNG means no noise even if noise_sigma > 0).
    [[nodiscard]] XyTrace trace(const filter::Cut& cut, Rng* noise_rng = nullptr) const;

    /// The observed chronogram of a CUT: ideal, or capture-quantised when
    /// options().quantise is set.
    [[nodiscard]] capture::Chronogram chronogram(const filter::Cut& cut,
                                                 Rng* noise_rng = nullptr) const;

    /// Raw captured signature of a CUT (regardless of options().quantise).
    [[nodiscard]] capture::CaptureResult capture(const filter::Cut& cut,
                                                 Rng* noise_rng = nullptr) const;

    /// Stores the golden signature (noise-free by definition). Runs the
    /// same scratch path as ndf_of (the compiled kernels) instead of the
    /// virtual chronogram path, and serves the ideal (unquantised)
    /// chronogram from the process-wide GoldenSignatureCache when the
    /// (bank, stimulus, sampling options, cut) tuple has an exact
    /// fingerprint — see golden_cache_key(). Cache hits are bit-identical
    /// to recomputation; quantisation (options().quantise) is applied after
    /// lookup because it depends on the capture options, which are
    /// deliberately outside the key.
    ///
    /// The first set_golden under a sampling mode also computes the
    /// x-driven leg lanes of the stimulus trace for that mode
    /// (x_leg_lanes()); later calls, and calls after flipping the mode
    /// away and back, reuse them. This is the single-threaded point before
    /// a job's members are evaluated, and it keeps the work out of the
    /// constructor, which stays as cheap as sampling the stimulus.
    void set_golden(const filter::Cut& golden_cut);

    /// The cache key set_golden files the ideal golden chronogram under:
    /// exact fingerprints of (golden cut, monitor bank, stimulus,
    /// samples_per_period, fast_math). Empty when the cut or a monitor
    /// cannot produce an exact fingerprint — set_golden then computes
    /// without caching.
    [[nodiscard]] std::string golden_cache_key(const filter::Cut& cut) const;

    /// Flips options().fast_math in place (the sweep service applies the
    /// per-job wire flag through this). Changing the mode drops any stored
    /// golden — it was computed under the other mode and comparing across
    /// modes is exactly what the keying scheme exists to prevent — so
    /// callers must set_golden() again before evaluating.
    void set_fast_math(bool enable);

    /// The immutable per-(stimulus, spp, mode) trace shared through the
    /// process-wide StimulusTraceCache. Every x_is_stimulus() member of a
    /// job zones straight from this one buffer (no per-member copy)
    /// instead of re-sampling the stimulus; a member with noise copies it
    /// and adds the noise to the copy. Exposed for tests and the bench
    /// probes.
    [[nodiscard]] const std::shared_ptr<const std::vector<double>>&
    stimulus_trace() const noexcept {
        return stimulus_trace_;
    }

    /// CompiledMonitorBank::x_leg_lanes of stimulus_trace() under the
    /// current mode, or null before the first set_golden under it. Every
    /// noise-free x_is_stimulus() member zones from these lanes plus its
    /// own y-driven legs, so the x-leg currents are evaluated once per
    /// pipeline and mode rather than once per member. Exposed for tests.
    [[nodiscard]] const std::shared_ptr<const std::vector<double>>&
    x_leg_lanes() const noexcept {
        return x_leg_lanes_[mode_index()];
    }
    [[nodiscard]] bool has_golden() const noexcept { return golden_.has_value(); }
    [[nodiscard]] const capture::Chronogram& golden() const;

    /// NDF of a CUT against the stored golden signature.
    [[nodiscard]] double ndf_of(const filter::Cut& cut, Rng* noise_rng = nullptr) const;

    /// Scratch-buffer variant used by the batch engine: bit-identical to
    /// ndf_of(cut, noise_rng) but reuses the caller's buffers across calls.
    [[nodiscard]] double ndf_of(const filter::Cut& cut, NdfScratch& scratch,
                                Rng* noise_rng = nullptr) const;

    /// One member's full evaluation: the NDF plus the observed chronogram it
    /// was computed against (capture-quantised when options().quantise is
    /// set). The NDF is bit-identical to ndf_of(cut, scratch, noise_rng) —
    /// this is what the sweep service streams as (member_id, ndf, signature).
    struct CutEvaluation {
        double ndf;
        capture::Chronogram observed;
    };
    [[nodiscard]] CutEvaluation evaluate(const filter::Cut& cut,
                                         NdfScratch& scratch,
                                         Rng* noise_rng = nullptr) const;

    /// The lowered form of bank() the compiled path zones with.
    [[nodiscard]] const kernels::CompiledMonitorBank& compiled_bank() const noexcept {
        return compiled_bank_;
    }

private:
    /// Shared trunk of ndf_of(scratch) and set_golden: CUT response into the
    /// scratch buffers, optional noise, zoning + run-length encoding through
    /// the compiled kernels, returned as the ideal (unquantised) chronogram.
    /// In exact mode it is bit-identical to the virtual chronogram() path
    /// (MonitorBank::code, Chronogram::encode_events), which tests/kernels
    /// pins.
    [[nodiscard]] capture::Chronogram ideal_chronogram(const filter::Cut& cut,
                                                       NdfScratch& scratch,
                                                       Rng* noise_rng) const;

    [[nodiscard]] SampleMode sample_mode() const noexcept {
        return options_.fast_math ? SampleMode::fast_math : SampleMode::exact;
    }
    [[nodiscard]] std::size_t mode_index() const noexcept {
        return static_cast<std::size_t>(sample_mode());
    }

    /// (Re)fetches stimulus_trace_ from the StimulusTraceCache for the
    /// current (stimulus, samples_per_period, mode); called at
    /// construction and on set_fast_math.
    void refresh_stimulus_trace();

    monitor::MonitorBank bank_;
    kernels::CompiledMonitorBank compiled_bank_;
    MultitoneWaveform stimulus_;
    PipelineOptions options_;
    std::shared_ptr<const std::vector<double>> stimulus_trace_;
    /// x_leg_lanes() per SampleMode (index = mode); the bank, stimulus and
    /// samples_per_period are fixed for the pipeline's life, so the mode
    /// is the whole key.
    std::array<std::shared_ptr<const std::vector<double>>, 2> x_leg_lanes_;
    std::optional<capture::Chronogram> golden_;
};

} // namespace xysig::core

#endif // XYSIG_CORE_PIPELINE_H
