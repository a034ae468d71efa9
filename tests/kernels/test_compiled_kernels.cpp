// Bit-identity of the compiled signature kernels against the virtual path:
// mos_id vs mos_evaluate().id, tone-table sampling vs per-sample
// Waveform::value, compiled zoning vs MonitorBank::code over randomized
// traces for every boundary type (linear, MOS, mixed banks, fallback), the
// fused encode_codes path vs encode_events, lane-fed zoning (x_leg_lanes
// passed back into codes_into) vs from-scratch zoning in both sampling
// modes and on the fast_math fallback, and the whole pipeline's scratch
// path vs its virtual chronogram() reference (noise-free, noisy and
// capture-quantised).

#include "kernels/compiled_monitor_bank.h"
#include "kernels/compiled_waveform.h"

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "capture/chronogram.h"
#include "common/rng.h"
#include "core/batch_ndf.h"
#include "core/paper_setup.h"
#include "core/pipeline.h"
#include "monitor/table1.h"
#include "spice/mosfet.h"

namespace xysig {
namespace {

/// A boundary the compiler cannot lower: circle of radius r around
/// (cx, cy), origin outside -> h < 0 at the origin already.
class CircleBoundary final : public monitor::Boundary {
public:
    CircleBoundary(double cx, double cy, double r) : cx_(cx), cy_(cy), r_(r) {}
    [[nodiscard]] double h(double x, double y) const override {
        const double dx = x - cx_;
        const double dy = y - cy_;
        return r_ * r_ - (dx * dx + dy * dy);
    }
    [[nodiscard]] std::unique_ptr<monitor::Boundary> clone() const override {
        return std::make_unique<CircleBoundary>(*this);
    }

private:
    double cx_, cy_, r_;
};

/// Random trace wandering around the monitor window.
void random_trace(Rng& rng, std::size_t n, std::vector<double>& xs,
                  std::vector<double>& ys) {
    xs.resize(n);
    ys.resize(n);
    double x = 0.5;
    double y = 0.5;
    for (std::size_t i = 0; i < n; ++i) {
        x += rng.normal(0.0, 0.04);
        y += rng.normal(0.0, 0.04);
        x = std::min(1.2, std::max(-0.2, x));
        y = std::min(1.2, std::max(-0.2, y));
        xs[i] = x;
        ys[i] = y;
    }
}

/// Codes from scratch and codes fed with x_leg_lanes(xs, mode) agree at
/// every sample; when `vs_virtual` is set both also equal
/// MonitorBank::code and the single-point CompiledMonitorBank::code.
void expect_codes_identical(const monitor::MonitorBank& bank,
                            const std::vector<double>& xs,
                            const std::vector<double>& ys,
                            SampleMode mode = SampleMode::exact,
                            bool vs_virtual = true) {
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    ASSERT_EQ(compiled.size(), bank.size());
    const std::vector<double> lanes = compiled.x_leg_lanes(xs, mode);
    ASSERT_EQ(lanes.size(), compiled.x_leg_count() * xs.size());
    std::vector<unsigned> codes;
    std::vector<unsigned> fed;
    compiled.codes_into(xs, ys, codes, mode);
    compiled.codes_into(xs, ys, fed, mode, lanes);
    ASSERT_EQ(codes.size(), xs.size());
    ASSERT_EQ(fed.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        ASSERT_EQ(fed[i], codes[i]) << "sample " << i;
        if (!vs_virtual)
            continue;
        ASSERT_EQ(codes[i], bank.code(xs[i], ys[i]))
            << "sample " << i << " at (" << xs[i] << ", " << ys[i] << ")";
        ASSERT_EQ(compiled.code(xs[i], ys[i]), codes[i]) << "sample " << i;
    }
}

TEST(MosId, BitIdenticalToMosEvaluateId) {
    for (const spice::MosModel model : {spice::MosModel::ekv, spice::MosModel::level1}) {
        for (const spice::MosType type : {spice::MosType::nmos, spice::MosType::pmos}) {
            spice::MosParams p;
            p.model = model;
            p.type = type;
            p.w = 1.8e-6;
            for (double vgs = -1.5; vgs <= 1.5; vgs += 0.03125) {
                for (double vds = -1.5; vds <= 1.5; vds += 0.03125) {
                    const double full = spice::mos_evaluate(p, vgs, vds).id;
                    const double id = spice::mos_id(p, vgs, vds);
                    // Exact bitwise equality, not a tolerance.
                    ASSERT_EQ(full, id) << "model " << static_cast<int>(model)
                                        << " type " << static_cast<int>(type)
                                        << " vgs " << vgs << " vds " << vds;
                }
            }
        }
    }
}

TEST(CompiledWaveform, MultitoneSamplesBitIdentical) {
    Rng rng(11u);
    for (int rep = 0; rep < 5; ++rep) {
        std::vector<Tone> tones;
        const int n_tones = 1 + rep % 4;
        for (int k = 0; k < n_tones; ++k)
            tones.push_back({rng.uniform(0.05, 0.4), 1000.0 * (k + 1),
                             rng.uniform(0.0, 6.28)});
        const MultitoneWaveform w(rng.uniform(0.2, 0.8), tones);
        const auto compiled = kernels::CompiledWaveform::compile(w);
        ASSERT_TRUE(compiled.has_value());
        EXPECT_EQ(compiled->tone_count(), tones.size());

        const double t0 = rng.uniform(0.0, 1e-3);
        const double duration = w.period();
        const std::size_t n = 777;
        std::vector<double> kernel_buf;
        compiled->sample_into(t0, duration, n, kernel_buf);
        const double dt = duration / static_cast<double>(n);
        ASSERT_EQ(kernel_buf.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double t = t0 + static_cast<double>(i) * dt;
            ASSERT_EQ(kernel_buf[i], w.value(t)) << "sample " << i;
        }
    }
}

TEST(CompiledWaveform, SineAndDcBitIdentical) {
    const SineWaveform sine(0.4, 0.25, 5e3, 1.234);
    const DcWaveform dc(0.6125);
    for (const Waveform* w : {static_cast<const Waveform*>(&sine),
                              static_cast<const Waveform*>(&dc)}) {
        const auto compiled = kernels::CompiledWaveform::compile(*w);
        ASSERT_TRUE(compiled.has_value());
        std::vector<double> buf;
        compiled->sample_into(1e-5, 4e-4, 512, buf);
        for (std::size_t i = 0; i < buf.size(); ++i) {
            const double t = 1e-5 + static_cast<double>(i) * (4e-4 / 512.0);
            ASSERT_EQ(buf[i], w->value(t));
        }
    }
}

TEST(CompiledWaveform, NonClosedFormFallsBackToVirtualLoop) {
    const PwlWaveform pwl({{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.5}});
    EXPECT_FALSE(kernels::CompiledWaveform::compile(pwl).has_value());
    // The SampledSignal entry point still samples it (virtual loop).
    std::vector<double> buf;
    SampledSignal::sample_waveform_into(pwl, 0.0, 2.0, 64, buf);
    for (std::size_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i], pwl.value(static_cast<double>(i) * (2.0 / 64.0)));
}

TEST(CompiledMonitorBank, Table1MosBankBitIdentical) {
    Rng rng(42u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);
    const auto bank = monitor::build_table1_bank();
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    EXPECT_EQ(compiled.compiled_count(), bank.size());
    EXPECT_EQ(compiled.fallback_count(), 0u);
    // Table I shares its X/Y input devices across rows: the 12 dynamic
    // legs deduplicate to 6 unique currents per sample.
    EXPECT_EQ(compiled.unique_leg_count(), 6u);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, Table1LegsSplitThreeByXThreeByY) {
    const auto compiled =
        kernels::CompiledMonitorBank::compile(monitor::build_table1_bank());
    EXPECT_EQ(compiled.x_leg_count(), 3u);
    EXPECT_EQ(compiled.y_leg_count(), 3u);
}

/// Every compiled leg kind next to every other monitor kind: linear
/// monitors, a fallback circle, Table I EKV rows, a level-1 row (flat
/// level-1 legs) and a pMOS row (generic legs through spice::mos_id).
monitor::MonitorBank make_every_kind_bank() {
    monitor::MonitorBank bank;
    bank.add(std::make_unique<monitor::LinearBoundary>(1.0, 1.0, -1.0));
    bank.add(std::make_unique<monitor::MosCurrentBoundary>(monitor::table1_config(1)));
    bank.add(std::make_unique<CircleBoundary>(0.7, 0.7, 0.2));
    bank.add(std::make_unique<monitor::MosCurrentBoundary>(monitor::table1_config(3)));
    monitor::MonitorConfig level1 = monitor::table1_config(5);
    level1.device.model = spice::MosModel::level1;
    bank.add(std::make_unique<monitor::MosCurrentBoundary>(level1));
    monitor::MonitorConfig pmos = monitor::table1_config(4);
    pmos.device.type = spice::MosType::pmos;
    bank.add(std::make_unique<monitor::MosCurrentBoundary>(pmos));
    bank.add(std::make_unique<monitor::LinearBoundary>(-1.0, 2.0, -0.4));
    return bank;
}

TEST(CompiledMonitorBank, EveryLegKindBitIdentical) {
    Rng rng(48u);
    std::vector<double> xs;
    std::vector<double> ys;
    // 2047: not a multiple of any SIMD width.
    random_trace(rng, 2047, xs, ys);
    expect_codes_identical(make_every_kind_bank(), xs, ys);
}

TEST(CompiledMonitorBank, LaneFedCodesBitIdenticalFastMath) {
    Rng rng(49u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 1001, xs, ys);
    for (const monitor::MonitorBank& bank :
         {monitor::build_table1_bank(), make_every_kind_bank()}) {
        expect_codes_identical(bank, xs, ys, SampleMode::fast_math, false);
        // The fast lanes really are the softplus batch: close to the exact
        // currents, not equal to them everywhere.
        const auto compiled = kernels::CompiledMonitorBank::compile(bank);
        const std::vector<double> exact = compiled.x_leg_lanes(xs, SampleMode::exact);
        const std::vector<double> fast =
            compiled.x_leg_lanes(xs, SampleMode::fast_math);
        ASSERT_EQ(exact.size(), fast.size());
        std::size_t differing = 0;
        for (std::size_t i = 0; i < exact.size(); ++i) {
            ASSERT_NEAR(fast[i], exact[i], 1e-12 * std::fabs(exact[i]) + 1e-30)
                << "lane value " << i;
            differing += fast[i] != exact[i] ? 1u : 0u;
        }
        EXPECT_GT(differing, 0u);
    }
}

TEST(CompiledMonitorBank, FastMathYExcursionFallsBackToExactXLanes) {
    // A y excursion outside the vecmath domain sends the whole MOS pass to
    // the exact lanes. The x lanes supplied for fast_math must not be read
    // then: the codes equal MonitorBank::code at every sample, even when
    // the supplied lanes are poisoned.
    for (const double excursion :
         {1e301, std::numeric_limits<double>::quiet_NaN()}) {
        Rng rng(50u);
        std::vector<double> xs;
        std::vector<double> ys;
        random_trace(rng, 1001, xs, ys);
        ys[500] = excursion;
        for (const monitor::MonitorBank& bank :
             {monitor::build_table1_bank(), make_every_kind_bank()}) {
            expect_codes_identical(bank, xs, ys, SampleMode::fast_math);
            const auto compiled = kernels::CompiledMonitorBank::compile(bank);
            const std::vector<double> poisoned(
                compiled.x_leg_count() * xs.size(),
                std::numeric_limits<double>::quiet_NaN());
            std::vector<unsigned> codes;
            compiled.codes_into(xs, ys, codes, SampleMode::fast_math, poisoned);
            for (std::size_t i = 0; i < xs.size(); ++i)
                ASSERT_EQ(codes[i], bank.code(xs[i], ys[i]))
                    << "sample " << i << ", excursion " << excursion;
        }
    }
}

TEST(CompiledMonitorBank, SuppliedLanesAreRead) {
    // The lane path is live: the same poisoned lanes in exact mode (no
    // fallback) change the codes of the x-driven monitors.
    Rng rng(51u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 512, xs, ys);
    const auto bank = monitor::build_table1_bank();
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    const std::vector<double> poisoned(compiled.x_leg_count() * xs.size(), 1.0);
    std::vector<unsigned> plain;
    std::vector<unsigned> fed;
    compiled.codes_into(xs, ys, plain);
    compiled.codes_into(xs, ys, fed, SampleMode::exact, poisoned);
    EXPECT_NE(fed, plain);
}

TEST(CompiledMonitorBank, PerturbedMosMonitorsBitIdentical) {
    // Monte-Carlo-perturbed legs exercise the vt0_delta / kp_scale /
    // offset_current merge the compiler hoists.
    Rng rng(7u);
    const mc::PelgromModel pelgrom;
    const mc::ProcessVariation process;
    monitor::MonitorBank bank;
    for (int row = 1; row <= 6; ++row)
        bank.add(std::make_unique<monitor::MosCurrentBoundary>(
            monitor::perturb_monitor(monitor::table1_config(row), pelgrom,
                                     process, rng)));
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 1024, xs, ys);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, LinearBankBitIdentical) {
    Rng rng(43u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);
    const auto bank = monitor::build_linear_approximation_bank();
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    EXPECT_EQ(compiled.fallback_count(), 0u);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, MixedBankWithFallbackBitIdentical) {
    Rng rng(44u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 2048, xs, ys);
    monitor::MonitorBank bank;
    bank.add(std::make_unique<monitor::LinearBoundary>(1.0, 1.0, -1.0));
    bank.add(std::make_unique<monitor::MosCurrentBoundary>(monitor::table1_config(3)));
    bank.add(std::make_unique<CircleBoundary>(0.7, 0.7, 0.2));
    bank.add(std::make_unique<monitor::LinearBoundary>(-1.0, 2.0, -0.4));
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    EXPECT_EQ(compiled.size(), 4u);
    EXPECT_EQ(compiled.compiled_count(), 3u);
    EXPECT_EQ(compiled.fallback_count(), 1u);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, EmptyCompilableSubsetStillCorrect) {
    // Every monitor non-compilable: the kernel degrades to the virtual path
    // wholesale and must still produce identical codes.
    Rng rng(45u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 512, xs, ys);
    monitor::MonitorBank bank;
    bank.add(std::make_unique<CircleBoundary>(0.3, 0.3, 0.25));
    bank.add(std::make_unique<CircleBoundary>(0.7, 0.5, 0.15));
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    EXPECT_EQ(compiled.compiled_count(), 0u);
    EXPECT_EQ(compiled.fallback_count(), 2u);
    expect_codes_identical(bank, xs, ys);
}

TEST(CompiledMonitorBank, CopyIsDeep) {
    monitor::MonitorBank bank;
    bank.add(std::make_unique<CircleBoundary>(0.3, 0.3, 0.25));
    bank.add(std::make_unique<monitor::LinearBoundary>(1.0, 0.0, -0.5));
    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    const kernels::CompiledMonitorBank copy(compiled); // clones the fallback
    EXPECT_EQ(copy.code(0.3, 0.4), compiled.code(0.3, 0.4));
    EXPECT_EQ(copy.code(0.9, 0.9), bank.code(0.9, 0.9));
}

TEST(EncodeCodes, MatchesEncodeEvents) {
    Rng rng(46u);
    std::vector<double> xs;
    std::vector<double> ys;
    random_trace(rng, 4096, xs, ys);
    const auto bank = monitor::build_table1_bank();
    const double dt = 1e-7;

    std::vector<capture::CodeEvent> virtual_events;
    capture::Chronogram::encode_events(xs, ys, dt, bank, virtual_events);

    const auto compiled = kernels::CompiledMonitorBank::compile(bank);
    std::vector<unsigned> codes;
    compiled.codes_into(xs, ys, codes);
    std::vector<capture::CodeEvent> kernel_events;
    capture::Chronogram::encode_codes(codes, dt, kernel_events);

    ASSERT_EQ(kernel_events.size(), virtual_events.size());
    for (std::size_t i = 0; i < kernel_events.size(); ++i) {
        ASSERT_EQ(kernel_events[i].t, virtual_events[i].t) << "event " << i;
        ASSERT_EQ(kernel_events[i].code, virtual_events[i].code) << "event " << i;
    }
}

core::SignaturePipeline make_pipeline(double noise_sigma = 0.0,
                                      bool quantise = false) {
    core::PipelineOptions opts;
    opts.samples_per_period = 2048;
    opts.noise_sigma = noise_sigma;
    opts.quantise = quantise;
    if (quantise)
        opts.capture = {.f_clk = 20e6, .counter_bits = 24};
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

/// The virtual reference: chronogram() zones through MonitorBank::code and
/// Chronogram::encode_events, never through the compiled kernels.
double virtual_ndf(const core::SignaturePipeline& pipe,
                   const filter::Cut& golden, const filter::Cut& cut,
                   Rng* noise_rng = nullptr) {
    return core::ndf(pipe.chronogram(cut, noise_rng), pipe.chronogram(golden));
}

void expect_same_chronogram(const capture::Chronogram& a,
                            const capture::Chronogram& b) {
    EXPECT_EQ(a.period(), b.period());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        ASSERT_EQ(a.events()[i].t, b.events()[i].t) << "event " << i;
        ASSERT_EQ(a.events()[i].code, b.events()[i].code) << "event " << i;
    }
}

TEST(PipelineKernels, CompiledNdfBitIdenticalToVirtual) {
    core::SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(core::paper_biquad());
    pipe.set_golden(golden);
    expect_same_chronogram(pipe.golden(), pipe.chronogram(golden));
    core::NdfScratch scratch;
    for (double dev = -0.2; dev <= 0.2001; dev += 0.04) {
        const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(dev));
        const core::SignaturePipeline::CutEvaluation eval =
            pipe.evaluate(cut, scratch);
        expect_same_chronogram(eval.observed, pipe.chronogram(cut));
        ASSERT_EQ(eval.ndf, virtual_ndf(pipe, golden, cut)) << "deviation " << dev;
        // And the allocating one-shot entry point.
        ASSERT_EQ(pipe.ndf_of(cut), eval.ndf) << "deviation " << dev;
    }
}

TEST(PipelineKernels, NoisyAndQuantisedPathsBitIdentical) {
    core::SignaturePipeline pipe = make_pipeline(0.005, true);
    const filter::BehaviouralCut golden(core::paper_biquad());
    pipe.set_golden(golden);
    const filter::BehaviouralCut cut(core::paper_biquad().with_f0_shift(0.1));
    core::NdfScratch scratch;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng_a(seed);
        Rng rng_b(seed);
        ASSERT_EQ(pipe.ndf_of(cut, scratch, &rng_a),
                  virtual_ndf(pipe, golden, cut, &rng_b))
            << "seed " << seed;
    }
}

TEST(PipelineKernels, BatchEvaluatorUsesCompiledPath) {
    core::SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(core::paper_biquad());
    pipe.set_golden(golden);
    std::vector<double> devs;
    for (int d = -15; d <= 15; d += 3)
        devs.push_back(d);
    const core::BatchNdfEvaluator batch(pipe, {.threads = 2});
    const auto got = batch.evaluate_deviations(core::paper_biquad(), devs);
    ASSERT_EQ(got.size(), devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i) {
        const filter::BehaviouralCut cut(
            core::paper_biquad().with_f0_shift(devs[i] / 100.0));
        ASSERT_EQ(got[i], virtual_ndf(pipe, golden, cut)) << "deviation " << devs[i];
    }
}

} // namespace
} // namespace xysig
