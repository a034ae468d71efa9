// End-to-end pipeline tests on the paper's reference setup, including the
// golden-signature cache semantics of set_golden.

#include "core/pipeline.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/golden_cache.h"
#include "core/paper_setup.h"
#include "monitor/table1.h"
#include "spice/elements.h"

namespace xysig::core {
namespace {

SignaturePipeline make_pipeline(PipelineOptions opts = {}) {
    opts.samples_per_period =
        opts.samples_per_period == 8192 ? 4096 : opts.samples_per_period;
    return SignaturePipeline(monitor::build_table1_bank(), paper_stimulus(), opts);
}

TEST(Pipeline, GoldenAgainstItselfIsZero) {
    SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(paper_biquad());
    pipe.set_golden(golden);
    EXPECT_DOUBLE_EQ(pipe.ndf_of(golden), 0.0);
}

TEST(Pipeline, RequiresGoldenBeforeNdf) {
    SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut cut(paper_biquad());
    EXPECT_THROW((void)pipe.ndf_of(cut), ContractError);
}

TEST(Pipeline, TenPercentShiftLandsNearPaperValue) {
    // Paper Fig. 7: NDF = 0.1021 for +10% f0. Our calibrated setup lands in
    // the same region (the paper fixes the geometry only graphically).
    SignaturePipeline pipe = make_pipeline();
    pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
    const filter::BehaviouralCut defective(paper_biquad().with_f0_shift(0.10));
    const double v = pipe.ndf_of(defective);
    EXPECT_GT(v, 0.06);
    EXPECT_LT(v, 0.14);
}

TEST(Pipeline, ChronogramVisitsPaperZoneCount) {
    // Fig. 7 shows the golden trace visiting on the order of 15-20 zones per
    // period (16 distinct codes exist, some visited twice).
    SignaturePipeline pipe = make_pipeline();
    const auto ch = pipe.chronogram(filter::BehaviouralCut(paper_biquad()));
    EXPECT_GE(ch.zone_visits(), 10u);
    EXPECT_LE(ch.zone_visits(), 30u);
    EXPECT_NEAR(ch.period(), 200e-6, 1e-9);
}

TEST(Pipeline, NoiseRequiresRngAndRaisesNdf) {
    PipelineOptions opts;
    opts.noise_sigma = 0.005;
    SignaturePipeline pipe = make_pipeline(opts);
    const filter::BehaviouralCut golden(paper_biquad());
    pipe.set_golden(golden);
    // Without an RNG the pipeline is deterministic and noise-free.
    EXPECT_DOUBLE_EQ(pipe.ndf_of(golden), 0.0);
    Rng rng(123);
    const double noisy = pipe.ndf_of(golden, &rng);
    EXPECT_GT(noisy, 0.0);
    EXPECT_LT(noisy, 0.05); // noise floor well under defect signal levels
}

TEST(Pipeline, NoisyMembersBitIdenticalToVirtualChronogram) {
    // Noise on x means the member cannot zone from the stimulus x-leg
    // lanes; it must still give the virtual chronogram() bits, draw for
    // draw.
    PipelineOptions opts;
    opts.noise_sigma = 0.005;
    opts.samples_per_period = 2048;
    SignaturePipeline pipe = make_pipeline(opts);
    const filter::BehaviouralCut golden(paper_biquad());
    pipe.set_golden(golden);
    ASSERT_NE(pipe.x_leg_lanes(), nullptr);
    const capture::Chronogram virtual_golden = pipe.chronogram(golden);
    NdfScratch scratch;
    for (const double dev : {-0.1, 0.0, 0.05}) {
        const filter::BehaviouralCut cut(paper_biquad().with_f0_shift(dev));
        for (const std::uint64_t seed : {7u, 8u}) {
            Rng rng_a(seed);
            Rng rng_b(seed);
            const SignaturePipeline::CutEvaluation eval =
                pipe.evaluate(cut, scratch, &rng_a);
            const capture::Chronogram reference = pipe.chronogram(cut, &rng_b);
            ASSERT_EQ(eval.observed.events().size(), reference.events().size())
                << "deviation " << dev << ", seed " << seed;
            for (std::size_t i = 0; i < reference.events().size(); ++i) {
                ASSERT_EQ(eval.observed.events()[i].t, reference.events()[i].t);
                ASSERT_EQ(eval.observed.events()[i].code,
                          reference.events()[i].code);
            }
            ASSERT_EQ(eval.ndf, ndf(reference, virtual_golden))
                << "deviation " << dev << ", seed " << seed;
        }
    }
}

TEST(Pipeline, XLegLanesAreBuiltOncePerMode) {
    PipelineOptions opts;
    opts.samples_per_period = 1024;
    SignaturePipeline pipe = make_pipeline(opts);
    const filter::BehaviouralCut golden(paper_biquad());
    // Not in the constructor: set-up stays as cheap as sampling.
    EXPECT_EQ(pipe.x_leg_lanes(), nullptr);

    pipe.set_golden(golden);
    const std::shared_ptr<const std::vector<double>> exact = pipe.x_leg_lanes();
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, pipe.compiled_bank().x_leg_lanes(*pipe.stimulus_trace(),
                                                       SampleMode::exact));
    pipe.set_golden(golden);
    EXPECT_EQ(pipe.x_leg_lanes().get(), exact.get());

    pipe.set_fast_math(true);
    EXPECT_EQ(pipe.x_leg_lanes(), nullptr);
    pipe.set_golden(golden);
    const std::shared_ptr<const std::vector<double>> fast = pipe.x_leg_lanes();
    ASSERT_NE(fast, nullptr);
    EXPECT_NE(fast.get(), exact.get());
    EXPECT_EQ(*fast, pipe.compiled_bank().x_leg_lanes(*pipe.stimulus_trace(),
                                                      SampleMode::fast_math));

    pipe.set_fast_math(false);
    EXPECT_EQ(pipe.x_leg_lanes().get(), exact.get());
    pipe.set_golden(golden);
    EXPECT_EQ(pipe.x_leg_lanes().get(), exact.get());
    pipe.set_fast_math(true);
    pipe.set_golden(golden);
    EXPECT_EQ(pipe.x_leg_lanes().get(), fast.get());
}

TEST(Pipeline, LaneFedMembersMatchFromScratchZoningInBothModes) {
    // evaluate() zones x_is_stimulus() members from the pipeline's lanes;
    // zoning the same trace with no lanes must give the same chronogram.
    for (const bool fast_math : {false, true}) {
        PipelineOptions opts;
        opts.samples_per_period = 2048;
        opts.fast_math = fast_math;
        SignaturePipeline pipe = make_pipeline(opts);
        pipe.set_golden(filter::BehaviouralCut(paper_biquad()));
        const SampleMode mode = fast_math ? SampleMode::fast_math : SampleMode::exact;
        NdfScratch scratch;
        for (const double dev : {-0.15, 0.02, 0.1}) {
            const filter::BehaviouralCut cut(paper_biquad().with_f0_shift(dev));
            const capture::Chronogram lane_fed = pipe.evaluate(cut, scratch).observed;

            std::vector<double> ys;
            double dt = 0.0;
            cut.respond_y_into(pipe.stimulus(), opts.samples_per_period, ys, dt,
                               mode);
            std::vector<unsigned> codes;
            pipe.compiled_bank().codes_into(*pipe.stimulus_trace(), ys, codes,
                                            mode);
            std::vector<capture::CodeEvent> events;
            capture::Chronogram::encode_codes(codes, dt, events);
            ASSERT_EQ(lane_fed.events().size(), events.size())
                << "fast_math " << fast_math << ", deviation " << dev;
            for (std::size_t i = 0; i < events.size(); ++i) {
                ASSERT_EQ(lane_fed.events()[i].t, events[i].t);
                ASSERT_EQ(lane_fed.events()[i].code, events[i].code);
            }
        }
    }
}

TEST(Pipeline, QuantisedChronogramCloseToIdeal) {
    PipelineOptions ideal_opts;
    SignaturePipeline ideal_pipe = make_pipeline(ideal_opts);

    PipelineOptions q_opts;
    q_opts.quantise = true;
    q_opts.capture.f_clk = 10e6;
    q_opts.capture.counter_bits = 16;
    SignaturePipeline q_pipe = make_pipeline(q_opts);

    const filter::BehaviouralCut golden(paper_biquad());
    const auto ideal = ideal_pipe.chronogram(golden);
    const auto quantised = q_pipe.chronogram(golden);
    // Quantisation error at 10 MHz on a 200 us period is tiny.
    EXPECT_LT(ndf(ideal, quantised), 0.01);
}

TEST(Pipeline, CaptureProducesPaperStyleSignature) {
    SignaturePipeline pipe = make_pipeline();
    const auto res = pipe.capture(filter::BehaviouralCut(paper_biquad()));
    EXPECT_EQ(res.overflow_events, 0);
    EXPECT_GE(res.signature.size(), 10u);
    // 200 us at 10 MHz.
    EXPECT_EQ(res.signature.total_ticks(), 2000u);
}

TEST(GoldenCache, SetGoldenMatchesVirtualChronogramPathExactly) {
    // set_golden now runs the compiled scratch path; the stored golden must
    // still equal the virtual-path chronogram bit for bit (the kernels'
    // identity guarantee carried to the golden).
    SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut golden(paper_biquad());
    pipe.set_golden(golden);
    const auto reference = pipe.chronogram(golden);
    ASSERT_EQ(pipe.golden().events().size(), reference.events().size());
    for (std::size_t i = 0; i < reference.events().size(); ++i) {
        EXPECT_EQ(pipe.golden().events()[i].t, reference.events()[i].t);
        EXPECT_EQ(pipe.golden().events()[i].code, reference.events()[i].code);
    }
    EXPECT_DOUBLE_EQ(pipe.golden().period(), reference.period());
}

TEST(GoldenCache, RebuildingPipelinesHitsTheCache) {
    auto& cache = GoldenSignatureCache::instance();
    cache.clear();

    SignaturePipeline first = make_pipeline();
    first.set_golden(filter::BehaviouralCut(paper_biquad()));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // Same (bank, stimulus, options, cut): the rebuild must not recompute.
    SignaturePipeline second = make_pipeline();
    second.set_golden(filter::BehaviouralCut(paper_biquad()));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_GE(cache.hits(), 1u);
    ASSERT_EQ(second.golden().events().size(), first.golden().events().size());
    for (std::size_t i = 0; i < first.golden().events().size(); ++i)
        EXPECT_EQ(second.golden().events()[i].t, first.golden().events()[i].t);

    // A different golden cut is a different key, never a stale hit.
    SignaturePipeline third = make_pipeline();
    third.set_golden(filter::BehaviouralCut(paper_biquad().with_f0_shift(0.05)));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(GoldenCache, CaptureGridSharesOneIdealGolden) {
    // The ablation pattern: pipelines rebuilt per capture grid point share
    // the (bank, stimulus, spp, cut) ideal chronogram; only quantisation
    // differs. The cache must serve all of them from a single entry and the
    // quantised goldens must match a cold computation.
    auto& cache = GoldenSignatureCache::instance();
    cache.clear();

    const filter::BehaviouralCut golden(paper_biquad());
    for (const double f_clk : {5e6, 10e6, 20e6}) {
        PipelineOptions opts;
        opts.quantise = true;
        opts.capture.f_clk = f_clk;
        opts.capture.counter_bits = 16;
        SignaturePipeline pipe = make_pipeline(opts);
        pipe.set_golden(golden);

        cache.clear(); // force the next identical pipeline to recompute cold
        SignaturePipeline cold = make_pipeline(opts);
        cold.set_golden(golden);
        ASSERT_EQ(pipe.golden().events().size(), cold.golden().events().size())
            << "f_clk " << f_clk;
        for (std::size_t i = 0; i < cold.golden().events().size(); ++i) {
            EXPECT_EQ(pipe.golden().events()[i].t, cold.golden().events()[i].t);
            EXPECT_EQ(pipe.golden().events()[i].code,
                      cold.golden().events()[i].code);
        }
    }

    cache.clear();
    std::size_t computes = 0;
    for (const double f_clk : {5e6, 10e6, 20e6}) {
        PipelineOptions opts;
        opts.quantise = true;
        opts.capture.f_clk = f_clk;
        opts.capture.counter_bits = 16;
        SignaturePipeline pipe = make_pipeline(opts);
        pipe.set_golden(golden);
        computes = cache.misses();
    }
    EXPECT_EQ(computes, 1u); // one ideal golden served the whole grid
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(GoldenCache, KeyIsExactNotRounded) {
    // Two cuts that format identically at display precision must still get
    // distinct keys (the display string rounds; the key must not).
    SignaturePipeline pipe = make_pipeline();
    const filter::BehaviouralCut a(paper_biquad());
    const filter::BehaviouralCut b(paper_biquad().with_f0_shift(1e-13));
    const std::string ka = pipe.golden_cache_key(a);
    const std::string kb = pipe.golden_cache_key(b);
    ASSERT_FALSE(ka.empty());
    ASSERT_FALSE(kb.empty());
    EXPECT_NE(ka, kb);
    EXPECT_EQ(a.description(), b.description());
}

TEST(GoldenCache, SpiceCutWithoutFingerprintIsUncacheableButStillWorks) {
    // An inductor has no device fingerprint -> empty key -> computed
    // uncached.
    SignaturePipeline pipe = make_pipeline();
    auto nl = std::make_unique<spice::Netlist>();
    const auto in = nl->node("in");
    const auto out = nl->node("out");
    nl->add<spice::VoltageSource>("Vin", in, spice::kGround, 0.0);
    nl->add<spice::Resistor>("R1", in, out, 1e3);
    nl->add<spice::Inductor>("L1", out, spice::kGround, 1e-3);
    const filter::SpiceCut cut(std::move(nl), "Vin", "in", "out", 2);
    EXPECT_TRUE(pipe.golden_cache_key(cut).empty());

    auto& cache = GoldenSignatureCache::instance();
    cache.clear();
    pipe.set_golden(cut);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(pipe.has_golden());
}

TEST(GoldenCache, SpiceCutGoldenIsCachedUnderItsNetlistFingerprint) {
    // An RC netlist spells every device, so its golden goes through the
    // cache; a second cut over a clone is a hit with the same bits.
    const auto make_cut = [] {
        auto nl = std::make_unique<spice::Netlist>();
        const auto in = nl->node("in");
        const auto out = nl->node("out");
        nl->add<spice::VoltageSource>("Vin", in, spice::kGround, 0.0);
        nl->add<spice::Resistor>("R1", in, out, 1e3);
        nl->add<spice::Capacitor>("C1", out, spice::kGround, 1e-9);
        return filter::SpiceCut(std::move(nl), "Vin", "in", "out", 2);
    };
    const filter::SpiceCut first = make_cut();
    const filter::SpiceCut second = make_cut();
    SignaturePipeline pipe = make_pipeline();
    ASSERT_FALSE(pipe.golden_cache_key(first).empty());
    EXPECT_EQ(pipe.golden_cache_key(first), pipe.golden_cache_key(second));

    auto& cache = GoldenSignatureCache::instance();
    cache.clear();
    pipe.set_golden(first);
    pipe.set_golden(second);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // The hit carries the bits a fresh simulation of the second cut gives.
    const auto reference = pipe.chronogram(second);
    ASSERT_EQ(pipe.golden().events().size(), reference.events().size());
    for (std::size_t i = 0; i < reference.events().size(); ++i) {
        EXPECT_EQ(pipe.golden().events()[i].t, reference.events()[i].t);
        EXPECT_EQ(pipe.golden().events()[i].code, reference.events()[i].code);
    }
}

TEST(Pipeline, RejectsEmptyBankAndCoarseSampling) {
    EXPECT_THROW(SignaturePipeline(monitor::MonitorBank{}, paper_stimulus(), {}),
                 ContractError);
    PipelineOptions opts;
    opts.samples_per_period = 16;
    EXPECT_THROW(SignaturePipeline(monitor::build_table1_bank(), paper_stimulus(),
                                   opts),
                 ContractError);
}

} // namespace
} // namespace xysig::core
