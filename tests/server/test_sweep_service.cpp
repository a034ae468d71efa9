// SweepService guarantees: bit-identity to the serial/batch NDF paths at
// any (shard size x worker count), the default shard policy, one netlist
// clone per worker on SPICE universes (pinned through the
// Netlist::clone_count() probe), in-order streaming, mid-job cancellation,
// and golden-cache reuse across jobs, SPICE goldens included.

#include "server/sweep_service.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "capture/fault_injection.h"
#include "core/batch_ndf.h"
#include "core/golden_cache.h"
#include "core/paper_setup.h"
#include "filter/tow_thomas.h"
#include "monitor/table1.h"

namespace xysig::server {
namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

core::SignaturePipeline make_pipeline(std::size_t samples_per_period = 256) {
    core::PipelineOptions opts;
    opts.samples_per_period = samples_per_period;
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

std::vector<double> grid(double from, double to, std::size_t count) {
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(from + (to - from) * static_cast<double>(i) /
                                 static_cast<double>(count - 1));
    return out;
}

TEST(SweepService, DeviationJobBitIdenticalToBatchAtAnyShardAndWorkerCount) {
    // >= 10^3-member universe, >= 3 (shard size x worker count) combos: the
    // acceptance gate of the sharded service.
    const std::vector<double> deviations = grid(-20.0, 20.0, 1200);
    const filter::Biquad nominal = core::paper_biquad();

    core::SignaturePipeline reference_pipe = make_pipeline();
    reference_pipe.set_golden(filter::BehaviouralCut(nominal));
    const core::BatchNdfEvaluator batch(reference_pipe, {.threads = 2});
    const std::vector<double> reference =
        batch.evaluate_deviations(nominal, deviations);

    struct Combo {
        std::size_t shard_size; ///< 0 = the service's shard policy
        unsigned workers;
    };
    for (const Combo combo : {Combo{1, 1}, Combo{7, 4}, Combo{64, 3},
                              Combo{1200, 2}, Combo{500, 8}, Combo{0, 3}}) {
        SweepService service(make_pipeline(), {.workers = combo.workers});
        SweepJob job = SweepJob::deviation_grid(nominal, deviations);
        job.shard_size = combo.shard_size;

        std::vector<double> streamed;
        std::vector<std::size_t> order;
        const JobSummary summary = service.run(job, [&](const SweepResult& r) {
            order.push_back(r.member_id);
            streamed.push_back(r.ndf);
        });

        ASSERT_EQ(streamed.size(), reference.size())
            << "shard " << combo.shard_size << " workers " << combo.workers;
        for (std::size_t i = 0; i < reference.size(); ++i)
            ASSERT_TRUE(same_bits(streamed[i], reference[i]))
                << "member " << i << " shard " << combo.shard_size
                << " workers " << combo.workers;
        // In-order, gap-free streaming on an uncancelled job.
        for (std::size_t i = 0; i < order.size(); ++i)
            ASSERT_EQ(order[i], i);
        EXPECT_FALSE(summary.cancelled);
        EXPECT_EQ(summary.members_done, deviations.size());
        EXPECT_EQ(summary.shards_done, summary.shards_total);
        EXPECT_EQ(summary.netlist_clones, 0u); // behavioural: no SPICE clones
        EXPECT_EQ(summary.shard_timings.size(), summary.shards_total);
    }
}

TEST(SweepService, StreamsSignaturesAndLabels) {
    SweepService service(make_pipeline(), {.workers = 2});
    SweepJob job = SweepJob::deviation_grid(
        core::paper_biquad(), {-10.0, 10.0}, core::SweptParameter::f0);
    job.shard_size = 2;
    std::vector<SweepResult> results;
    (void)service.run(job,
                      [&](const SweepResult& r) { results.push_back(r); });
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].label, "dev(f0,-10%)");
    EXPECT_EQ(results[1].label, "dev(f0,10%)");
    for (const SweepResult& r : results) {
        ASSERT_TRUE(r.signature.has_value());
        EXPECT_GE(r.signature->zone_visits(), 2u);
        EXPECT_TRUE(std::isfinite(r.ndf));
        EXPECT_GT(r.ndf, 0.0); // +/-10% f0 is detectable (paper Fig. 8)
    }
}

TEST(SweepService, SpiceUniverseOneClonePerWorkerAndBitIdenticalToBatch) {
    const auto circuit = filter::build_tow_thomas(
        filter::TowThomasDesign::from_biquad(core::paper_biquad().design(), 10e3));
    const core::SpiceObservation obs{circuit.input_source, circuit.input_node,
                                     circuit.lp_node, /*settle_periods=*/2};
    capture::FaultUniverseOptions fopts;
    auto faults = capture::enumerate_bridging_faults(circuit.netlist, fopts);
    const auto opens = capture::enumerate_open_faults(circuit.netlist, fopts);
    faults.insert(faults.end(), opens.begin(), opens.end());

    // Reference: the PR-3 batch engine (one deep clone PER FAULT).
    core::SignaturePipeline reference_pipe = make_pipeline();
    reference_pipe.set_golden(filter::SpiceCut(
        std::make_unique<spice::Netlist>(circuit.netlist.clone()),
        obs.input_source, obs.x_node, obs.y_node, obs.settle_periods));
    const core::BatchNdfEvaluator batch(reference_pipe, {.threads = 2});
    const std::vector<double> reference =
        batch.evaluate_netlist_faults(circuit.netlist, faults, obs);

    constexpr unsigned kWorkers = 3;
    // No job shard size: the policy gives each fault its own shard.
    SweepService service(make_pipeline(), {.workers = kWorkers});
    const SweepJob job = SweepJob::fault_universe(
        std::make_shared<spice::Netlist>(circuit.netlist.clone()), faults, obs);

    const std::uint64_t clones_before = spice::Netlist::clone_count();
    std::vector<double> streamed;
    bool any_nan = false;
    const JobSummary summary = service.run(job, [&](const SweepResult& r) {
        streamed.push_back(r.ndf);
        if (std::isnan(r.ndf)) {
            any_nan = true;
            EXPECT_FALSE(r.signature.has_value());
        } else {
            EXPECT_TRUE(r.signature.has_value());
        }
    });
    const std::uint64_t clones_during =
        spice::Netlist::clone_count() - clones_before;

    // One clone per participating worker — never one per fault — plus
    // exactly one for the job's golden CUT. One fault per shard gives every
    // worker ample chance to participate, so the probe also caps the total.
    EXPECT_EQ(summary.netlist_clones, clones_during - 1);
    EXPECT_GE(summary.netlist_clones, 1u);
    EXPECT_LE(summary.netlist_clones, kWorkers);
    EXPECT_LT(clones_during, faults.size()); // the clone-per-fault smell test
    EXPECT_EQ(summary.shards_total, faults.size());

    // Bit identity against the clone-per-fault reference, NaNs included.
    ASSERT_EQ(streamed.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_TRUE(same_bits(streamed[i], reference[i]))
            << "fault " << faults[i].description();
    EXPECT_TRUE(any_nan); // the universe contains unsolvable members
}

TEST(SweepService, CancellationMidJobStopsDispatchKeepsOrder) {
    SweepService service(make_pipeline(), {.workers = 4});
    // Large enough that the workers cannot plausibly drain the whole
    // universe before the callback has delivered (and cancelled at) 20
    // results on the caller thread.
    SweepJob job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-20.0, 20.0, 2000));
    job.shard_size = 4;

    SweepCancelToken cancel;
    std::vector<std::size_t> order;
    const JobSummary summary = service.run(
        job,
        [&](const SweepResult& r) {
            order.push_back(r.member_id);
            if (order.size() == 20)
                cancel.cancel();
        },
        &cancel);

    EXPECT_TRUE(summary.cancelled);
    EXPECT_GE(order.size(), 20u);
    EXPECT_LT(order.size(), 2000u); // dispatch really stopped
    EXPECT_LT(summary.shards_done, summary.shards_total);
    // Every evaluated member is delivered, in ascending order (gaps allowed
    // after the cancellation point).
    EXPECT_EQ(order.size(), summary.members_done);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LT(order[i - 1], order[i]);
    // The contiguous prefix before cancellation is gap-free.
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepService, GoldenComputedOncePerFingerprintAcrossJobs) {
    SweepService service(make_pipeline(), {.workers = 2});
    SweepJob job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-5.0, 5.0, 32));
    job.shard_size = 8;
    auto& cache = core::GoldenSignatureCache::instance();

    (void)service.run(job, [](const SweepResult&) {});
    const std::size_t misses_after_first = cache.misses();
    const std::size_t hits_after_first = cache.hits();

    (void)service.run(job, [](const SweepResult&) {});
    (void)service.run(job, [](const SweepResult&) {});
    EXPECT_EQ(cache.misses(), misses_after_first); // no recomputation
    EXPECT_GE(cache.hits(), hits_after_first + 2); // one hit per repeat job

    const auto stats = service.stats();
    EXPECT_EQ(stats.jobs, 3u);
    EXPECT_EQ(stats.members, 3u * 32u);

    // SPICE: the golden is keyed on the nominal netlist's fingerprint, so
    // a second job over a separately built copy of the same circuit is a
    // cache hit, and its NDFs carry the first job's bits.
    const auto spice_job = [] {
        auto circuit = filter::build_tow_thomas(filter::TowThomasDesign::from_biquad(
            core::paper_biquad().design(), 10e3));
        const core::SpiceObservation obs{circuit.input_source,
                                         circuit.input_node, circuit.lp_node, 2};
        auto faults = capture::enumerate_open_faults(circuit.netlist, {});
        return SweepJob::fault_universe(
            std::make_shared<spice::Netlist>(std::move(circuit.netlist)),
            std::move(faults), obs);
    };
    std::vector<double> first;
    (void)service.run(spice_job(),
                      [&](const SweepResult& r) { first.push_back(r.ndf); });
    const std::size_t spice_misses = cache.misses();
    const std::size_t spice_hits = cache.hits();
    std::vector<double> second;
    (void)service.run(spice_job(),
                      [&](const SweepResult& r) { second.push_back(r.ndf); });
    EXPECT_EQ(cache.misses(), spice_misses);
    EXPECT_EQ(cache.hits(), spice_hits + 1);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(same_bits(second[i], first[i])) << "fault " << i;
}

TEST(SweepService, ShardPolicyFollowsUniverseKindAndWorkerCount) {
    // A fault universe: one shard per member.
    {
        const auto circuit = filter::build_tow_thomas(
            filter::TowThomasDesign::from_biquad(core::paper_biquad().design(),
                                                 10e3));
        const core::SpiceObservation obs{circuit.input_source,
                                         circuit.input_node, circuit.lp_node, 2};
        const auto faults = capture::enumerate_open_faults(circuit.netlist, {});
        SweepService service(make_pipeline(), {.workers = 2});
        const JobSummary summary = service.run(
            SweepJob::fault_universe(
                std::make_shared<spice::Netlist>(circuit.netlist.clone()),
                faults, obs),
            [](const SweepResult&) {});
        EXPECT_EQ(summary.shards_total, faults.size());
    }

    SweepService service(make_pipeline(), {.workers = 3});
    // A 128-member grid on 3 workers: at least four shards per worker.
    SweepJob grid_job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-20.0, 20.0, 128));
    std::size_t delivered = 0;
    const JobSummary small =
        service.run(grid_job, [&](const SweepResult&) { ++delivered; });
    EXPECT_GE(small.shards_total, 12u);
    EXPECT_EQ(small.shards_done, small.shards_total);
    EXPECT_EQ(delivered, 128u);

    // The job's own shard size overrides the policy.
    grid_job.shard_size = 128;
    EXPECT_EQ(service.run(grid_job, [](const SweepResult&) {}).shards_total,
              1u);

    // A 10^5-member grid: shards stop growing at 64 members. The job is
    // cancelled before it starts; the shard plan is still reported.
    SweepCancelToken cancelled;
    cancelled.cancel();
    const JobSummary big = service.run(
        SweepJob::deviation_grid(core::paper_biquad(),
                                 grid(-20.0, 20.0, 100000)),
        [](const SweepResult&) {}, &cancelled);
    EXPECT_EQ(big.shards_total, (100000u + 63u) / 64u);
    EXPECT_EQ(big.members_done, 0u);
}

TEST(SweepService, WorkerFaultInjectionErrorPropagates) {
    const auto circuit = filter::build_tow_thomas(
        filter::TowThomasDesign::from_biquad(core::paper_biquad().design(), 10e3));
    const core::SpiceObservation obs{circuit.input_source, circuit.input_node,
                                     circuit.lp_node, 2};
    capture::NetlistFault bogus;
    bogus.kind = capture::NetlistFault::Kind::bridging;
    bogus.node_a = "no_such_node";
    bogus.node_b = circuit.lp_node;
    bogus.value = 100.0;

    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job = SweepJob::fault_universe(
        std::make_shared<spice::Netlist>(circuit.netlist.clone()), {bogus}, obs);
    EXPECT_THROW((void)service.run(job, [](const SweepResult&) {}),
                 InvalidInput);
}

TEST(SweepService, ThrowingResultCallbackStopsJobAndServiceSurvives) {
    SweepService service(make_pipeline(), {.workers = 4});
    SweepJob job =
        SweepJob::deviation_grid(core::paper_biquad(), grid(-20.0, 20.0, 500));
    job.shard_size = 4;
    // A consumer that throws mid-stream: run() must stop the workers, wait
    // for them to release the job context, and rethrow — not crash.
    EXPECT_THROW(
        (void)service.run(job,
                          [](const SweepResult& r) {
                              if (r.member_id == 3)
                                  throw std::runtime_error("consumer failed");
                          }),
        std::runtime_error);
    // The pool is intact: the next job runs normally.
    std::size_t delivered = 0;
    (void)service.run(
        SweepJob::deviation_grid(core::paper_biquad(), {-5.0, 5.0}),
        [&](const SweepResult&) { ++delivered; });
    EXPECT_EQ(delivered, 2u);
}

TEST(SweepService, EmptyJobCompletesImmediately) {
    SweepService service(make_pipeline(), {.workers = 2});
    const SweepJob job = SweepJob::deviation_grid(core::paper_biquad(), {});
    std::size_t calls = 0;
    const JobSummary summary =
        service.run(job, [&](const SweepResult&) { ++calls; });
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(summary.members_total, 0u);
    EXPECT_EQ(summary.shards_total, 0u);
    EXPECT_FALSE(summary.cancelled);

    // A default-constructed job is an empty universe too.
    const SweepJob empty;
    EXPECT_EQ(empty.size(), 0u);
    const JobSummary default_summary =
        service.run(empty, [&](const SweepResult&) { ++calls; });
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(default_summary.members_total, 0u);
}

} // namespace
} // namespace xysig::server
