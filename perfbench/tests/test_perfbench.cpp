// Tests of the benchmark's own machinery: the deterministic job-line
// generator, the order statistics, and the span tracer's self times.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "e2e.h"
#include "server/json.h"
#include "server/wire.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using xysig::server::JsonValue;

std::string sequence(const WorkloadSpec& spec, std::uint64_t seed, std::size_t n) {
    const Generator gen(spec, seed);
    std::string out;
    for (const JobSpec& w : gen.warmup())
        out += w.line + "\n";
    for (std::size_t i = 0; i < n; ++i)
        out += gen.job(i).line + "\n";
    return out;
}

TEST(Generator, SameSeedGivesByteIdenticalSequence) {
    for (const WorkloadSpec& spec : workloads())
        EXPECT_EQ(sequence(spec, 42, 300), sequence(spec, 42, 300)) << spec.name;
}

TEST(Generator, DifferentSeedGivesDifferentSequence) {
    for (const WorkloadSpec& spec : workloads())
        EXPECT_NE(sequence(spec, 1, 50), sequence(spec, 2, 50)) << spec.name;
}

TEST(Generator, JobDependsOnlyOnSeedAndIndex) {
    const Generator a(find_workload("replay_mix"), 7);
    const Generator b(find_workload("replay_mix"), 7);
    const std::string late = a.job(123).line;
    for (std::size_t i = 0; i < 123; ++i)
        (void)b.job(i);
    EXPECT_EQ(late, b.job(123).line);
}

TEST(Generator, LinesDecodeToTheAdvertisedMemberRange) {
    for (const WorkloadSpec& spec : workloads()) {
        const Generator gen(spec, 3);
        std::vector<JobSpec> jobs = gen.warmup();
        const std::size_t timed_from = jobs.size();
        for (std::size_t i = 0; i < 40; ++i)
            jobs.push_back(gen.job(i));
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const JobSpec& job = jobs[j];
            const xysig::server::WireJob wire =
                xysig::server::parse_wire_job(JsonValue::parse_strict(job.line));
            EXPECT_EQ(wire.id, job.id);
            EXPECT_EQ(wire.is_spice, spec.name == "spice_faults");
            EXPECT_EQ(wire.job.size(), job.member_count) << job.line;
            EXPECT_EQ(wire.member_offset, job.first_member) << job.line;
            EXPECT_EQ(wire.job.shard_size, 0u) << "jobs leave shard_size unset";
            if (j < timed_from)
                continue; // warm-up jobs are not spot-checked
            ASSERT_EQ(job.check_members.size(),
                      std::min(spec.checks_per_job, job.member_count));
            for (std::size_t k = 0; k < job.check_members.size(); ++k) {
                EXPECT_GE(job.check_members[k], job.first_member);
                EXPECT_LT(job.check_members[k], job.first_member + job.member_count);
                if (k > 0)
                    EXPECT_LT(job.check_members[k - 1], job.check_members[k]);
            }
        }
    }
}

TEST(Generator, TimedJobsOfClosedLoopWorkloadsAreDistinct) {
    for (const char* name : {"dev_grid", "spice_faults"}) {
        const Generator gen(find_workload(name), 11);
        std::set<std::string> universes;
        for (std::size_t i = 0; i < 200; ++i) {
            JsonValue::Object o = JsonValue::parse(gen.job(i).line).as_object();
            o.erase("id");
            universes.insert(JsonValue(std::move(o)).dump());
        }
        EXPECT_EQ(universes.size(), 200u) << name;
    }
}

TEST(Generator, ReplayMixShares) {
    const Generator gen(find_workload("replay_mix"), 5);
    const std::size_t n = 3000;
    std::size_t fresh = 0, slices = 0, priority = 0;
    std::set<std::string> tenants;
    for (std::size_t i = 0; i < n; ++i) {
        const JobSpec job = gen.job(i);
        const JsonValue v = JsonValue::parse(job.line);
        fresh += job.universe_tag.rfind("fresh", 0) == 0 ? 1 : 0;
        slices += v.has("members") ? 1 : 0;
        tenants.insert(v.at("client").as_string());
        if (v.has("priority")) {
            ++priority;
            EXPECT_EQ(v.at("client").as_string(), "tenant-c");
        }
    }
    // Kinds come in blocks of 20, so the shares are exact.
    EXPECT_EQ(fresh, n * 6 / 20);
    EXPECT_EQ(slices, n * 7 / 20);
    EXPECT_NEAR(static_cast<double>(priority) / n, 1.0 / 3.0, 0.03);
    EXPECT_EQ(tenants.size(), 3u);
}

TEST(ScanResult, ReadsTheServersResultLines) {
    // Built the way the server builds a result event: a sorted-key object.
    JsonValue::Object o;
    o.emplace("event", "result");
    o.emplace("id", "j42");
    o.emplace("member", std::size_t{517});
    o.emplace("ndf", 0.09765625000000017);
    o.emplace("ndf_hex", "0x1.900000000000cp-4");
    o.emplace("label", "dev(f0,\"member\":1%)");
    o.emplace("signature", "5@0x0p+0;4@0x1.54c985f06f695p-16");
    o.emplace("zone_visits", std::size_t{2});
    const std::string line = JsonValue(std::move(o)).dump();
    const auto r = scan_result(line);
    ASSERT_TRUE(r.has_value()) << line;
    EXPECT_EQ(r->id, "j42");
    EXPECT_EQ(r->member, 517u);
    EXPECT_EQ(r->ndf_hex, "0x1.900000000000cp-4");

    const auto nan = scan_result(
        R"j({"event":"result","id":"j1","label":"open(R1)","member":21,"ndf":null,"ndf_hex":"nan"})j");
    ASSERT_TRUE(nan.has_value());
    EXPECT_EQ(nan->member, 21u);
    EXPECT_EQ(nan->ndf_hex, "nan");
}

TEST(ScanResult, LeavesOtherLinesToTheParser) {
    EXPECT_FALSE(scan_result(R"({"event":"job_done","id":"j1","members_done":4})"));
    EXPECT_FALSE(scan_result(R"({"id":"j1","event":"result","member":1,"ndf_hex":"nan"})"));
    EXPECT_FALSE(scan_result(R"({"event":"result","id":"j1","member":1})"));
    EXPECT_FALSE(scan_result(R"({"event":"result","id":"j1","member":x,"ndf_hex":"nan"})"));
}

TEST(Stats, QuantilesInterpolateBetweenClosestRanks) {
    // Python: statistics.quantiles([1..8], n=4, method="inclusive")
    // = [2.75, 4.5, 6.25].
    const Distribution d = describe({8, 1, 7, 2, 6, 3, 5, 4});
    EXPECT_EQ(d.count, 8u);
    EXPECT_DOUBLE_EQ(d.q1, 2.75);
    EXPECT_DOUBLE_EQ(d.median, 4.5);
    EXPECT_DOUBLE_EQ(d.q3, 6.25);
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_ANY_THROW((void)median({}));
}

TEST(Stats, DescribeSortsAndReportsTheSampleCount) {
    const Distribution d = describe({9, 1, 5, 3, 7});
    EXPECT_EQ(d.count, 5u);
    EXPECT_DOUBLE_EQ(d.median, 5.0);
    EXPECT_DOUBLE_EQ(d.q1, 3.0);
    EXPECT_DOUBLE_EQ(d.q3, 7.0);
    EXPECT_FALSE(d.p90.has_value());
    EXPECT_EQ(describe({}).count, 0u);
}

TEST(Stats, P90OnlyWithTenSamplesBeyondIt) {
    EXPECT_EQ(samples_beyond(100, 0.9), 10u);
    EXPECT_EQ(samples_beyond(92, 0.9), 10u);
    EXPECT_EQ(samples_beyond(91, 0.9), 9u);
    EXPECT_EQ(samples_beyond(0, 0.9), 0u);
    for (std::size_t n : {10u, 50u, 91u, 92u, 100u, 1000u}) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<double>(n - i); // descending on purpose
        const Distribution d = describe(v);
        EXPECT_EQ(d.count, n);
        EXPECT_EQ(d.beyond_p90, samples_beyond(n, 0.9));
        EXPECT_EQ(d.p90.has_value(), d.beyond_p90 >= kMinSamplesBeyond) << n;
        if (d.p90) {
            std::size_t above = 0;
            for (double x : v)
                above += x > *d.p90 ? 1 : 0;
            EXPECT_GE(above, kMinSamplesBeyond) << n;
        }
    }
    const Distribution hundred = describe(std::vector<double>(100, 1.0));
    ASSERT_TRUE(hundred.p90.has_value());
}

TEST(Tracer, SelfTimeIsSpanMinusCoveredChildren) {
    Tracer t;
    const std::size_t parent = t.begin("parent", 1);
    {
        const Tracer::Scope child(t, "child", 1, parent);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    t.end(parent);
    const auto layers = t.layer_times();
    const Tracer::LayerTime& p = layers.at("parent");
    const Tracer::LayerTime& c = layers.at("child");
    EXPECT_EQ(p.count, 1u);
    EXPECT_NEAR(p.self_s, p.total_s - c.total_s, 1e-9);
    EXPECT_DOUBLE_EQ(c.self_s, c.total_s);
    EXPECT_GE(p.self_s, 0.009);
}

TEST(Tracer, DisabledRecordsNothing) {
    Tracer t(false);
    { const Tracer::Scope s(t, "x", 0); }
    EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, WritesChromeTraceEvents) {
    Tracer t;
    const std::size_t job = t.begin("job", 3);
    { const Tracer::Scope s(t, "layer", 3, job); }
    t.end(job);
    const std::string path = ::testing::TempDir() + "perfbench_spans.json";
    t.write_chrome_json(path);
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue v = JsonValue::parse(text.str());
    const JsonValue::Array& events = v.at("traceEvents").as_array();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].at("name").as_string(), "layer");
    EXPECT_EQ(events[1].at("ph").as_string(), "X");
    EXPECT_EQ(events[1].at("args").at("parent").as_number(), 0.0);
    EXPECT_EQ(events[1].at("args").at("job").as_number(), 3.0);
    std::remove(path.c_str());
}

} // namespace
