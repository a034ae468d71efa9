#include "workloads.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

#include "server/json.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using xysig::server::JsonValue;

// Stream kinds: every (kind, index) pair seeds its own SplitMix64, so job i
// never depends on how many draws job i-1 made.
constexpr std::uint64_t kJobStream = 1;
constexpr std::uint64_t kWarmupStream = 2;
constexpr std::uint64_t kBaseStream = 3;
constexpr std::uint64_t kBlockStream = 4;

// replay_mix: a small base set of deviation universes that exact resubmits
// and covered member slices reuse, and the tenants that send the jobs.
constexpr std::size_t kReplayBases = 4;
/// Base sizes are fixed, not drawn, so the offered load in members per
/// second does not depend on the seed.
std::size_t replay_base_members(std::size_t base) { return 256 + 64 * base; }
// Job kinds come in shuffled blocks: per 20 jobs, 7 exact resubmits that
// cycle through the bases, 7 covered slices and 6 fresh grids. Every run
// then offers the same mix whatever the seed; only the order and the draws
// within a kind vary. With independent draws the p90 latency, which sits
// among the largest resubmits, moved with each seed's share of them.
constexpr std::size_t kReplayBlock = 20;
constexpr std::size_t kReplayResubmits = 7;
constexpr std::size_t kReplaySlices = 7; // the rest are fresh grids
const char* const kTenants[] = {"tenant-a", "tenant-b", "tenant-c"};
constexpr std::size_t kPriorityTenant = 2;
constexpr int kHighPriority = 5;

const std::vector<WorkloadSpec> kWorkloads = {
    // name, --spp, loop, rate_per_s, latency_limit_s, checks_per_job
    {"dev_grid", 2048, Loop::closed, 0.0, 1.0, 2},
    {"spice_faults", 1024, Loop::closed, 0.0, 1.0, 1},
    {"replay_mix", 2048, Loop::open, 200.0, 0.02, 1},
};

/// prefix + decimal n (spelled out: GCC 12 warns falsely on the
/// const char* + std::string&& overload).
std::string numbered(const char* prefix, std::size_t n) {
    std::string out(prefix);
    out += std::to_string(n);
    return out;
}

JsonValue grid(double from, double to, std::size_t count) {
    JsonValue::Object g;
    g.emplace("from", from);
    g.emplace("to", to);
    g.emplace("count", count);
    return JsonValue(std::move(g));
}

} // namespace

std::uint64_t SplitMix64::next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double SplitMix64::uniform(double lo, double hi) {
    const double unit = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * unit;
}

std::size_t SplitMix64::between(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
}

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec& find_workload(std::string_view name) {
    for (const WorkloadSpec& w : kWorkloads)
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

Generator::Generator(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(&spec), seed_(seed) {
    if (spec.name == "spice_faults") {
        // The fault universe's size is a property of the circuit; decode
        // one job line to learn it rather than hard-coding it.
        SplitMix64 rng = stream(kWarmupStream, 0);
        const std::string line = spice_job(rng, "probe").line;
        spice_universe_members_ =
            xysig::server::parse_wire_job(JsonValue::parse(line)).universe_members;
    }
}

SplitMix64 Generator::stream(std::uint64_t kind, std::uint64_t index) const {
    SplitMix64 mix(seed_ ^ (kind << 56));
    const std::uint64_t a = mix.next();
    return SplitMix64(a ^ (index * 0xD1B54A32D192ED03ULL));
}

void Generator::choose_checks(SplitMix64& rng, JobSpec& job) const {
    const std::size_t want = std::min(spec_->checks_per_job, job.member_count);
    while (job.check_members.size() < want) {
        const std::size_t m =
            job.first_member + rng.between(0, job.member_count - 1);
        if (std::find(job.check_members.begin(), job.check_members.end(), m) ==
            job.check_members.end())
            job.check_members.push_back(m);
    }
    std::sort(job.check_members.begin(), job.check_members.end());
}

JobSpec Generator::dev_grid_job(SplitMix64& rng, std::string id) const {
    JobSpec job;
    job.id = std::move(id);
    job.universe_tag = job.id;
    const bool q = rng.next() % 2 == 1;
    const double from = rng.uniform(-25.0, -5.0);
    const double to = rng.uniform(5.0, 25.0);
    job.member_count = rng.between(128, 256);
    JsonValue::Object o;
    o.emplace("job", "deviations");
    o.emplace("id", job.id);
    o.emplace("parameter", q ? "q" : "f0");
    o.emplace("grid", grid(from, to, job.member_count));
    job.line = JsonValue(std::move(o)).dump();
    choose_checks(rng, job);
    return job;
}

JsonValue::Object Generator::replay_base(std::size_t base) const {
    // Size and parameter are fixed per base, and the endpoints move only
    // a little with the seed, so the offered load (members and signature
    // bytes per second) does not depend on the seed.
    SplitMix64 rng = stream(kBaseStream, base);
    JsonValue::Object o;
    o.emplace("job", "deviations");
    o.emplace("parameter", base % 2 == 0 ? "f0" : "q");
    o.emplace("grid", grid(rng.uniform(-21.0, -19.0), rng.uniform(19.0, 21.0),
                           replay_base_members(base)));
    return o;
}

JobSpec Generator::spice_job(SplitMix64& rng, std::string id) const {
    JobSpec job;
    job.id = std::move(id);
    job.universe_tag = job.id;
    JsonValue::Object o;
    o.emplace("job", "spice_faults");
    o.emplace("id", job.id);
    o.emplace("settle_periods", 4);
    o.emplace("bridge_resistance", rng.uniform(50.0, 500.0));
    job.line = JsonValue(std::move(o)).dump();
    job.member_count = spice_universe_members_;
    choose_checks(rng, job);
    return job;
}

JobSpec Generator::replay_job(std::size_t index) const {
    SplitMix64 rng = stream(kJobStream, index);
    JobSpec job;
    job.id = numbered("j", index);
    const std::size_t tenant = rng.between(0, 2);
    const std::size_t block = index / kReplayBlock;
    std::array<std::size_t, kReplayBlock> slots{};
    std::iota(slots.begin(), slots.end(), std::size_t{0});
    SplitMix64 block_rng = stream(kBlockStream, block);
    for (std::size_t i = kReplayBlock - 1; i > 0; --i)
        std::swap(slots[i], slots[block_rng.between(0, i)]);
    const std::size_t slot = slots[index % kReplayBlock];
    JsonValue::Object o;
    o.emplace("job", "deviations");
    o.emplace("id", job.id);
    o.emplace("client", kTenants[tenant]);
    if (tenant == kPriorityTenant)
        o.emplace("priority", kHighPriority);
    if (slot < kReplayResubmits + kReplaySlices) {
        // Reuse of a base universe: the whole grid, or a covered slice.
        const std::size_t b = slot < kReplayResubmits
                                  ? (block * kReplayResubmits + slot) % kReplayBases
                                  : rng.between(0, kReplayBases - 1);
        JsonValue::Object base = replay_base(b);
        o.emplace("parameter", std::move(base.at("parameter")));
        o.emplace("grid", std::move(base.at("grid")));
        job.universe_tag = numbered("base", b);
        job.member_count = replay_base_members(b);
        if (slot >= kReplayResubmits) {
            const std::size_t universe = job.member_count;
            job.member_count = rng.between(16, 128);
            job.first_member = rng.between(0, universe - job.member_count);
            JsonValue::Object m;
            m.emplace("first", job.first_member);
            m.emplace("count", job.member_count);
            o.emplace("members", JsonValue(std::move(m)));
        }
    } else {
        // A fresh small grid: misses the job cache, fills it and evicts.
        job.universe_tag = numbered("fresh", index);
        o.emplace("parameter", rng.next() % 2 == 1 ? "q" : "f0");
        job.member_count = rng.between(4, 12);
        o.emplace("grid", grid(rng.uniform(-25.0, -5.0), rng.uniform(5.0, 25.0),
                               job.member_count));
    }
    job.line = JsonValue(std::move(o)).dump();
    choose_checks(rng, job);
    return job;
}

JobSpec Generator::job(std::size_t index) const {
    if (spec_->name == "replay_mix")
        return replay_job(index);
    SplitMix64 rng = stream(kJobStream, index);
    std::string id = numbered("j", index);
    if (spec_->name == "spice_faults")
        return spice_job(rng, std::move(id));
    return dev_grid_job(rng, std::move(id));
}

std::vector<JobSpec> Generator::warmup() const {
    std::vector<JobSpec> out;
    if (spec_->name == "replay_mix") {
        for (std::size_t b = 0; b < kReplayBases; ++b) {
            JsonValue::Object o = replay_base(b);
            JobSpec job;
            job.id = numbered("w", b);
            o.emplace("id", job.id);
            job.line = JsonValue(std::move(o)).dump();
            job.universe_tag = numbered("base", b);
            job.member_count = replay_base_members(b);
            out.push_back(std::move(job));
        }
        return out;
    }
    SplitMix64 rng = stream(kWarmupStream, 0);
    if (spec_->name == "spice_faults")
        out.push_back(spice_job(rng, "w0"));
    else
        out.push_back(dev_grid_job(rng, "w0"));
    return out;
}

} // namespace perfbench
