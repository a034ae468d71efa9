#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/// \file workloads.h
/// The benchmark's workloads and their deterministic job-line generator.
/// A workload is a traffic mix of sweep_server job lines; the server only
/// ever sees the generated lines. The same (workload, seed) gives a
/// byte-identical job sequence; job i depends only on (workload, seed, i),
/// so the traced run can replay any prefix of it in-process.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/json.h"

namespace perfbench {

enum class Loop {
    closed, ///< one client; the next job is sent when the previous is done
    open,   ///< jobs are sent at fixed due times whatever the backlog
};

struct WorkloadSpec {
    std::string_view name;
    std::size_t samples_per_period = 0; ///< the server's --spp
    Loop loop = Loop::closed;
    double rate_per_s = 0.0;      ///< open loop: job arrival rate
    double latency_limit_s = 0.0; ///< on_time_frac: a job is on time within this
    std::size_t checks_per_job = 1; ///< members re-evaluated by the output check
};

/// Server worker threads for every workload (one of the 4 cores is left to
/// the client and the server's reader and emitter threads).
inline constexpr unsigned kServerWorkers = 3;

/// Untraced closed-loop runs keep going past --seconds until this many jobs
/// are done, so the p90 latency always has at least 10 samples beyond it.
inline constexpr std::size_t kMinJobsPerRun = 100;

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const WorkloadSpec& find_workload(std::string_view name);

/// One generated job.
struct JobSpec {
    std::string id;
    std::string line; ///< one NDJSON job line, without the newline
    std::size_t first_member = 0; ///< global id of the job's first member
    std::size_t member_count = 0; ///< members the job evaluates
    /// Names the job's universe, ignoring the member slice, id and
    /// scheduling fields: equal tags mean equal member values.
    std::string universe_tag;
    /// Global member ids the output check re-evaluates, ascending.
    std::vector<std::size_t> check_members;
};

/// SplitMix64: a small generator whose output is fixed by the algorithm,
/// not by the standard library, so sequences repeat across platforms.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t state) : state_(state) {}
    std::uint64_t next();
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi);
    /// Uniform integer in [lo, hi].
    std::size_t between(std::size_t lo, std::size_t hi);

private:
    std::uint64_t state_;
};

class Generator {
public:
    Generator(const WorkloadSpec& spec, std::uint64_t seed);

    [[nodiscard]] const WorkloadSpec& spec() const noexcept { return *spec_; }

    /// The index-th timed job.
    [[nodiscard]] JobSpec job(std::size_t index) const;

    /// Untimed jobs sent before the timed phase so that lazy set-up
    /// (worker pool, golden, stimulus trace, the replay mix's base
    /// universes in the job cache) is done when timing starts.
    [[nodiscard]] std::vector<JobSpec> warmup() const;

private:
    [[nodiscard]] SplitMix64 stream(std::uint64_t kind, std::uint64_t index) const;
    [[nodiscard]] JobSpec dev_grid_job(SplitMix64& rng, std::string id) const;
    /// The replay_mix base universe `base`, as a job object without an id.
    [[nodiscard]] xysig::server::JsonValue::Object replay_base(std::size_t base) const;
    [[nodiscard]] JobSpec spice_job(SplitMix64& rng, std::string id) const;
    [[nodiscard]] JobSpec replay_job(std::size_t index) const;
    void choose_checks(SplitMix64& rng, JobSpec& job) const;

    const WorkloadSpec* spec_;
    std::uint64_t seed_;
    std::size_t spice_universe_members_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
