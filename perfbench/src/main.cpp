// perfbench — end-to-end and per-layer benchmark of the sweep service.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH/example_sweep_server --spans PATH.json
//
// --trace 0 drives the real server binary over pipes for S seconds and
// prints the end-to-end metrics. --trace 1 spends part of S on a shorter
// untraced wire run (for the server-reported per-layer numbers) and the
// rest on the in-process traced replay, writes its spans to --spans, and
// prints the per-layer metrics. Either way the outputs are checked, and
// the last stdout line is one JSON object: correct, attempted, failed,
// metrics.
// Exit codes: 0 ok; 1 outputs wrong (the JSON line still printed); 2 usage
// or run error; 3 the run was client-bound (invalid).

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "e2e.h"
#include "report.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace perfbench;

/// Share of a traced run's seconds spent on the untraced wire run.
constexpr double kTracedWireShare = 0.4;

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH --spans PATH\n";
    return 2;
}

int run(const std::map<std::string, std::string>& args) {
    const WorkloadSpec& spec = find_workload(args.at("--workload"));
    const auto seed = static_cast<std::uint64_t>(std::stoull(args.at("--seed")));
    const double seconds = std::stod(args.at("--seconds"));
    const bool trace = args.at("--trace") == "1";
    const std::string& server = args.at("--server");
    if (!(seconds > 0.0))
        return usage("--seconds must be positive");

    const Generator gen(spec, seed);
    std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, %u server "
                "workers, --spp=%zu",
                std::string(spec.name).c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0, kServerWorkers, spec.samples_per_period);
    if (spec.loop == Loop::open)
        std::printf(", open loop at %g jobs/s, latency limit %g s", spec.rate_per_s,
                    spec.latency_limit_s);
    std::printf("\n");

    const E2eRun wire = run_e2e(gen, trace ? kTracedWireShare * seconds : seconds,
                                trace ? 0 : kMinJobsPerRun, server);
    if (spec.loop == Loop::open) {
        const auto backlog_jobs = std::count_if(
            wire.jobs.begin(), wire.jobs.end(), [](const JobRecord& r) { return r.backlog; });
        std::printf("backlog phase: %td jobs in %.3f s, %.1f jobs/s, event reader "
                    "busy %.2f\n",
                    backlog_jobs, wire.backlog_wall_s,
                    static_cast<double>(backlog_jobs) / wire.backlog_wall_s,
                    wire.backlog_reader_cpu_s / wire.backlog_wall_s);
    }
    const Verdict verdict = check_run(spec, wire);
    for (const std::string& e : verdict.errors)
        std::fprintf(stderr, "perfbench: output check: %s\n", e.c_str());

    std::vector<Metric> metrics;
    std::size_t attempted = verdict.attempted;
    std::size_t failed = verdict.failed;
    if (!trace) {
        metrics = end_to_end_metrics(spec, wire, verdict);
        print_table("end-to-end metrics (" + std::to_string(wire.jobs.size()) +
                        " jobs, " + std::to_string(wire.wall_s) + " s timed)",
                    metrics);
    } else {
        const TracedRun traced =
            run_traced(gen, (1.0 - kTracedWireShare) * seconds, args.at("--spans"));
        for (const std::string& p : traced.problems)
            std::fprintf(stderr, "perfbench: traced run: %s\n", p.c_str());
        attempted += traced.jobs;
        failed += traced.failed_jobs;
        metrics = per_layer_metrics(wire, traced);
        print_table("per-layer metrics", metrics);
        print_layers(traced);
        std::printf("spans written to %s\n", args.at("--spans").c_str());
    }

    const std::string invalid = invalid_reason(spec, wire);
    std::printf("validity: %s\n", invalid.empty() ? "ok" : ("INVALID, " + invalid).c_str());
    if (!invalid.empty()) {
        std::fprintf(stderr, "perfbench: run invalid: %s\n", invalid.c_str());
        return 3;
    }
    const bool correct = failed == 0;
    std::printf("output check: %zu of %zu jobs failed\n", failed, attempted);
    // Printed in the table but not gated (see README.md): failed_frac is
    // carried by failed/attempted, and the latencies spread more between
    // runs on a shared host than any bound BENCHMARK.json may set.
    std::printf("%s\n",
                result_json(correct, attempted, failed, metrics,
                            {"failed_frac", "first_result_p50_s", "job_latency_p50_s",
                             "job_latency_p90_s"})
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    signal(SIGPIPE, SIG_IGN); // a dead server shows up as a write error
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    for (const char* key :
         {"--workload", "--seed", "--seconds", "--trace", "--server", "--spans"})
        if (!args.count(key))
            return usage(std::string("missing ") + key);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
