#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

/// \file report.h
/// Turns runs into named metrics, applies the output check and the
/// validity rules, and prints the human table plus the one-line JSON
/// result the benchmark contract asks for.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "e2e.h"
#include "stats.h"
#include "traced.h"

namespace perfbench {

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::optional<Distribution> samples; ///< the samples behind the value
    std::size_t events = 0; ///< for a rate: the events counted
};

/// Per-job verdicts of one end-to-end run.
struct Verdict {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<bool> job_failed;
    std::vector<std::string> errors;
};

/// Stream checks plus the reference re-evaluation of every job's
/// spot-checked members (outside the timed phase).
[[nodiscard]] Verdict check_run(const WorkloadSpec& spec, const E2eRun& run);

/// The end-to-end metrics, in BENCHMARK.json order, plus failed_frac.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const WorkloadSpec& spec,
                                                     const E2eRun& run,
                                                     const Verdict& verdict);

/// The per-layer metrics: in-process values from the traced run plus the
/// server-reported and client-side ones from a (shorter) untraced run.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const E2eRun& run,
                                                    const TracedRun& traced);

/// Empty when the run measured the server; otherwise why the client, not
/// the server, was the bottleneck.
[[nodiscard]] std::string invalid_reason(const WorkloadSpec& spec, const E2eRun& run);

/// Human-readable table (every metric by name, unit, sample count, median
/// and quartiles).
void print_table(const std::string& title, const std::vector<Metric>& metrics);
void print_layers(const TracedRun& traced);

/// The contract's last stdout line. Metrics named in `skip` are left out.
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& metrics,
                                      const std::vector<std::string>& skip);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
