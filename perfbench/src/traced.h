#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

/// \file traced.h
/// The traced run: replays a workload's seeded job lines in-process and
/// times calls into each layer's public functions from the benchmark's own
/// code. Per member it calls the layers in pipeline order (sample,
/// respond, zone, encode, NDF) under spans, then the whole member through
/// SignaturePipeline::evaluate, and checks both give the same bits. It
/// also drives SweepService::run and ServerSession::handle_line in-process,
/// the latter with spans off and on.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace perfbench {

struct TracedRun {
    /// Per-layer metric values measured in-process, by metric name.
    std::map<std::string, double> metrics;
    /// Span durations and self times by span name.
    std::map<std::string, Tracer::LayerTime> layers;
    std::size_t jobs = 0; ///< jobs through the layer chain, the probe included
    /// Mean set_golden time of the workload's own jobs (cache as the
    /// server would see it: the SPICE golden is never cached).
    double golden_per_job_s = 0.0;
    std::size_t spans = 0;
    std::vector<std::string> problems; ///< chain and evaluate disagreed
    std::size_t failed_jobs = 0;       ///< jobs with at least one problem
};

/// Spends about `seconds` in total; writes the spans to `span_path`.
[[nodiscard]] TracedRun run_traced(const Generator& gen, double seconds,
                                   const std::string& span_path);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
