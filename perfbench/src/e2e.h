#ifndef PERFBENCH_E2E_H
#define PERFBENCH_E2E_H

/// \file e2e.h
/// The end-to-end run: start the real sweep_server binary, drive it over
/// its stdin/stdout pipes from this one client process, time every job
/// from the job line (or its due time, in open loop) to its events, and
/// collect what the output check and the metrics need. An open-loop run
/// ends with a backlog phase that keeps a window of jobs in flight, so the
/// server's own completion rate is measured as well.

#include <sys/resource.h>

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/json.h"
#include "workloads.h"

namespace perfbench {

/// One timed job as the client saw it. Times are seconds since the start
/// of the timed phase; -1 means "never happened".
struct JobRecord {
    JobSpec spec;
    /// Latency origin: the scheduled send time in open loop, so a stall also
    /// counts against the jobs due behind it; the send time in closed loop.
    double due = 0.0;
    double sent = -1.0;
    double first_result = -1.0;
    double done = -1.0;
    std::size_t results = 0;
    std::size_t next_member = 0; ///< expected next result member id
    bool started = false;        ///< job_start seen with the expected range
    std::string problem;         ///< first protocol or stream problem seen
    std::vector<std::string> check_hex; ///< ndf_hex of spec.check_members
    /// Sent in the backlog phase: checked, but not a latency sample.
    bool backlog = false;

    // job_done fields
    bool cached = false;
    double service_s = 0.0;
    double queue_s = 0.0;
    double shard_max_s = 0.0;
    double shard_mean_s = 0.0;
    std::size_t shards_done = 0;
};

struct E2eRun {
    std::vector<double> setup_s; ///< spawn -> ready, one per spawn
    std::vector<JobRecord> jobs; ///< timed jobs, in index order
    double wall_s = 0.0;         ///< timed phase: first send to last job_done
    std::size_t results_timed = 0;
    /// Open loop only: the backlog phase's result events, its span (first
    /// send to last job_done) and the event reader's CPU time over it.
    std::size_t backlog_results = 0;
    double backlog_wall_s = 0.0;
    double backlog_reader_cpu_s = 0.0;
    std::size_t results_total = 0; ///< every result the measured server sent
    struct rusage server_usage {};
    double client_cpu_s = 0.0; ///< this process, over the timed phase
    double reader_cpu_s = 0.0; ///< the event-reading thread, same span
    std::vector<double> send_lag_s; ///< open loop: sent - due, per job
    xysig::server::JsonValue stats; ///< the stats event after the timed phase
};

/// The fields of a result line the client needs.
struct ResultLine {
    std::string_view id;
    std::size_t member = 0;
    std::string_view ndf_hex;
};

/// Result lines are most of the stream, so the client reads them with this
/// scanner rather than the JSON parser, which would otherwise pace the
/// stream on the client side. The server writes compact JSON with sorted
/// keys (docs/PROTOCOL.md), so a result line starts with
/// {"event":"result","id":" and `,"member":` and `,"ndf_hex":"` cannot
/// occur inside a string value (a quote there is escaped). Returns nullopt
/// for any other line, which then goes to the parser.
[[nodiscard]] std::optional<ResultLine> scan_result(std::string_view line);

/// Runs the workload for `seconds` (closed loop: until at least `min_jobs`
/// jobs are done as well; open loop: the arrival-rate phase, then the
/// backlog phase). Throws on a broken conversation (server died,
/// timeout); per-job problems are recorded, not thrown.
[[nodiscard]] E2eRun run_e2e(const Generator& gen, double seconds,
                             std::size_t min_jobs, const std::string& server_path);

} // namespace perfbench

#endif // PERFBENCH_E2E_H
