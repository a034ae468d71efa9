#include "e2e.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "process.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using xysig::server::JsonValue;

/// Servers spawned to time set-up; the last one is the measured server.
constexpr int kSetupSpawns = 31;
/// Open loop: share of the timed phase spent in the backlog phase, and the
/// jobs it keeps in flight. Job lines are small, so the window stays far
/// below a pipe buffer and writing never waits on the server.
constexpr double kBacklogShare = 0.3;
constexpr std::size_t kBacklogWindow = 16;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double usage_cpu(int who) {
    struct rusage ru {};
    getrusage(who, &ru);
    return cpu_seconds(ru);
}

std::vector<std::string> server_argv(const std::string& path,
                                     const WorkloadSpec& spec) {
    return {path, "--workers=" + std::to_string(kServerWorkers),
            "--spp=" + std::to_string(spec.samples_per_period)};
}

void expect_ready(ChildProcess& server) {
    std::string line;
    if (!server.read_line(line) ||
        JsonValue::parse(line).string_or("event", "") != "ready")
        throw std::runtime_error("server did not announce ready: " + line);
}

/// Applies the server's event lines to the job records.
class Conversation {
public:
    Conversation(std::vector<JobRecord>& jobs, Clock::time_point t0)
        : jobs_(jobs), t0_(t0) {}

    /// Returns true when the line ended a job (job_done or error).
    bool apply(const std::string& line) {
        const double now = seconds_since(t0_);
        if (const std::optional<ResultLine> r = scan_result(line)) {
            ++results_total;
            if (JobRecord* rec = record_for(r->id))
                on_result(*rec, r->member, r->ndf_hex, now);
            return false;
        }
        const JsonValue ev = JsonValue::parse(line);
        const std::string kind = ev.string_or("event", "");
        if (kind == "stats") {
            stats = ev;
            return false;
        }
        if (kind == "result")
            ++results_total;
        const std::string id = ev.string_or("id", "");
        JobRecord* rec = record_for(id);
        if (rec == nullptr) {
            if (kind == "error")
                throw std::runtime_error("server error outside the timed jobs: " +
                                         line);
            if (kind == "job_done")
                ++warmups_done;
            return kind == "job_done";
        }
        if (kind == "job_start") {
            rec->started = true;
            rec->next_member = rec->spec.first_member;
            if (xysig::server::index_field(ev.at("members"), "members") !=
                    rec->spec.member_count ||
                xysig::server::index_field(ev.at("first_member"), "first_member") !=
                    rec->spec.first_member)
                note(*rec, "job_start reports another member range");
        } else if (kind == "result") {
            on_result(*rec, xysig::server::index_field(ev.at("member"), "member"),
                      ev.at("ndf_hex").as_string(), now);
        } else if (kind == "job_done") {
            rec->done = now;
            ++timed_done;
            rec->cached = ev.bool_or("cached", false);
            rec->service_s = ev.number_or("seconds", 0.0);
            rec->queue_s = ev.number_or("queue_seconds", 0.0);
            rec->shard_max_s = ev.number_or("shard_seconds_max", 0.0);
            rec->shard_mean_s = ev.number_or("shard_seconds_mean", 0.0);
            rec->shards_done = xysig::server::index_field(ev.at("shards_done"),
                                                          "shards_done");
            if (ev.bool_or("cancelled", false))
                note(*rec, "job was cancelled");
            if (xysig::server::index_field(ev.at("members_done"), "members_done") !=
                    rec->spec.member_count ||
                rec->results != rec->spec.member_count)
                note(*rec, "job_done after a short stream");
            return true;
        } else if (kind == "error") {
            rec->done = now;
            ++timed_done;
            note(*rec, "error event: " + ev.string_or("message", ""));
            return true;
        }
        return false;
    }

    std::size_t results_total = 0;
    std::size_t results_timed = 0;
    std::size_t timed_done = 0;
    std::size_t warmups_done = 0;
    JsonValue stats;

private:
    void on_result(JobRecord& rec, std::size_t member, std::string_view ndf_hex,
                   double now) {
        ++results_timed;
        ++rec.results;
        if (rec.first_result < 0.0)
            rec.first_result = now;
        if (!rec.started || member != rec.next_member)
            note(rec, "result out of order");
        rec.next_member = member + 1;
        const auto& checks = rec.spec.check_members;
        const auto it = std::find(checks.begin(), checks.end(), member);
        if (it != checks.end())
            rec.check_hex[static_cast<std::size_t>(it - checks.begin())] = ndf_hex;
    }

    /// The timed job an id names; nullptr for warm-up jobs ("w<k>").
    JobRecord* record_for(std::string_view id) {
        if (id.size() < 2 || id[0] != 'j')
            return nullptr;
        std::size_t index = 0;
        const auto [end, ec] = std::from_chars(id.data() + 1, id.data() + id.size(), index);
        if (ec != std::errc() || end != id.data() + id.size() || index >= jobs_.size() ||
            jobs_[index].spec.id != id)
            throw std::runtime_error("event for an unknown job id '" + std::string(id) +
                                     "'");
        return &jobs_[index];
    }

    static void note(JobRecord& rec, const std::string& what) {
        if (rec.problem.empty())
            rec.problem = what;
    }

    std::vector<JobRecord>& jobs_;
    Clock::time_point t0_;
};

JobRecord make_record(JobSpec spec) {
    JobRecord rec;
    rec.check_hex.resize(spec.check_members.size());
    rec.spec = std::move(spec);
    return rec;
}

void read_until(ChildProcess& server, Conversation& conv,
                const std::function<bool()>& finished) {
    std::string line;
    while (!finished()) {
        if (!server.read_line(line))
            throw std::runtime_error("server closed its stdout mid-run");
        conv.apply(line);
    }
}

void run_closed_loop(const Generator& gen, double seconds, std::size_t min_jobs,
                     ChildProcess& server, Conversation& conv, E2eRun& run,
                     Clock::time_point t0) {
    for (std::size_t i = 0;; ++i) {
        if (seconds_since(t0) >= seconds && i >= std::max<std::size_t>(min_jobs, 1))
            break;
        run.jobs.push_back(make_record(gen.job(i)));
        run.jobs.back().sent = seconds_since(t0);
        run.jobs.back().due = run.jobs.back().sent;
        server.write_line(run.jobs.back().spec.line);
        read_until(server, conv, [&] { return conv.timed_done == i + 1; });
    }
}

/// Open loop: run.jobs holds every job, due times set, before t0.
void run_open_loop(ChildProcess& server, Conversation& conv, E2eRun& run,
                   Clock::time_point t0) {
    // The writer owns `sent`; the reader below owns every other field.
    std::exception_ptr writer_error;
    std::thread writer([&] {
        try {
            for (JobRecord& rec : run.jobs) {
                std::this_thread::sleep_until(
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(rec.due)));
                rec.sent = seconds_since(t0);
                server.write_line(rec.spec.line);
            }
        } catch (...) {
            writer_error = std::current_exception();
        }
    });
    try {
        read_until(server, conv, [&] { return conv.timed_done == run.jobs.size(); });
    } catch (...) {
        server.kill_now(); // unblocks a writer stuck on a full pipe
        writer.join();
        throw;
    }
    writer.join();
    if (writer_error)
        std::rethrow_exception(writer_error);
    for (const JobRecord& rec : run.jobs)
        run.send_lag_s.push_back(rec.sent - rec.due);
}

/// Backlog: after the open-loop jobs, keeps kBacklogWindow jobs in flight
/// for `seconds`, so the server, not the arrival rate, sets the pace.
void run_backlog(const Generator& gen, double seconds, ChildProcess& server,
                 Conversation& conv, E2eRun& run, Clock::time_point t0) {
    const std::size_t results0 = conv.results_timed;
    const double reader_cpu0 = usage_cpu(RUSAGE_THREAD);
    const double start = seconds_since(t0);
    for (;;) {
        const bool sending = seconds_since(t0) - start < seconds;
        while (sending && run.jobs.size() - conv.timed_done < kBacklogWindow) {
            run.jobs.push_back(make_record(gen.job(run.jobs.size())));
            JobRecord& rec = run.jobs.back();
            rec.backlog = true;
            rec.sent = seconds_since(t0);
            rec.due = rec.sent;
            server.write_line(rec.spec.line);
        }
        const std::size_t done = conv.timed_done;
        if (done == run.jobs.size())
            break;
        read_until(server, conv, [&] { return conv.timed_done > done; });
    }
    run.backlog_wall_s = seconds_since(t0) - start;
    run.backlog_results = conv.results_timed - results0;
    run.backlog_reader_cpu_s = usage_cpu(RUSAGE_THREAD) - reader_cpu0;
}

} // namespace

std::optional<ResultLine> scan_result(std::string_view line) {
    constexpr std::string_view prefix = R"({"event":"result","id":")";
    constexpr std::string_view member_key = R"(,"member":)";
    constexpr std::string_view hex_key = R"(,"ndf_hex":")";
    if (!line.starts_with(prefix))
        return std::nullopt;
    const std::size_t id_end = line.find('"', prefix.size());
    if (id_end == std::string_view::npos)
        return std::nullopt;
    const std::size_t member_at = line.find(member_key, id_end);
    const std::size_t hex_at = line.find(hex_key, id_end);
    if (member_at == std::string_view::npos || hex_at == std::string_view::npos)
        return std::nullopt;
    ResultLine r;
    r.id = line.substr(prefix.size(), id_end - prefix.size());
    const char* digits = line.data() + member_at + member_key.size();
    if (std::from_chars(digits, line.data() + line.size(), r.member).ec != std::errc())
        return std::nullopt;
    const std::size_t hex_begin = hex_at + hex_key.size();
    const std::size_t hex_end = line.find('"', hex_begin);
    if (hex_end == std::string_view::npos)
        return std::nullopt;
    r.ndf_hex = line.substr(hex_begin, hex_end - hex_begin);
    return r;
}

E2eRun run_e2e(const Generator& gen, double seconds, std::size_t min_jobs,
               const std::string& server_path) {
    const WorkloadSpec& spec = gen.spec();
    const std::vector<std::string> argv = server_argv(server_path, spec);
    E2eRun run;

    // Set-up time: spawn to the ready line, several times; the last
    // server stays up and is the one measured.
    std::unique_ptr<ChildProcess> server;
    for (int i = 0; i < kSetupSpawns; ++i) {
        if (server)
            server->finish();
        const Clock::time_point spawn = Clock::now();
        server = std::make_unique<ChildProcess>(argv);
        expect_ready(*server);
        run.setup_s.push_back(seconds_since(spawn));
    }

    std::size_t warmup_results = 0;
    {
        Conversation warm(run.jobs, Clock::now());
        for (const JobSpec& w : gen.warmup()) {
            const std::size_t before = warm.warmups_done;
            server->write_line(w.line);
            read_until(*server, warm, [&] { return warm.warmups_done > before; });
        }
        warmup_results = warm.results_total;
    }

    if (spec.loop == Loop::open) {
        // Generated before the clock starts, so the first due times are met.
        const double open_s = (1.0 - kBacklogShare) * seconds;
        for (std::size_t i = 0; static_cast<double>(i) / spec.rate_per_s < open_s; ++i) {
            run.jobs.push_back(make_record(gen.job(i)));
            run.jobs.back().due = static_cast<double>(i) / spec.rate_per_s;
        }
    }
    const Clock::time_point t0 = Clock::now();
    Conversation conv(run.jobs, t0);
    const double client_cpu0 = usage_cpu(RUSAGE_SELF);
    const double reader_cpu0 = usage_cpu(RUSAGE_THREAD);
    if (spec.loop == Loop::closed)
        run_closed_loop(gen, seconds, min_jobs, *server, conv, run, t0);
    else {
        run_open_loop(*server, conv, run, t0);
        run_backlog(gen, kBacklogShare * seconds, *server, conv, run, t0);
    }
    for (const JobRecord& rec : run.jobs)
        run.wall_s = std::max(run.wall_s, rec.done);
    run.client_cpu_s = usage_cpu(RUSAGE_SELF) - client_cpu0;
    run.reader_cpu_s = usage_cpu(RUSAGE_THREAD) - reader_cpu0;
    run.results_timed = conv.results_timed;

    server->write_line(R"({"cmd":"stats"})");
    read_until(*server, conv, [&] { return conv.stats.is_object(); });
    run.stats = conv.stats;
    run.results_total = warmup_results + conv.results_total;
    run.server_usage = server->finish();
    return run;
}

} // namespace perfbench
