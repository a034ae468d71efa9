#include "report.h"

#include <algorithm>
#include <cstdio>

#include "process.h"
#include "reference.h"
#include "server/json.h"

namespace perfbench {

namespace {

using xysig::server::JsonValue;

/// A run is client-bound when the event reader was this busy...
constexpr double kMaxReaderBusy = 0.9;
/// ...or the open-loop sender ran this late, as a share of the latency limit.
constexpr double kMaxSendLagShare = 0.25;

/// A metric whose value is the median of its samples.
Metric from_samples(std::string name, std::string unit,
                    const std::vector<double>& values) {
    Metric m{std::move(name), std::move(unit), 0.0, describe(values)};
    m.value = m.samples->median;
    return m;
}

double latency(const JobRecord& rec) { return rec.done - rec.due; }

/// Latency samples: every job but the backlog phase's.
std::vector<double> latencies(const E2eRun& run) {
    std::vector<double> out;
    for (const JobRecord& rec : run.jobs)
        if (!rec.backlog)
            out.push_back(latency(rec));
    return out;
}

std::vector<double> first_results(const E2eRun& run) {
    std::vector<double> out;
    for (const JobRecord& rec : run.jobs)
        if (!rec.backlog && rec.first_result >= 0.0)
            out.push_back(rec.first_result - rec.due);
    return out;
}

double number_at(const JsonValue& obj, const char* section, const char* key) {
    if (!obj.is_object() || !obj.has(section))
        return 0.0;
    return obj.at(section).number_or(key, 0.0);
}

} // namespace

Verdict check_run(const WorkloadSpec& spec, const E2eRun& run) {
    Verdict v;
    v.attempted = run.jobs.size();
    v.job_failed.assign(run.jobs.size(), false);
    std::vector<CheckItem> items;
    std::vector<std::size_t> item_job;
    for (std::size_t j = 0; j < run.jobs.size(); ++j) {
        const JobRecord& rec = run.jobs[j];
        if (!rec.problem.empty()) {
            v.job_failed[j] = true;
            v.errors.push_back(rec.spec.id + ": " + rec.problem);
            continue;
        }
        for (std::size_t k = 0; k < rec.spec.check_members.size(); ++k) {
            items.push_back({rec.spec.line, rec.spec.universe_tag,
                             rec.spec.check_members[k], rec.check_hex[k]});
            item_job.push_back(j);
        }
    }
    const std::vector<bool> ok = check_against_reference(
        items, spec.samples_per_period, kServerWorkers, v.errors);
    for (std::size_t i = 0; i < items.size(); ++i)
        if (!ok[i])
            v.job_failed[item_job[i]] = true;
    v.failed = static_cast<std::size_t>(
        std::count(v.job_failed.begin(), v.job_failed.end(), true));
    return v;
}

std::vector<Metric> end_to_end_metrics(const WorkloadSpec& spec, const E2eRun& run,
                                       const Verdict& verdict) {
    std::vector<Metric> out;
    out.push_back(from_samples("setup_s", "s", run.setup_s));
    // In open loop the arrival rate fixes the rate of the paced phase, so
    // the server's own rate is taken from the backlog phase.
    const bool open = spec.loop == Loop::open;
    const std::size_t members = open ? run.backlog_results : run.results_timed;
    out.push_back({"members_per_s", "1/s",
                   static_cast<double>(members) / (open ? run.backlog_wall_s : run.wall_s),
                   std::nullopt, members});

    const std::vector<double> lat = latencies(run);
    out.push_back(from_samples("job_latency_p50_s", "s", lat));
    Metric p90 = from_samples("job_latency_p90_s", "s", lat);
    if (!p90.samples->p90)
        throw std::runtime_error(
            "too few jobs for a p90 latency: " + std::to_string(lat.size()) +
            " jobs leave " + std::to_string(p90.samples->beyond_p90) +
            " samples beyond it, " + std::to_string(kMinSamplesBeyond) + " needed");
    p90.value = *p90.samples->p90;
    out.push_back(std::move(p90));

    out.push_back(from_samples("first_result_p50_s", "s", first_results(run)));

    out.push_back({"cpu_s_per_kmember", "s",
                   cpu_seconds(run.server_usage) /
                       (static_cast<double>(run.results_total) / 1000.0),
                   std::nullopt});
    out.push_back({"peak_rss_mb", "MB",
                   static_cast<double>(run.server_usage.ru_maxrss) / 1024.0,
                   std::nullopt});

    std::size_t on_time = 0;
    for (std::size_t j = 0; j < run.jobs.size(); ++j)
        if (!run.jobs[j].backlog && !verdict.job_failed[j] &&
            latency(run.jobs[j]) <= spec.latency_limit_s)
            ++on_time;
    out.push_back({"on_time_frac", "frac",
                   static_cast<double>(on_time) / static_cast<double>(lat.size()),
                   std::nullopt});
    out.push_back({"failed_frac", "frac",
                   static_cast<double>(verdict.failed) /
                       static_cast<double>(verdict.attempted),
                   std::nullopt});
    return out;
}

std::string invalid_reason(const WorkloadSpec& spec, const E2eRun& run) {
    const double reader_busy = run.reader_cpu_s / run.wall_s;
    if (reader_busy >= kMaxReaderBusy)
        return "the client's event reader was busy " + std::to_string(reader_busy) +
               " of the timed phase";
    if (spec.loop == Loop::open) {
        const double backlog_busy = run.backlog_reader_cpu_s / run.backlog_wall_s;
        if (backlog_busy >= kMaxReaderBusy)
            return "the client's event reader was busy " +
                   std::to_string(backlog_busy) + " of the backlog phase";
        const Distribution lag = describe(run.send_lag_s);
        const double worst = lag.p90.value_or(lag.q3);
        if (worst > kMaxSendLagShare * spec.latency_limit_s)
            return "the open-loop sender ran " + std::to_string(worst) +
                   " s late (p90)";
    }
    return {};
}

std::vector<Metric> per_layer_metrics(const E2eRun& run, const TracedRun& traced) {
    std::vector<Metric> out;
    const auto add = [&](const std::string& name, const std::string& unit,
                         double value) { out.push_back({name, unit, value, std::nullopt}); };
    const auto traced_value = [&](const std::string& name, const std::string& unit) {
        add(name, unit, traced.metrics.at(name));
    };
    traced_value("signal.sample_ns_per_sample", "ns");
    traced_value("filter.respond_y_ns_per_sample", "ns");
    traced_value("spice.member_ms", "ms");
    traced_value("spice.step_us", "us");
    traced_value("spice.newton_iters_per_step", "count");
    traced_value("spice.rejected_steps_per_member", "count");
    traced_value("kernels.zoning_ns_per_sample", "ns");
    traced_value("capture.encode_ns_per_sample", "ns");
    traced_value("core.ndf_us", "us");
    traced_value("core.member_us", "us");
    traced_value("core.golden_spice_ms", "ms");
    traced_value("core.golden_behavioural_ms", "ms");
    traced_value("core.golden_cache_hit_ratio", "frac");
    traced_value("core.trace_cache_hit_ratio", "frac");
    traced_value("server.decode_us", "us");
    traced_value("server.result_line_us", "us");
    traced_value("server.sweep_members_per_s", "1/s");
    traced_value("server.session_members_per_s", "1/s");

    // Server-reported job accounting from the untraced wire run, backlog
    // phase left out.
    std::vector<double> queue, service, transport, imbalance, shard_share;
    double busy = 0.0, capacity = 0.0;
    for (const JobRecord& rec : run.jobs) {
        if (rec.backlog)
            continue;
        queue.push_back(rec.queue_s);
        service.push_back(rec.service_s);
        transport.push_back(latency(rec) - rec.queue_s - rec.service_s);
        if (rec.cached || rec.shards_done == 0)
            continue;
        imbalance.push_back(rec.shard_max_s / rec.shard_mean_s);
        shard_share.push_back(rec.shard_max_s / latency(rec));
        busy += static_cast<double>(rec.shards_done) * rec.shard_mean_s;
        capacity += rec.service_s * kServerWorkers;
    }
    add("server.first_result_p50_s", "s", median(first_results(run)));
    add("server.queue_wait_p50_s", "s", median(queue));
    add("server.service_p50_s", "s", median(service));
    add("server.transport_p50_s", "s", median(transport));
    add("server.shard_imbalance", "ratio", imbalance.empty() ? 0.0 : median(imbalance));
    add("server.worker_busy_frac", "frac", capacity == 0.0 ? 0.0 : busy / capacity);
    const double hits = number_at(run.stats, "job_cache", "hits");
    const double misses = number_at(run.stats, "job_cache", "misses");
    add("server.job_cache_hit_ratio", "frac",
        hits + misses == 0.0 ? 0.0 : hits / (hits + misses));
    add("server.job_cache_evictions", "count",
        number_at(run.stats, "job_cache", "evictions"));
    add("server.goldens_prefetched", "count",
        number_at(run.stats, "scheduler", "goldens_prefetched"));

    const Distribution lag = describe(run.send_lag_s);
    add("bench.send_lag_p90_s", "s", lag.p90.value_or(lag.count == 0 ? 0.0 : lag.q3));
    add("bench.client_cpu_frac", "frac", run.client_cpu_s / run.wall_s);
    traced_value("bench.trace_overhead_frac", "frac");

    const double latency_p50 = median(latencies(run));
    traced_value("share.zoning_of_member", "frac");
    add("share.golden_of_job_latency", "frac", traced.golden_per_job_s / latency_p50);
    add("share.shard_of_job_latency", "frac",
        shard_share.empty() ? 0.0 : median(shard_share));
    return out;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
    std::printf("\n%s\n", title.c_str());
    std::printf("  %-34s %12s %-5s %8s %11s %11s %11s %11s %7s\n", "metric",
                "value", "unit", "samples", "median", "q1", "q3", "p90", "beyond");
    for (const Metric& m : metrics) {
        std::printf("  %-34s %12.6g %-5s", m.name.c_str(), m.value, m.unit.c_str());
        if (m.samples) {
            const Distribution& d = *m.samples;
            std::printf(" %8zu %11.6g %11.6g %11.6g", d.count, d.median, d.q1, d.q3);
            if (d.p90)
                std::printf(" %11.6g %7zu", *d.p90, d.beyond_p90);
        } else if (m.events > 0) {
            std::printf(" %8zu", m.events);
        }
        std::printf("\n");
    }
}

void print_layers(const TracedRun& traced) {
    std::printf("\nspans by layer (%zu spans, %zu jobs through the layer chain)\n",
                traced.spans, traced.jobs);
    std::printf("  %-26s %8s %12s %12s %12s\n", "span", "count", "total_ms",
                "self_ms", "mean_us");
    for (const auto& [name, lt] : traced.layers)
        std::printf("  %-26s %8zu %12.3f %12.3f %12.3f\n", name.c_str(), lt.count,
                    1e3 * lt.total_s, 1e3 * lt.self_s,
                    1e6 * lt.total_s / static_cast<double>(lt.count));
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics,
                        const std::vector<std::string>& skip) {
    JsonValue::Object values;
    for (const Metric& m : metrics) {
        if (std::find(skip.begin(), skip.end(), m.name) != skip.end())
            continue;
        JsonValue::Object v;
        v.emplace("value", m.value);
        v.emplace("unit", m.unit);
        values.emplace(m.name, JsonValue(std::move(v)));
    }
    JsonValue::Object o;
    o.emplace("correct", correct);
    o.emplace("attempted", attempted);
    o.emplace("failed", failed);
    o.emplace("metrics", JsonValue(std::move(values)));
    return JsonValue(std::move(o)).dump();
}

} // namespace perfbench
