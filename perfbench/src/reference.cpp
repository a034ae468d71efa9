#include "reference.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "core/paper_setup.h"
#include "filter/cut.h"
#include "server/json.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using xysig::server::JsonValue;

/// The reference NDF of one member: decode the job line restricted to that
/// member, install the golden the service would use, evaluate serially.
std::string reference_hex(const std::string& job_line, std::size_t member,
                          std::size_t samples_per_period) {
    JsonValue::Object o = JsonValue::parse(job_line).as_object();
    JsonValue::Object slice;
    slice.emplace("first", member);
    slice.emplace("count", std::size_t{1});
    o.insert_or_assign("members", JsonValue(std::move(slice)));
    const xysig::server::WireJob job =
        xysig::server::parse_wire_job(JsonValue(std::move(o)));
    xysig::core::SignaturePipeline pipe =
        xysig::server::make_paper_pipeline(samples_per_period);
    if (job.is_spice) {
        const xysig::core::SpiceObservation& obs = job.observation;
        const xysig::filter::SpiceCut golden(
            std::make_unique<xysig::spice::Netlist>(job.nominal->clone()),
            obs.input_source, obs.x_node, obs.y_node, obs.settle_periods);
        pipe.set_golden(golden);
    } else {
        pipe.set_golden(xysig::filter::BehaviouralCut(xysig::core::paper_biquad()));
    }
    const std::vector<double> ndf = xysig::server::wire_serial_reference(job, pipe);
    if (ndf.size() != 1)
        throw std::runtime_error("reference slice did not yield one member");
    return xysig::format_double_exact(ndf.front());
}

} // namespace

std::vector<bool> check_against_reference(const std::vector<CheckItem>& items,
                                          std::size_t samples_per_period,
                                          unsigned threads,
                                          std::vector<std::string>& errors) {
    // Distinct (universe, member) pairs, each evaluated once.
    std::map<std::pair<std::string, std::size_t>, std::size_t> task_of;
    std::vector<std::size_t> task_item; // first item naming each task
    std::vector<std::size_t> item_task(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const auto key = std::make_pair(items[i].universe_tag, items[i].member);
        const auto [it, inserted] = task_of.emplace(key, task_item.size());
        if (inserted)
            task_item.push_back(i);
        item_task[i] = it->second;
    }

    std::vector<std::string> reference(task_item.size());
    std::vector<std::string> failure(task_item.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t t = next++; t < task_item.size(); t = next++) {
            const CheckItem& item = items[task_item[t]];
            try {
                reference[t] =
                    reference_hex(item.job_line, item.member, samples_per_period);
            } catch (const std::exception& e) {
                failure[t] = e.what();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned i = 1; i < threads; ++i)
        pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool)
        t.join();

    std::vector<bool> ok(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const std::size_t t = item_task[i];
        ok[i] = failure[t].empty() && reference[t] == items[i].observed_hex;
        if (!ok[i])
            errors.push_back("member " + std::to_string(items[i].member) + " of " +
                             items[i].job_line + ": streamed " +
                             items[i].observed_hex + ", reference " +
                             (failure[t].empty() ? reference[t]
                                                 : "failed: " + failure[t]));
    }
    return ok;
}

} // namespace perfbench
