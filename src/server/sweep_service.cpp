#include "server/sweep_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>

#include "common/contracts.h"
#include "common/strings.h"
#include "common/timing.h"

namespace xysig::server {

namespace {

[[nodiscard]] std::string deviation_label(core::SweptParameter parameter,
                                          double percent) {
    return std::string("dev(") +
           (parameter == core::SweptParameter::f0 ? "f0" : "q") + "," +
           format_double(percent, 6) + "%)";
}

} // namespace

// ----------------------------------------------------------------- SweepJob

SweepJob SweepJob::deviation_grid(filter::Biquad nominal,
                                  std::vector<double> deviations_percent,
                                  core::SweptParameter parameter) {
    SweepJob job;
    job.universe_ = DeviationUniverse{std::move(nominal),
                                      std::move(deviations_percent), parameter};
    return job;
}

SweepJob SweepJob::fault_universe(std::shared_ptr<const spice::Netlist> nominal,
                                  std::vector<capture::NetlistFault> faults,
                                  core::SpiceObservation observation) {
    XYSIG_EXPECTS(nominal != nullptr);
    SweepJob job;
    job.universe_ = FaultUniverse{std::move(nominal), std::move(faults),
                                  std::move(observation)};
    return job;
}

std::size_t SweepJob::size() const noexcept {
    if (const auto* dv = std::get_if<DeviationUniverse>(&universe_))
        return dv->deviations_percent.size();
    if (const auto* fu = std::get_if<FaultUniverse>(&universe_))
        return fu->faults.size();
    return 0;
}

// ----------------------------------------------------------------- contexts

namespace {

/// Per-worker, per-job state: the scratch buffers and — for SPICE jobs —
/// THE one netlist clone this worker reuses across every fault it is
/// handed (inject/repair between members, never clone-per-fault).
struct WorkerState {
    core::NdfScratch scratch;
    std::optional<spice::Netlist> netlist;
    std::optional<filter::SpiceCut> cut; ///< bound to *netlist
};

} // namespace

/// Everything the workers share while one job is in flight.
struct SweepService::JobContext {
    const core::SignaturePipeline* pipeline = nullptr;

    // At most one of these two views is active (see resolve in run()).
    const SweepJob::DeviationUniverse* deviation = nullptr;
    const SweepJob::FaultUniverse* faults = nullptr;
    /// Materialised deviation members (one BehaviouralCut per grid point,
    /// built by core::deviated_biquad like
    /// BatchNdfEvaluator::evaluate_deviations, which keeps the two paths
    /// bit-identical).
    std::vector<filter::BehaviouralCut> behavioural;

    std::size_t members_total = 0;
    std::size_t shard_size = 1;
    std::size_t shards_total = 0;
    SweepCancelToken* cancel = nullptr;

    std::atomic<std::size_t> next_shard{0};
    std::atomic<std::size_t> members_done{0};
    std::atomic<std::size_t> shards_done{0};
    std::atomic<std::uint64_t> clones{0};
    std::atomic<bool> failed{false};

    Mutex mutex;
    CondVar cv; ///< signalled on new results & worker exits
    std::map<std::size_t, SweepResult> ready GUARDED_BY(mutex); ///< completed,
                                                  ///< not yet delivered
    std::vector<ShardTiming> timings GUARDED_BY(mutex);
    std::size_t active_workers GUARDED_BY(mutex) = 0;
    std::exception_ptr first_error GUARDED_BY(mutex);

    [[nodiscard]] bool aborted() const noexcept {
        return failed.load(std::memory_order_relaxed) ||
               (cancel != nullptr && cancel->cancelled());
    }

    /// Parks a non-member failure (bad node name, contract violation) for
    /// run() to rethrow and stops the whole job.
    void fail(std::exception_ptr error) {
        {
            MutexLock lock(mutex);
            if (!first_error)
                first_error = std::move(error);
        }
        failed.store(true, std::memory_order_relaxed);
        cv.notify_all();
    }

    /// Counts one pool task out of active_workers on every exit path.
    /// Decrement and notify happen under the lock: run() may destroy the
    /// context the moment it observes zero, so the broadcast must complete
    /// before the task releases the mutex.
    class ActiveWorker {
    public:
        explicit ActiveWorker(JobContext& ctx) : ctx_(ctx) {}
        ActiveWorker(const ActiveWorker&) = delete;
        ActiveWorker& operator=(const ActiveWorker&) = delete;
        ~ActiveWorker() {
            MutexLock lock(ctx_.mutex);
            --ctx_.active_workers;
            ctx_.cv.notify_all();
        }

    private:
        JobContext& ctx_;
    };

    [[nodiscard]] SweepResult evaluate_one(core::NdfScratch& scratch,
                                           std::size_t member_id,
                                           const filter::Cut& cut,
                                           std::string label) const {
        SweepResult result;
        result.member_id = member_id;
        result.label = std::move(label);
        try {
            auto evaluation = pipeline->evaluate(cut, scratch);
            result.ndf = evaluation.ndf;
            result.signature = std::move(evaluation.observed);
        } catch (const NumericError&) {
            // Same policy (and same NaN bit pattern) as the batch engine: a
            // member with no stable solution must not abort the universe.
            result.ndf = std::numeric_limits<double>::quiet_NaN();
        }
        return result;
    }

    [[nodiscard]] SweepResult evaluate_member(WorkerState& ws,
                                              std::size_t member_id) {
        if (deviation != nullptr) {
            return evaluate_one(
                ws.scratch, member_id, behavioural[member_id],
                deviation_label(deviation->parameter,
                                deviation->deviations_percent[member_id]));
        }
        // SPICE fault universe: lazily make this worker's single clone, then
        // inject/repair around the evaluation (RAII so a NumericError mid-run
        // still hands the next fault a pristine circuit).
        if (!ws.netlist.has_value()) {
            ws.netlist.emplace(faults->nominal->clone());
            clones.fetch_add(1, std::memory_order_relaxed);
            const core::SpiceObservation& obs = faults->observation;
            ws.cut.emplace(*ws.netlist, obs.input_source, obs.x_node,
                           obs.y_node, obs.settle_periods);
        }
        const capture::NetlistFault& fault = faults->faults[member_id];
        const capture::ScopedFaultInjection injection(*ws.netlist, fault);
        return evaluate_one(ws.scratch, member_id, *ws.cut,
                            fault.description());
    }
};

// -------------------------------------------------------------- SweepService

SweepService::SweepService(core::SignaturePipeline pipeline,
                           SweepServiceOptions options)
    : pipeline_(std::move(pipeline)), pool_(options.workers) {}

std::size_t SweepService::shard_size_for(const SweepJob& job) const {
    if (job.shard_size != 0)
        return job.shard_size;
    if (std::holds_alternative<SweepJob::FaultUniverse>(job.universe_))
        return 1;
    const std::size_t units = 4 * std::size_t{pool_.thread_count()};
    return std::clamp<std::size_t>((job.size() + units - 1) / units, 1,
                                   kMaxShardSize);
}

void SweepService::run_shards(JobContext& ctx, unsigned worker_index) {
    WorkerState ws;
    while (!ctx.aborted()) {
        const std::size_t shard =
            ctx.next_shard.fetch_add(1, std::memory_order_relaxed);
        if (shard >= ctx.shards_total)
            return;
        const std::size_t first = shard * ctx.shard_size;
        const std::size_t last =
            std::min(first + ctx.shard_size, ctx.members_total);
        const auto t0 = std::chrono::steady_clock::now();
        std::size_t evaluated = 0;
        bool completed = true;
        for (std::size_t i = first; i < last; ++i) {
            if (ctx.aborted()) {
                completed = false;
                break;
            }
            SweepResult result;
            try {
                result = ctx.evaluate_member(ws, i);
            } catch (...) {
                ctx.fail(std::current_exception());
                completed = false;
                break;
            }
            ++evaluated;
            ctx.members_done.fetch_add(1, std::memory_order_relaxed);
            {
                MutexLock lock(ctx.mutex);
                ctx.ready.emplace(i, std::move(result));
            }
            ctx.cv.notify_all();
        }
        {
            MutexLock lock(ctx.mutex);
            ctx.timings.push_back(
                {shard, first, evaluated, worker_index, seconds_since(t0)});
        }
        if (completed)
            ctx.shards_done.fetch_add(1, std::memory_order_relaxed);
    }
}

JobSummary SweepService::run(const SweepJob& job,
                             const ResultCallback& on_result,
                             SweepCancelToken* cancel) {
    XYSIG_EXPECTS(on_result != nullptr);
    MutexLock job_lock(job_mutex_); // one job at a time

    JobContext ctx;
    ctx.pipeline = &pipeline_;
    ctx.cancel = cancel;

    // Pin the sampling mode before the golden is resolved so the golden
    // and every member of this job evaluate under the same mode (the
    // golden cache and the shared stimulus trace are both keyed on it).
    if (job.fast_math.has_value())
        pipeline_.set_fast_math(*job.fast_math);

    // Resolve the universe view and the golden CUT. The goldens built here
    // go through SignaturePipeline::set_golden, i.e. through the process-wide
    // GoldenSignatureCache: repeat jobs over the same fingerprint reuse one
    // golden computation.
    std::optional<filter::BehaviouralCut> behavioural_golden;
    std::optional<filter::SpiceCut> spice_golden;
    const filter::Cut* golden = nullptr;
    if (const auto* dv =
            std::get_if<SweepJob::DeviationUniverse>(&job.universe_)) {
        ctx.deviation = dv;
        ctx.members_total = dv->deviations_percent.size();
        ctx.behavioural.reserve(ctx.members_total);
        for (const double dev : dv->deviations_percent)
            ctx.behavioural.emplace_back(
                core::deviated_biquad(dv->nominal, dev, dv->parameter));
        behavioural_golden.emplace(dv->nominal);
        golden = &*behavioural_golden;
    } else if (const auto* fu =
                   std::get_if<SweepJob::FaultUniverse>(&job.universe_)) {
        ctx.faults = fu;
        ctx.members_total = fu->faults.size();
        spice_golden.emplace(
            std::make_unique<spice::Netlist>(fu->nominal->clone()),
            fu->observation.input_source, fu->observation.x_node,
            fu->observation.y_node, fu->observation.settle_periods);
        golden = &*spice_golden;
    }
    if (golden != nullptr)
        pipeline_.set_golden(*golden); // null only for the empty default job

    ctx.shard_size = shard_size_for(job);
    ctx.shards_total =
        (ctx.members_total + ctx.shard_size - 1) / ctx.shard_size;

    JobSummary summary;
    summary.members_total = ctx.members_total;
    summary.shards_total = ctx.shards_total;

    const auto t0 = std::chrono::steady_clock::now();
    if (ctx.members_total > 0) {
        // One task per pool thread; each claims shards until none are left.
        const unsigned workers = pool_.thread_count();
        unsigned submitted = 0;
        {
            MutexLock lock(ctx.mutex);
            ctx.active_workers = workers;
        }

        // Deliver results on this thread, in ascending member order:
        // contiguous from 0 while workers are live, then (after
        // cancellation/failure) whatever stragglers completed, still
        // ascending but with gaps. Submission and delivery are guarded
        // together: a throwing submit or result callback must stop the
        // tasks and wait for them to release the stack-allocated JobContext
        // before run() unwinds.
        try {
            for (; submitted < workers; ++submitted) {
                pool_.submit([&ctx, w = submitted] {
                    const JobContext::ActiveWorker active(ctx);
                    try {
                        run_shards(ctx, w);
                    } catch (...) {
                        ctx.fail(std::current_exception());
                    }
                });
            }
            std::size_t next_expected = 0;
            std::vector<SweepResult> batch;
            bool finished = false;
            while (!finished) {
                {
                    MutexLock lock(ctx.mutex);
                    ctx.cv.wait(lock, [&]() REQUIRES(ctx.mutex) {
                        return ctx.active_workers == 0 ||
                               (!ctx.ready.empty() &&
                                ctx.ready.begin()->first == next_expected);
                    });
                    batch.clear();
                    while (!ctx.ready.empty() &&
                           ctx.ready.begin()->first == next_expected) {
                        batch.push_back(std::move(ctx.ready.begin()->second));
                        ctx.ready.erase(ctx.ready.begin());
                        ++next_expected;
                    }
                    finished = ctx.active_workers == 0;
                    if (finished) {
                        // Gap case: keys ascend and all exceed next_expected.
                        for (auto& entry : ctx.ready)
                            batch.push_back(std::move(entry.second));
                        ctx.ready.clear();
                    }
                }
                for (const SweepResult& result : batch)
                    on_result(result);
            }
        } catch (...) {
            ctx.failed.store(true, std::memory_order_relaxed);
            MutexLock lock(ctx.mutex);
            ctx.active_workers -= workers - submitted; // never queued
            ctx.cv.wait(lock, [&]() REQUIRES(ctx.mutex) {
                return ctx.active_workers == 0;
            });
            throw;
        }
        {
            // Tasks are done (active_workers hit 0 under ctx.mutex), but
            // the guard discipline still applies to the finalisation reads.
            MutexLock lock(ctx.mutex);
            if (ctx.first_error)
                std::rethrow_exception(ctx.first_error);
        }
    }

    summary.seconds = seconds_since(t0);
    summary.members_done = ctx.members_done.load(std::memory_order_relaxed);
    summary.shards_done = ctx.shards_done.load(std::memory_order_relaxed);
    summary.cancelled = cancel != nullptr && cancel->cancelled();
    summary.netlist_clones = ctx.clones.load(std::memory_order_relaxed);
    {
        MutexLock lock(ctx.mutex);
        summary.shard_timings = std::move(ctx.timings);
    }
    std::sort(summary.shard_timings.begin(), summary.shard_timings.end(),
              [](const ShardTiming& a, const ShardTiming& b) {
                  return a.shard < b.shard;
              });

    {
        MutexLock lock(stats_mutex_);
        ++stats_.jobs;
        stats_.members += summary.members_done;
        stats_.shards += summary.shards_done;
        stats_.netlist_clones += summary.netlist_clones;
    }
    return summary;
}

SweepService::ServiceStats SweepService::stats() const {
    MutexLock lock(stats_mutex_);
    return stats_;
}

} // namespace xysig::server
