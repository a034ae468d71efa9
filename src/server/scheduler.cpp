#include "server/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/strings.h"
#include "common/timing.h"

namespace xysig::server {

namespace {

using Clock = std::chrono::steady_clock;

} // namespace

/// Immutable after submit() except the token, which is internally atomic
/// and poked from any thread.
struct JobScheduler::Job {
    WireJob wire;
    SubmitOptions opts;
    std::shared_ptr<JobObserver> observer;
    std::string cache_key; ///< "" = cache bypassed for this job
    std::uint64_t submit_seq = 0;
    Clock::time_point submitted_at;
    SweepCancelToken token;

    /// The outcome of a job that never left the queue.
    [[nodiscard]] JobOutcome cancelled_in_queue() const {
        JobOutcome out;
        out.state = JobState::cancelled;
        out.queue_seconds = seconds_since(submitted_at);
        out.summary.members_total = wire.job.size();
        return out;
    }
};

JobScheduler::JobScheduler(SweepService& service, Options options)
    : service_(service), options_(options),
      cache_(std::max<std::size_t>(1, options.cache_capacity)),
      pipeline_fp_(options.cache_capacity == 0
                       ? std::string()
                       : pipeline_fingerprint(service.pipeline())),
      base_fast_math_(service.pipeline().options().fast_math) {
    dispatcher_thread_ = std::thread([this] { dispatcher_main(); });
}

JobScheduler::~JobScheduler() {
    std::vector<JobPtr> dequeued;
    {
        MutexLock lock(mutex_);
        stopping_ = true;
        for (auto& [client, queue] : queues_)
            for (JobPtr& job : queue)
                dequeued.push_back(std::move(job));
        queues_.clear();
        pending_ = 0;
        if (running_ != nullptr)
            running_->token.cancel();
        dispatch_cv_.notify_all();
        space_cv_.notify_all();
    }
    for (const JobPtr& job : dequeued)
        finish(*job, job->cancelled_in_queue());
    dispatcher_thread_.join();
}

std::string JobScheduler::job_cache_key(const WireJob& wire) const {
    if (pipeline_fp_.empty() || wire.universe_key.empty())
        return {};
    if (wire.job.size() == 0)
        return {}; // nothing to serve; plan probes always hit the service
    if (wire.verify_serial || wire.cancel_after != 0)
        return {}; // test instruments must exercise the real engine
    // Key the EFFECTIVE sampling mode (the job's pinned flag, falling back
    // to the service pipeline's construction-time mode): pipeline_fp_ only
    // carries the base flag, and serving an exact job from a fast_math
    // job's results (or vice versa) would hand out values that differ
    // within the ULP tolerance.
    std::string key = pipeline_fp_;
    key += "|jfm=";
    key += wire.job.fast_math.value_or(base_fast_math_) ? '1' : '0';
    key += "|job{";
    key += wire.universe_key;
    key += '}';
    return key;
}

void JobScheduler::submit(WireJob wire, SubmitOptions opts,
                          std::shared_ptr<JobObserver> observer) {
    XYSIG_EXPECTS(observer != nullptr);
    auto job = std::make_unique<Job>();
    job->wire = std::move(wire);
    job->opts = std::move(opts);
    job->observer = std::move(observer);
    job->submitted_at = Clock::now();
    job->cache_key = job_cache_key(job->wire);

    // Submit-time cache hit: stream on this thread without ever entering
    // the queue, so a resubmitted job never waits behind a running one.
    if (!job->cache_key.empty()) {
        if (auto hit = cache_.lookup(job->cache_key, job->wire.member_offset,
                                     job->wire.job.size())) {
            {
                MutexLock lock(mutex_);
                ++stats_.submitted;
            }
            job->observer->queued(true);
            finish(*job, serve_from_cache(*job, *hit));
            return;
        }
    }

    // Acknowledge BEFORE the dispatcher can see the job, so `queued` always
    // precedes the job's own event stream.
    job->observer->queued(false);
    MutexLock lock(mutex_);
    space_cv_.wait(lock, [&]() REQUIRES(mutex_) {
        return stopping_ || pending_ < options_.max_pending;
    });
    ++stats_.submitted;
    if (stopping_) {
        lock.Unlock();
        finish(*job, job->cancelled_in_queue());
        return;
    }
    job->submit_seq = next_submit_seq_++;
    // Per-client queue kept sorted: priority descending, submit order
    // within a priority — inserting before the first strictly-lower
    // priority preserves FIFO among equals.
    std::deque<JobPtr>& queue = queues_[job->opts.client];
    const int priority = job->opts.priority;
    const auto pos = std::find_if(queue.begin(), queue.end(),
                                  [&](const JobPtr& other) {
                                      return other->opts.priority < priority;
                                  });
    queue.insert(pos, std::move(job));
    ++pending_;
    dispatch_cv_.notify_all();
}

void JobScheduler::cancel(const std::string& wire_id) {
    std::vector<JobPtr> dequeued;
    {
        MutexLock lock(mutex_);
        if (!wire_id.empty()) {
            for (auto it = queues_.begin(); it != queues_.end();) {
                std::deque<JobPtr>& queue = it->second;
                for (auto qi = queue.begin(); qi != queue.end();) {
                    if ((*qi)->wire.id != wire_id) {
                        ++qi;
                        continue;
                    }
                    dequeued.push_back(std::move(*qi));
                    qi = queue.erase(qi);
                    --pending_;
                }
                it = queue.empty() ? queues_.erase(it) : std::next(it);
            }
            space_cv_.notify_all();
        }
        if (running_ != nullptr &&
            (wire_id.empty() || running_->wire.id == wire_id))
            running_->token.cancel();
    }
    for (const JobPtr& job : dequeued)
        finish(*job, job->cancelled_in_queue());
}

void JobScheduler::set_paused(bool paused) {
    MutexLock lock(mutex_);
    paused_ = paused;
    dispatch_cv_.notify_all();
}

JobScheduler::Stats JobScheduler::stats() const {
    MutexLock lock(mutex_);
    Stats s = stats_;
    s.queue_depth = pending_;
    return s;
}

void JobScheduler::finish(Job& job, const JobOutcome& outcome) {
    {
        MutexLock lock(mutex_);
        switch (outcome.state) {
        case JobState::done:
            ++stats_.completed;
            if (outcome.from_cache)
                ++stats_.cache_hits;
            break;
        case JobState::failed:
            ++stats_.failed;
            break;
        case JobState::cancelled:
            ++stats_.cancelled;
            break;
        }
        if (running_ == &job)
            running_ = nullptr;
    }
    job.observer->done(outcome);
}

JobScheduler::JobPtr JobScheduler::pick_next_locked() {
    // Highest priority wins; ties go to the least-recently-served client
    // (fair share), then to submit order. Client queues are individually
    // sorted, so each front() is its client's best candidate.
    auto best_queue = queues_.end();
    std::uint64_t best_served = 0;
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
        if (it->second.empty())
            continue;
        const JobPtr& cand = it->second.front();
        const auto served_it = last_served_.find(it->first);
        const std::uint64_t served =
            served_it == last_served_.end() ? 0 : served_it->second;
        if (best_queue == queues_.end()) {
            best_queue = it;
            best_served = served;
            continue;
        }
        const JobPtr& best = best_queue->second.front();
        const int cp = cand->opts.priority;
        const int bp = best->opts.priority;
        if (cp > bp || (cp == bp && (served < best_served ||
                                     (served == best_served &&
                                      cand->submit_seq < best->submit_seq)))) {
            best_queue = it;
            best_served = served;
        }
    }
    XYSIG_EXPECTS(best_queue != queues_.end());
    JobPtr job = std::move(best_queue->second.front());
    best_queue->second.pop_front();
    // Bound the fairness bookkeeping: a stream of one-shot client ids must
    // not grow the map forever (resetting just forgets who was served).
    if (last_served_.size() > 4096)
        last_served_.clear();
    last_served_[best_queue->first] = serve_counter_++;
    if (best_queue->second.empty())
        queues_.erase(best_queue);
    --pending_;
    space_cv_.notify_all();
    return job;
}

void JobScheduler::dispatcher_main() {
    while (true) {
        JobPtr job;
        {
            MutexLock lock(mutex_);
            dispatch_cv_.wait(lock, [&]() REQUIRES(mutex_) {
                return stopping_ || (!paused_ && pending_ > 0);
            });
            if (stopping_)
                return;
            job = pick_next_locked();
            running_ = job.get();
        }
        finish(*job, execute(*job));
    }
}

JobOutcome JobScheduler::execute(Job& job) {
    const WireJob& wire = job.wire;
    // Dispatch-time cache re-check: an identical job completed since this
    // one was queued (cold duplicates queued back-to-back).
    if (!job.cache_key.empty()) {
        if (auto hit = cache_.lookup(job.cache_key, wire.member_offset,
                                     wire.job.size()))
            return serve_from_cache(job, *hit);
    }

    JobOutcome out;
    {
        MutexLock lock(mutex_);
        out.run_sequence = run_counter_++;
    }
    out.queue_seconds = seconds_since(job.submitted_at);
    job.observer->started();

    const bool collect = !job.cache_key.empty();
    std::vector<SweepResult> collected;
    std::vector<double> streamed;
    if (collect)
        collected.reserve(wire.job.size());
    if (wire.verify_serial)
        streamed.reserve(wire.job.size());
    std::size_t delivered = 0;

    try {
        const JobSummary summary = service_.run(
            wire.job,
            [&](const SweepResult& r) {
                if (collect) {
                    SweepResult global = r;
                    global.member_id += wire.member_offset;
                    collected.push_back(std::move(global));
                }
                if (wire.verify_serial)
                    streamed.push_back(r.ndf);
                job.observer->result(r.member_id, r);
                ++delivered;
                if (wire.cancel_after != 0 && delivered >= wire.cancel_after)
                    job.token.cancel();
            },
            &job.token);

        // verify_serial runs HERE, on the dispatcher thread, while the
        // job's own golden is still installed in the service pipeline —
        // the next dispatch replaces it.
        if (wire.verify_serial) {
            if (summary.cancelled) {
                out.verify_skipped_cancelled = true;
            } else {
                const std::vector<double> reference =
                    wire_serial_reference(wire, service_.pipeline());
                out.verify_ran = true;
                out.verify_members = reference.size();
                out.verified = streamed.size() == reference.size();
                if (out.verified)
                    for (std::size_t i = 0; i < reference.size(); ++i)
                        out.verified = out.verified &&
                                       format_double_exact(streamed[i]) ==
                                           format_double_exact(reference[i]);
            }
        }

        if (collect && !summary.cancelled &&
            collected.size() == wire.job.size())
            cache_.insert(job.cache_key, wire.member_offset,
                          std::move(collected));

        out.summary = summary;
        out.state = summary.cancelled ? JobState::cancelled : JobState::done;
    } catch (const std::exception& e) {
        out.error = e.what();
        out.state = JobState::failed;
    }
    return out;
}

JobOutcome JobScheduler::serve_from_cache(Job& job,
                                          const JobResultCache::Hit& hit) {
    const auto t0 = Clock::now();
    JobOutcome out;
    out.from_cache = true;
    out.queue_seconds = seconds_since(job.submitted_at);
    job.observer->started();
    // Stored under global ids; handed out by reference, never copied.
    const std::vector<SweepResult>& all = *hit.results;
    const std::size_t base = job.wire.member_offset - hit.first;
    const std::size_t count = job.wire.job.size();
    for (std::size_t i = 0; i < count; ++i)
        job.observer->result(i, all[base + i]);
    out.summary.members_total = count;
    out.summary.members_done = count;
    out.summary.seconds = seconds_since(t0);
    return out;
}

} // namespace xysig::server
