#ifndef XYSIG_SERVER_SCHEDULER_H
#define XYSIG_SERVER_SCHEDULER_H

/// \file scheduler.h
/// Queued multi-tenant job scheduler over one SweepService: the layer that
/// turns the blocking one-job-at-a-time `run()` call into a submit API.
///
///  * submit() returns as soon as the job is queued (or, on a cache hit,
///    streamed); job N+1 is accepted while job N is still running. Each
///    job's events are pushed to its JobObserver from the thread that
///    already holds them — the submitter, the dispatcher or a canceller —
///    so no thread and no result queue exists per job.
///  * Dispatch order is priority-descending, then fair-share round-robin
///    across client ids (the least-recently-served client wins a tie), then
///    FIFO within a client — a flood from one client cannot starve another
///    at equal priority, and a high-priority job can never be passed over
///    in favour of a lower-priority one (no priority inversion).
///  * A content-addressed JobResultCache (see job_cache.h) short-circuits
///    whole jobs: an exact resubmit — or a member-range slice covered by a
///    cached superset — streams results without touching a worker.
///
/// Bit-identity contract: at ANY queue depth × worker count, every job's
/// result stream is in ascending member order and bit-identical to a serial
/// SweepService::run() of the same job (cache hits included: keys are exact
/// hexfloat fingerprints, so a hit replays the identical bits).
///
/// Thread-safety: submit()/cancel()/stats() are concurrently callable from
/// any thread, observers included (no scheduler lock is held while an
/// observer runs).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/annotated_mutex.h"
#include "server/job_cache.h"
#include "server/sweep_service.h"
#include "server/wire.h"

namespace xysig::server {

/// Terminal state of a scheduled job.
enum class JobState {
    done,      ///< completed; every member streamed
    failed,    ///< evaluation error; see JobOutcome::error
    cancelled, ///< cancelled while queued or running (partial stream)
};

/// What a finished job reports through JobObserver::done.
struct JobOutcome {
    JobState state = JobState::done;
    bool from_cache = false; ///< served by the whole-job cache, no workers
    /// Zeroed shards/clones for cache hits; for a job cancelled while
    /// queued only members_total is set.
    JobSummary summary;
    std::string error;       ///< non-empty iff state == failed
    /// verify_serial accounting (run on the dispatcher thread while the
    /// job's golden is still installed in the service pipeline).
    bool verify_ran = false;
    bool verified = true;
    bool verify_skipped_cancelled = false;
    std::size_t verify_members = 0;
    /// 1-based order in which the service actually ran jobs (0 = never ran:
    /// cache hit or cancelled while queued) — the fair-share/priority tests
    /// assert on this.
    std::uint64_t run_sequence = 0;
    double queue_seconds = 0.0; ///< submit -> first dispatch/cache-serve
};

/// Receives one job's events. Per job the calls never overlap and arrive
/// in order — queued, started, result..., done — and done arrives exactly
/// once, scheduler teardown included; a job cancelled while queued skips
/// started and results. The caller of each:
///  * queued: the submitting thread, before the dispatcher can see the
///    job; a submit-time cache hit then streams in full on that thread.
///  * started/result/done: the dispatcher (a run job or a dispatch-time
///    cache hit).
///  * done of a job dequeued by cancel() or by teardown: that thread.
/// No scheduler lock is held during a call, so an observer may call
/// cancel(). Observers must not throw.
class JobObserver {
public:
    JobObserver() = default;
    virtual ~JobObserver() = default;
    JobObserver(const JobObserver&) = delete;
    JobObserver& operator=(const JobObserver&) = delete;

    /// The job was accepted; `cached` = it is served from the cache now.
    virtual void queued(bool cached) = 0;
    /// The job left the queue for the service or the cache.
    virtual void started() = 0;
    /// One result, ascending. `member` is the job-local id; r.member_id
    /// is not (a cache hit passes the cached entry, which holds global
    /// ids, by reference).
    virtual void result(std::size_t member, const SweepResult& r) = 0;
    virtual void done(const JobOutcome& outcome) = 0;
};

/// The scheduler. Owns the dispatcher thread and the job
/// cache; borrows the SweepService (whose run() it is the only caller of).
class JobScheduler {
public:
    struct Options {
        /// Queued-job bound; submit() blocks once this many jobs wait
        /// (backpressure towards the wire reader).
        std::size_t max_pending = 1024;
        /// Whole-job result cache entries; 0 disables job caching.
        std::size_t cache_capacity = JobResultCache::kDefaultCapacity;
    };

    struct SubmitOptions {
        int priority = 0;   ///< higher runs first
        std::string client; ///< fair-share identity ("" = anonymous client)
    };

    /// Lifetime totals (all fields monotone except queue_depth).
    struct Stats {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t cache_hits = 0; ///< jobs served without a worker
        std::size_t queue_depth = 0; ///< currently queued (excl. running)
    };

    // No `Options options = {}` default argument: NSDMIs of a nested class
    // are parsed only at the end of the outermost class, so the default
    // would not compile here (same gotcha as SweepJob's universe structs).
    explicit JobScheduler(SweepService& service)
        : JobScheduler(service, Options{}) {}
    JobScheduler(SweepService& service, Options options);
    /// Cancels queued+running jobs (every one still gets its done call),
    /// joins the dispatcher.
    ~JobScheduler();

    JobScheduler(const JobScheduler&) = delete;
    JobScheduler& operator=(const JobScheduler&) = delete;

    /// Enqueues one decoded job and returns once it is queued — or, on a
    /// submit-time cache hit, once its whole stream has been pushed to
    /// `observer` (blocks only on a full queue). Jobs carrying the
    /// verify_serial/cancel_after test instruments bypass the cache in
    /// both directions.
    void submit(WireJob wire, SubmitOptions opts,
                std::shared_ptr<JobObserver> observer) EXCLUDES(mutex_);

    /// Wire-level cancel: a non-empty id cancels every queued AND the
    /// running job whose wire id matches (a dequeued job's done runs on
    /// this thread); an empty id cancels only the running job (the legacy
    /// single-job semantics).
    void cancel(const std::string& wire_id) EXCLUDES(mutex_);

    /// Pauses/resumes dispatch (queued jobs accumulate; the running job is
    /// unaffected). Deterministic-ordering tests and drain-for-maintenance
    /// both need this.
    void set_paused(bool paused);

    [[nodiscard]] Stats stats() const;
    [[nodiscard]] JobResultCache& cache() noexcept { return cache_; }
    [[nodiscard]] const JobResultCache& cache() const noexcept {
        return cache_;
    }

private:
    struct Job; ///< one submitted job; defined in scheduler.cpp
    using JobPtr = std::unique_ptr<Job>;

    void dispatcher_main() EXCLUDES(mutex_);
    /// Runs a dequeued job (or serves it from the cache), pushing started
    /// and every result to its observer; returns the outcome for finish().
    [[nodiscard]] JobOutcome execute(Job& job) EXCLUDES(mutex_);
    [[nodiscard]] JobOutcome serve_from_cache(Job& job,
                                              const JobResultCache::Hit& hit)
        EXCLUDES(mutex_);
    /// Counts the outcome into stats_, clears running_ if it is this job,
    /// then (lock released) hands the outcome to the observer's done.
    void finish(Job& job, const JobOutcome& outcome) EXCLUDES(mutex_);
    [[nodiscard]] JobPtr pick_next_locked() REQUIRES(mutex_);
    [[nodiscard]] std::string job_cache_key(const WireJob& wire) const;

    SweepService& service_;
    Options options_;
    JobResultCache cache_;
    std::string pipeline_fp_; ///< empty = job caching off for this pipeline
    /// The service pipeline's fast_math flag at construction: the mode a
    /// job that does not pin one (SweepJob::fast_math == nullopt) runs
    /// under. Folded into job_cache_key so per-job pinned modes never
    /// alias.
    bool base_fast_math_ = false;

    mutable Mutex mutex_; ///< queue + stats state below
    CondVar dispatch_cv_;
    CondVar space_cv_;
    /// Per-client queues, each kept sorted (priority desc, submit order).
    std::map<std::string, std::deque<JobPtr>> queues_ GUARDED_BY(mutex_);
    std::map<std::string, std::uint64_t> last_served_ GUARDED_BY(mutex_);
    /// The dispatcher's current job (owned by dispatcher_main), so that
    /// cancel() can poke its token; null between jobs.
    Job* running_ GUARDED_BY(mutex_) = nullptr;
    std::size_t pending_ GUARDED_BY(mutex_) = 0;
    bool paused_ GUARDED_BY(mutex_) = false;
    bool stopping_ GUARDED_BY(mutex_) = false;
    std::uint64_t next_submit_seq_ GUARDED_BY(mutex_) = 1;
    std::uint64_t serve_counter_ GUARDED_BY(mutex_) = 1;
    std::uint64_t run_counter_ GUARDED_BY(mutex_) = 1;
    Stats stats_ GUARDED_BY(mutex_);

    std::thread dispatcher_thread_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_SCHEDULER_H
