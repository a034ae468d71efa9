// JobScheduler guarantees: queued submission with per-job result streams
// that stay ascending and bit-identical to a serial SweepService::run() at
// any queue depth, fair-share round-robin across client ids, strict
// priority ordering (no inversion), whole-job cache hits that stream with
// zero netlist clones, and clean cancellation of queued and running jobs —
// including scheduler teardown with a backlog. Every job's observer calls
// arrive in order and never overlap. An oversized universe is refused at
// decode, before it is built, and the session keeps serving.

#include "server/scheduler.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/annotated_mutex.h"
#include "common/strings.h"
#include "core/paper_setup.h"
#include "monitor/table1.h"
#include "server/job_cache.h"
#include "server/json.h"
#include "server/wire.h"
#include "spice/netlist.h"

// Allocation probe: while armed, records the largest single heap request
// (a universe built before its size check would ask for megabytes at once).
namespace {
std::atomic<bool> g_probe_armed{false};
std::atomic<std::size_t> g_largest_allocation{0};
} // namespace

void* operator new(std::size_t size) {
    if (g_probe_armed.load(std::memory_order_relaxed)) {
        std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
        while (size > seen && !g_largest_allocation.compare_exchange_weak(
                                  seen, size, std::memory_order_relaxed)) {
        }
    }
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace xysig::server {
namespace {

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

core::SignaturePipeline make_pipeline(std::size_t samples_per_period = 256) {
    core::PipelineOptions opts;
    opts.samples_per_period = samples_per_period;
    return core::SignaturePipeline(monitor::build_table1_bank(),
                                   core::paper_stimulus(), opts);
}

WireJob wire_job(const std::string& line) {
    return parse_wire_job(JsonValue::parse(line));
}

/// Records one job's observer calls. Results are stored under the local
/// member id the scheduler passes; `trace` spells the call order
/// (q = queued, s = started, r = result, d = done), and `overlapped`
/// catches two calls running at once.
class Collector final : public JobObserver {
public:
    /// Runs on the delivering thread after each result is recorded.
    std::function<void(std::size_t delivered)> on_result;

    void queued(bool cached) override {
        const Call call(*this, 'q');
        MutexLock lock(m_);
        cached_ = cached;
    }
    void started() override { const Call call(*this, 's'); }
    void result(std::size_t member, const SweepResult& r) override {
        const Call call(*this, 'r');
        SweepResult local = r;
        local.member_id = member;
        std::size_t delivered = 0;
        {
            MutexLock lock(m_);
            results_.push_back(std::move(local));
            delivered = results_.size();
        }
        if (on_result)
            on_result(delivered);
    }
    void done(const JobOutcome& out) override {
        const Call call(*this, 'd');
        MutexLock lock(m_);
        outcome_ = out;
        cv_.notify_all();
    }

    /// Blocks until done; returns the results in delivery order.
    std::vector<SweepResult> wait() {
        MutexLock lock(m_);
        cv_.wait(lock, [this]() REQUIRES(m_) { return outcome_.has_value(); });
        return results_;
    }
    JobOutcome outcome() {
        (void)wait();
        MutexLock lock(m_);
        return *outcome_;
    }
    [[nodiscard]] bool is_done() {
        MutexLock lock(m_);
        return outcome_.has_value();
    }
    [[nodiscard]] bool cached() {
        MutexLock lock(m_);
        return cached_;
    }
    /// The calls so far, one letter each.
    [[nodiscard]] std::string trace() {
        MutexLock lock(m_);
        return trace_;
    }
    /// queued, then either done alone (dequeued before it ran) or
    /// started, results, done — and no two calls at once.
    [[nodiscard]] bool well_ordered() {
        const std::string t = trace();
        if (overlapped_.load())
            return false;
        if (t == "qd")
            return true;
        return t.size() >= 3 && t.rfind("qs", 0) == 0 && t.back() == 'd' &&
               t.find_first_not_of('r', 2) == t.size() - 1;
    }

private:
    /// Marks one observer call: flags overlap, appends to the trace.
    struct Call {
        Call(Collector& c, char letter) : c_(c) {
            if (c_.active_.fetch_add(1) != 0)
                c_.overlapped_.store(true);
            MutexLock lock(c_.m_);
            c_.trace_.push_back(letter);
        }
        ~Call() { c_.active_.fetch_sub(1); }
        Call(const Call&) = delete;
        Call& operator=(const Call&) = delete;
        Collector& c_;
    };

    std::atomic<int> active_{0};
    std::atomic<bool> overlapped_{false};
    Mutex m_;
    CondVar cv_;
    std::vector<SweepResult> results_ GUARDED_BY(m_);
    std::optional<JobOutcome> outcome_ GUARDED_BY(m_);
    bool cached_ GUARDED_BY(m_) = false;
    std::string trace_ GUARDED_BY(m_);
};

std::shared_ptr<Collector> submit(JobScheduler& sched, const std::string& line,
                                  JobScheduler::SubmitOptions opts = {}) {
    auto collector = std::make_shared<Collector>();
    sched.submit(wire_job(line), std::move(opts), collector);
    return collector;
}

/// Serial reference of a decoded job straight through the service — the
/// stream every scheduled variant must reproduce bit for bit.
std::vector<SweepResult> serial_reference(SweepService& service,
                                          const WireJob& wire) {
    std::vector<SweepResult> out;
    (void)service.run(wire.job,
                      [&](const SweepResult& r) { out.push_back(r); });
    return out;
}

void expect_same_stream(const std::vector<SweepResult>& got,
                        const std::vector<SweepResult>& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].member_id, want[i].member_id) << what << " #" << i;
        EXPECT_TRUE(same_bits(got[i].ndf, want[i].ndf))
            << what << " #" << i << ": "
            << format_double_exact(got[i].ndf) << " vs "
            << format_double_exact(want[i].ndf);
        EXPECT_EQ(got[i].label, want[i].label) << what << " #" << i;
        EXPECT_EQ(got[i].signature.has_value(), want[i].signature.has_value())
            << what << " #" << i;
    }
}

TEST(JobScheduler, FairShareRoundRobinAcrossClients) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler::Options opts;
    opts.cache_capacity = 0; // ordering test: every job must really run
    JobScheduler sched(service, opts);
    sched.set_paused(true);

    const auto submit_for = [&](const std::string& client) {
        JobScheduler::SubmitOptions so;
        so.client = client;
        return submit(sched, R"({"job":"deviations","deviations":[-5,5]})", so);
    };
    // Client A floods four jobs before B and C submit two each.
    std::vector<std::shared_ptr<Collector>> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(submit_for("A"));
    for (int i = 0; i < 2; ++i)
        jobs.push_back(submit_for("B"));
    for (int i = 0; i < 2; ++i)
        jobs.push_back(submit_for("C"));
    EXPECT_EQ(sched.stats().queue_depth, 8u);
    sched.set_paused(false);

    std::vector<std::uint64_t> seq;
    for (const auto& job : jobs) {
        EXPECT_EQ(job->wait().size(), 2u);
        EXPECT_TRUE(job->well_ordered()) << job->trace();
        seq.push_back(job->outcome().run_sequence);
    }
    // Round-robin across A, B, C at equal priority — A's flood cannot
    // starve B or C: A1 B1 C1 A2 B2 C2 A3 A4.
    const std::vector<std::uint64_t> a = {seq[0], seq[1], seq[2], seq[3]};
    const std::vector<std::uint64_t> b = {seq[4], seq[5]};
    const std::vector<std::uint64_t> c = {seq[6], seq[7]};
    EXPECT_EQ(a, (std::vector<std::uint64_t>{1, 4, 7, 8}));
    EXPECT_EQ(b, (std::vector<std::uint64_t>{2, 5}));
    EXPECT_EQ(c, (std::vector<std::uint64_t>{3, 6}));

    // A job is counted before its done call, so the totals are final here.
    const auto stats = sched.stats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(JobScheduler, PriorityOrdersDispatchWithoutInversion) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);
    sched.set_paused(true);

    const auto submit_at = [&](int priority, const std::string& client) {
        JobScheduler::SubmitOptions so;
        so.priority = priority;
        so.client = client;
        return submit(sched, R"({"job":"deviations","deviations":[-5,5]})", so);
    };
    // Submission order deliberately scrambles priorities, and the flood
    // client's low-priority backlog precedes the high-priority late job:
    // fairness must never override priority.
    std::vector<std::shared_ptr<Collector>> jobs;
    std::vector<int> priorities = {0, 0, 5, -3, 5};
    jobs.push_back(submit_at(0, "flood"));
    jobs.push_back(submit_at(0, "flood"));
    jobs.push_back(submit_at(5, "flood"));
    jobs.push_back(submit_at(-3, "background"));
    jobs.push_back(submit_at(5, "late")); // arrives last, still beats 0s
    sched.set_paused(false);

    std::vector<std::uint64_t> seq;
    for (const auto& job : jobs)
        seq.push_back(job->outcome().run_sequence);
    // No inversion: for every pair queued together, the strictly-higher
    // priority ran strictly earlier.
    for (std::size_t i = 0; i < seq.size(); ++i)
        for (std::size_t j = 0; j < seq.size(); ++j)
            if (priorities[i] > priorities[j])
                EXPECT_LT(seq[i], seq[j]) << i << " vs " << j;
    // FIFO among the equal-priority pair from one client.
    EXPECT_LT(seq[0], seq[1]);
    // The two priority-5 jobs run 1st/2nd, the -3 job dead last.
    EXPECT_EQ(seq[3], 5u);
}

TEST(JobScheduler, ExactSpiceResubmitStreamsFromCacheWithZeroClones) {
    SweepService service(make_pipeline(), {.workers = 3});
    ASSERT_FALSE(pipeline_fingerprint(service.pipeline()).empty());
    JobScheduler sched(service, JobScheduler::Options{});

    const std::string line = R"({"job":"spice_faults","id":"s1"})";
    const auto first = submit(sched, line);
    const std::vector<SweepResult> reference = first->wait();
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(first->outcome().state, JobState::done);
    EXPECT_FALSE(first->outcome().from_cache);
    EXPECT_FALSE(first->cached());
    bool any_nan = false;
    for (const SweepResult& r : reference)
        any_nan = any_nan || std::isnan(r.ndf);
    EXPECT_TRUE(any_nan); // the universe contains unsolvable members

    // Exact resubmit: bit-identical replay, no queue wait, no worker — the
    // netlist clone counter must not move at all (decoded up front so the
    // probe brackets only the submit-and-stream window). A submit-time hit
    // streams in full on the submitting thread, so it is done on return.
    WireJob resubmit = wire_job(line);
    const std::uint64_t clones_before = spice::Netlist::clone_count();
    auto again = std::make_shared<Collector>();
    sched.submit(std::move(resubmit), {}, again);
    EXPECT_TRUE(again->is_done());
    EXPECT_TRUE(again->cached());
    EXPECT_TRUE(again->well_ordered()) << again->trace();
    const std::vector<SweepResult> replayed = again->wait();
    EXPECT_EQ(spice::Netlist::clone_count(), clones_before);
    expect_same_stream(replayed, reference, "cached spice resubmit");
    const JobOutcome out = again->outcome();
    EXPECT_EQ(out.state, JobState::done);
    EXPECT_TRUE(out.from_cache);
    EXPECT_EQ(out.run_sequence, 0u); // never touched the service
    EXPECT_EQ(out.summary.netlist_clones, 0u);

    const auto stats = sched.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(sched.cache().hits(), 1u);
}

TEST(JobScheduler, MemberRangeSliceServedByCachedSuperset) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service, JobScheduler::Options{});

    const std::vector<SweepResult> reference =
        submit(sched,
               R"({"job":"deviations","grid":{"from":-20,"to":20,"count":11},"shard_size":4})")
            ->wait();
    ASSERT_EQ(reference.size(), 11u);

    // A fan-out slice of the SAME universe (grid spelled as the explicit
    // list — the content key is over materialised values) hits the cached
    // superset and streams under local ids.
    const auto slice = submit(
        sched,
        R"({"job":"deviations","deviations":[-20,-16,-12,-8,-4,0,4,8,12,16,20],"members":{"first":3,"count":4}})");
    EXPECT_TRUE(slice->cached());
    const std::vector<SweepResult> sliced = slice->wait();
    ASSERT_EQ(sliced.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(sliced[i].member_id, i); // local ids, offset 3 on the wire
        EXPECT_TRUE(same_bits(sliced[i].ndf, reference[3 + i].ndf));
        EXPECT_EQ(sliced[i].label, reference[3 + i].label);
    }
    // A slice past the cached span runs for real (and is then cached).
    const auto wider = submit(
        sched,
        R"({"job":"deviations","grid":{"from":-20,"to":20,"count":12},"shard_size":4})");
    EXPECT_FALSE(wider->cached());
    EXPECT_EQ(wider->wait().size(), 12u);
    EXPECT_EQ(sched.stats().cache_hits, 1u);
}

TEST(JobScheduler, InterleavedQueueBitIdenticalToSerialIncludingNaNs) {
    SweepService service(make_pipeline(), {.workers = 3});
    // References first, straight through the service (the scheduler is not
    // constructed yet, so nothing interleaves with these).
    const std::vector<std::string> lines = {
        R"({"job":"deviations","id":"d1","grid":{"from":-20,"to":20,"count":60},"shard_size":4})",
        R"({"job":"spice_faults","id":"s1","universe":"open","shard_size":4})",
        R"({"job":"deviations","id":"d2","parameter":"q","grid":{"from":-15,"to":15,"count":45},"shard_size":4})",
        R"({"job":"deviations","id":"d1-again","grid":{"from":-20,"to":20,"count":60},"shard_size":4})",
        R"({"job":"deviations","id":"d3","deviations":[-7,-3,3,7],"shard_size":4})",
    };
    std::vector<std::vector<SweepResult>> references;
    for (const std::string& line : lines)
        references.push_back(serial_reference(service, wire_job(line)));

    // Queue everything at once from two clients with mixed priorities.
    JobScheduler sched(service, JobScheduler::Options{});
    std::vector<std::shared_ptr<Collector>> jobs;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        JobScheduler::SubmitOptions so;
        so.client = i % 2 == 0 ? "alice" : "bob";
        so.priority = static_cast<int>(i % 3);
        jobs.push_back(submit(sched, lines[i], so));
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::vector<SweepResult> streamed = jobs[i]->wait();
        expect_same_stream(streamed, references[i], "job " + lines[i]);
        // Ascending, gap-free member order per job regardless of queue
        // interleaving.
        for (std::size_t m = 0; m < streamed.size(); ++m)
            ASSERT_EQ(streamed[m].member_id, m) << lines[i];
        EXPECT_EQ(jobs[i]->outcome().state, JobState::done);
        EXPECT_TRUE(jobs[i]->well_ordered()) << jobs[i]->trace();
    }
    // Of the two identical d1 jobs, whichever the priority/fair-share
    // order dispatched second was served by the cache (the dispatch-time
    // re-check) — and its stream was still bit-identical above.
    EXPECT_NE(jobs[0]->outcome().from_cache, jobs[3]->outcome().from_cache);
    EXPECT_GE(sched.stats().cache_hits, 1u);
}

TEST(JobScheduler, QueuedJobsCancelWithoutRunning) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);
    sched.set_paused(true);

    const auto keep =
        submit(sched, R"({"job":"deviations","id":"keep","deviations":[-5,5]})");
    const auto first =
        submit(sched, R"({"job":"deviations","id":"h","deviations":[-5,5]})");
    const auto second =
        submit(sched, R"({"job":"deviations","id":"w","deviations":[-5,5]})");
    sched.cancel("h");
    sched.cancel("w");
    // Both were dequeued on the spot, and their done ran on this thread.
    EXPECT_EQ(sched.stats().queue_depth, 1u);
    for (const auto& job : {first, second}) {
        EXPECT_TRUE(job->is_done());
        EXPECT_TRUE(job->wait().empty());
        EXPECT_EQ(job->trace(), "qd"); // never started
        const JobOutcome out = job->outcome();
        EXPECT_EQ(out.state, JobState::cancelled);
        EXPECT_EQ(out.run_sequence, 0u); // the service never saw it
        EXPECT_EQ(out.summary.members_total, 2u);
        EXPECT_EQ(out.summary.members_done, 0u);
    }
    sched.set_paused(false);

    EXPECT_EQ(keep->wait().size(), 2u);
    EXPECT_EQ(keep->outcome().state, JobState::done);
    const auto stats = sched.stats();
    EXPECT_EQ(stats.cancelled, 2u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(JobScheduler, QueuedCancelReportsItsQueueTime) {
    SweepService service(make_pipeline(), {.workers = 1});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);

    // "long" holds the one worker far longer than the wait below, so
    // "waiting" is still queued when it is cancelled.
    const auto running = submit(
        sched,
        R"({"job":"deviations","id":"long","grid":{"from":-20,"to":20,"count":100000}})");
    const auto waiting = submit(
        sched, R"({"job":"deviations","id":"waiting","deviations":[-5,5]})");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sched.cancel("waiting");

    EXPECT_EQ(waiting->trace(), "qd"); // never started
    const JobOutcome out = waiting->outcome();
    EXPECT_EQ(out.state, JobState::cancelled);
    EXPECT_GE(out.queue_seconds, 0.02);
    sched.cancel("long");
    EXPECT_EQ(running->outcome().state, JobState::cancelled);
}

TEST(JobScheduler, RunningJobCancelsCooperativelyKeepsOrder) {
    SweepService service(make_pipeline(), {.workers = 4});
    JobScheduler::Options opts;
    opts.cache_capacity = 0;
    JobScheduler sched(service, opts);

    // Cancel through the wire-level path after a few results have
    // streamed, from inside the result call itself: no scheduler lock is
    // held while an observer runs.
    auto big = std::make_shared<Collector>();
    big->on_result = [&sched](std::size_t delivered) {
        if (delivered == 5)
            sched.cancel("big");
    };
    sched.submit(
        wire_job(R"({"job":"deviations","id":"big","grid":{"from":-20,"to":20,"count":2000},"shard_size":4})"),
        {}, big);
    const std::vector<SweepResult> got = big->wait();

    const JobOutcome out = big->outcome();
    EXPECT_EQ(out.state, JobState::cancelled);
    EXPECT_TRUE(out.summary.cancelled);
    EXPECT_GE(got.size(), 5u);
    EXPECT_LT(got.size(), 2000u); // dispatch really stopped
    for (std::size_t i = 1; i < got.size(); ++i)
        EXPECT_LT(got[i - 1].member_id, got[i].member_id);
    EXPECT_TRUE(big->well_ordered()) << big->trace();
    EXPECT_EQ(sched.stats().cancelled, 1u);
    // A cancelled job never poisons the cache: resubmitting runs fresh.
    const auto again = submit(
        sched,
        R"({"job":"deviations","id":"big2","grid":{"from":-20,"to":20,"count":2000},"shard_size":4})");
    EXPECT_FALSE(again->cached());
    sched.cancel("big2");
    EXPECT_EQ(again->outcome().state, JobState::cancelled);
}

TEST(JobScheduler, FastMathJobsNeverShareCacheEntriesWithExact) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service, JobScheduler::Options{});

    // Exact job, then the identical universe under fast_math: the job
    // cache key embeds the effective mode, so the second submit must run
    // for real — serving it from the exact entry would hand a client
    // signatures from the wrong mode.
    const std::string exact_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9},"shard_size":4})";
    const std::string fast_line =
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":9},"fast_math":true,"shard_size":4})";
    const std::vector<SweepResult> exact_ref =
        submit(sched, exact_line)->wait();
    ASSERT_EQ(exact_ref.size(), 9u);

    const auto fast = submit(sched, fast_line);
    EXPECT_FALSE(fast->cached());
    const std::vector<SweepResult> fast_ref = fast->wait();
    ASSERT_EQ(fast_ref.size(), 9u);
    EXPECT_EQ(fast->outcome().state, JobState::done);

    // Within one mode, replay works as usual — and each mode replays its
    // own stream bit for bit.
    const auto exact_again = submit(sched, exact_line);
    EXPECT_TRUE(exact_again->cached());
    expect_same_stream(exact_again->wait(), exact_ref, "exact replay");
    const auto fast_again = submit(sched, fast_line);
    EXPECT_TRUE(fast_again->cached());
    expect_same_stream(fast_again->wait(), fast_ref, "fast_math replay");
    EXPECT_EQ(sched.stats().cache_hits, 2u);

    // Wire jobs always pin the mode, so an exact job queued behind the
    // fast_math one evaluates exact — the fast job's mode never leaks.
    const auto after = submit(
        sched,
        R"({"job":"deviations","grid":{"from":-10,"to":10,"count":10},"shard_size":4})");
    EXPECT_FALSE(after->cached());
    EXPECT_EQ(after->wait().size(), 10u);
    EXPECT_FALSE(service.pipeline().options().fast_math);
}

TEST(JobScheduler, VerifySerialRunsOnTheDispatcherThread) {
    SweepService service(make_pipeline(), {.workers = 2});
    JobScheduler sched(service, JobScheduler::Options{});
    const std::string line =
        R"({"job":"deviations","verify_serial":true,"grid":{"from":-10,"to":10,"count":16},"shard_size":4})";
    const auto job = submit(sched, line);
    EXPECT_EQ(job->wait().size(), 16u);
    const JobOutcome out = job->outcome();
    EXPECT_EQ(out.state, JobState::done);
    EXPECT_TRUE(out.verify_ran);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.verify_members, 16u);
    // verify_serial is a test instrument: it must bypass the cache in both
    // directions, so a repeat verifies for real again.
    const auto repeat = submit(sched, line);
    EXPECT_EQ(repeat->wait().size(), 16u);
    EXPECT_FALSE(repeat->outcome().from_cache);
    EXPECT_TRUE(repeat->outcome().verify_ran);
    EXPECT_EQ(sched.stats().cache_hits, 0u);
}

TEST(JobScheduler, DestructorCancelsBacklogAndEveryJobGetsDone) {
    SweepService service(make_pipeline(), {.workers = 2});
    std::vector<std::shared_ptr<Collector>> jobs;
    {
        JobScheduler::Options opts;
        opts.cache_capacity = 0;
        JobScheduler sched(service, opts);
        sched.set_paused(true);
        for (int i = 0; i < 3; ++i)
            jobs.push_back(submit(
                sched,
                R"({"job":"deviations","grid":{"from":-20,"to":20,"count":500}})"));
        // Destroyed with a full backlog: must not hang or leak threads.
    }
    for (const auto& job : jobs) {
        EXPECT_TRUE(job->is_done());
        EXPECT_TRUE(job->wait().empty());
        EXPECT_EQ(job->outcome().state, JobState::cancelled);
        EXPECT_EQ(job->trace(), "qd"); // done exactly once
    }
    // The service survives its scheduler: direct runs still work.
    std::size_t delivered = 0;
    (void)service.run(
        SweepJob::deviation_grid(core::paper_biquad(), {-5.0, 5.0}),
        [&](const SweepResult&) { ++delivered; });
    EXPECT_EQ(delivered, 2u);
}

// The acceptance scenario, at the wire level: two clients submit
// interleaved jobs on one session — one an exact resubmit — and both
// receive ascending-order result streams bit-identical to serial run(),
// with the resubmit answered by the whole-job cache while the other job is
// still draining. Every emitted line must satisfy the protocol schema.
TEST(ServerSession, InterleavedClientsStreamBitIdenticalAndResubmitIsCached) {
    SweepService service(make_pipeline(), {.workers = 2});
    const std::string small_universe =
        R"("grid":{"from":-10,"to":10,"count":9},"shard_size":8)";
    const std::string big_universe =
        R"("parameter":"q","grid":{"from":-20,"to":20,"count":300},"shard_size":8)";
    const std::vector<SweepResult> ref_small = serial_reference(
        service, wire_job(R"({"job":"deviations",)" + small_universe + "}"));
    const std::vector<SweepResult> ref_big = serial_reference(
        service, wire_job(R"({"job":"deviations",)" + big_universe + "}"));

    xysig::Mutex lines_mutex;
    std::vector<std::string> lines;
    {
        ServerSession session(service, [&](const std::string& l) {
            xysig::MutexLock g(lines_mutex);
            lines.push_back(l);
        });
        session.emit_ready(256);
        ASSERT_TRUE(session.handle_line(R"({"cmd":"stats"})"));
        ASSERT_TRUE(session.handle_line(
            R"({"job":"deviations","id":"warm","client":"alice",)" +
            small_universe + "}"));
        session.drain(); // alice's first pass populates the whole-job cache
        ASSERT_TRUE(session.handle_line(
            R"({"job":"deviations","id":"big","client":"bob",)" +
            big_universe + "}"));
        ASSERT_TRUE(session.handle_line(
            R"({"job":"deviations","id":"re","client":"alice",)" +
            small_universe + "}"));
        ASSERT_TRUE(session.handle_line(R"({"cmd":"stats"})"));
        session.drain();
        // A fast_math job switches the service pipeline to the other
        // stimulus trace: the trace cache counters in `stats` must move.
        ASSERT_TRUE(session.handle_line(
            R"({"job":"deviations","id":"fm","fast_math":true,)" +
            small_universe + "}"));
        session.drain();
        ASSERT_TRUE(session.handle_line(R"({"cmd":"stats"})"));
        EXPECT_TRUE(session.all_verified());
    }

    struct PerJob {
        std::vector<std::size_t> members;
        std::vector<std::string> ndf_hex;
        bool done = false;
        bool done_cached = false;
        bool queued_cached = false;
    };
    std::map<std::string, PerJob> jobs;
    std::uint64_t wire_cache_hits = 0;
    std::vector<double> trace_lookups; // trace cache hits + misses per stats
    bool re_done_before_big = false;
    for (const std::string& l : lines) {
        EXPECT_NO_THROW(check_protocol_line(l)) << l;
        const JsonValue v = JsonValue::parse(l);
        if (!v.has("event"))
            continue;
        const std::string event = v.at("event").as_string();
        const std::string id = v.string_or("id", "");
        if (event == "queued") {
            jobs[id].queued_cached = v.at("cached").as_bool();
        } else if (event == "result") {
            jobs[id].members.push_back(
                static_cast<std::size_t>(v.at("member").as_number()));
            jobs[id].ndf_hex.push_back(v.at("ndf_hex").as_string());
        } else if (event == "job_done") {
            jobs[id].done = true;
            jobs[id].done_cached = v.bool_or("cached", false);
            if (id == "re" && !jobs["big"].done)
                re_done_before_big = true;
        } else if (event == "stats") {
            wire_cache_hits = static_cast<std::uint64_t>(
                v.at("scheduler").at("cache_hits").as_number());
            const JsonValue& trace = v.at("trace_cache");
            for (const char* key :
                 {"hits", "misses", "size", "evictions", "capacity"})
                EXPECT_TRUE(trace.has(key)) << key << " missing: " << l;
            trace_lookups.push_back(trace.at("hits").as_number() +
                                    trace.at("misses").as_number());
        }
    }

    const auto check_stream = [&](const std::string& id,
                                  const std::vector<SweepResult>& ref) {
        const PerJob& j = jobs[id];
        EXPECT_TRUE(j.done) << id;
        ASSERT_EQ(j.members.size(), ref.size()) << id;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(j.members[i], i) << id; // ascending, gap-free
            EXPECT_EQ(j.ndf_hex[i], format_double_exact(ref[i].ndf))
                << id << " member " << i;
        }
    };
    check_stream("warm", ref_small);
    check_stream("big", ref_big);
    check_stream("re", ref_small);

    // The resubmit was answered by the whole-job cache (acknowledged as
    // cached, closed as cached, counted in the wire stats)...
    EXPECT_TRUE(jobs["re"].queued_cached);
    EXPECT_TRUE(jobs["re"].done_cached);
    EXPECT_FALSE(jobs["big"].done_cached);
    EXPECT_GE(wire_cache_hits, 1u);
    // ...and finished while bob's long job was still draining — the queue
    // really interleaves, with no head-of-line blocking.
    EXPECT_TRUE(re_done_before_big);
    EXPECT_TRUE(jobs["fm"].done);

    // Every stats event reports the trace cache, and its counters moved.
    ASSERT_EQ(trace_lookups.size(), 3u);
    EXPECT_GT(trace_lookups.back(), trace_lookups.front());
}

/// Runs lines through one session and returns every emitted line.
std::vector<std::string> session_lines(
    SweepService& service,
    const std::function<void(ServerSession&)>& drive) {
    xysig::Mutex lines_mutex;
    std::vector<std::string> lines;
    {
        ServerSession session(service, [&](const std::string& l) {
            xysig::MutexLock g(lines_mutex);
            lines.push_back(l);
        });
        drive(session);
        session.drain();
    }
    return lines;
}

std::vector<std::string> object_keys(const JsonValue& v) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : v.as_object())
        keys.push_back(key);
    return keys;
}

// A job cancelled by id while still queued never reaches the service: it
// gets no job_start, and its job_done has the normal shape with zero
// members done.
TEST(ServerSession, QueuedCancelClosesWithZeroMemberJobDone) {
    SweepService service(make_pipeline(), {.workers = 2});
    const std::vector<std::string> lines =
        session_lines(service, [](ServerSession& session) {
            // "long" has far more members than can finish before the
            // cancels below, so "queued" is still waiting behind it.
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"long","grid":{"from":-20,"to":20,"count":100000}})"));
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"queued","deviations":[-5,0,5]})"));
            ASSERT_TRUE(session.handle_line(R"({"cmd":"cancel","id":"queued"})"));
            ASSERT_TRUE(session.handle_line(R"({"cmd":"cancel","id":"long"})"));
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"normal","deviations":[-5,5]})"));
        });

    std::map<std::string, JsonValue> job_done;
    bool queued_started = false;
    for (const std::string& l : lines) {
        EXPECT_NO_THROW(check_protocol_line(l)) << l;
        const JsonValue v = JsonValue::parse(l);
        const std::string event = v.at("event").as_string();
        const std::string id = v.string_or("id", "");
        if (event == "job_start" && id == "queued")
            queued_started = true;
        if (event == "job_done")
            job_done.emplace(id, v);
    }
    EXPECT_FALSE(queued_started);
    ASSERT_EQ(job_done.count("queued"), 1u);
    ASSERT_EQ(job_done.count("normal"), 1u);
    const JsonValue& cancelled = job_done.at("queued");
    EXPECT_TRUE(cancelled.at("cancelled").as_bool());
    EXPECT_EQ(cancelled.at("members_done").as_number(), 0.0);
    EXPECT_EQ(cancelled.at("members_total").as_number(), 3.0);
    EXPECT_FALSE(cancelled.at("cached").as_bool());
    EXPECT_FALSE(job_done.at("normal").at("cancelled").as_bool());
    EXPECT_EQ(object_keys(cancelled), object_keys(job_done.at("normal")));
}

// Domain errors are typed decode errors: one `error` event, no `queued`,
// and no source path from a failed precondition.
TEST(ServerSession, DomainErrorIsOneErrorEventWithoutSourcePath) {
    SweepService service(make_pipeline(), {.workers = 2});
    for (const std::string line :
         {R"({"job":"deviations","parameter":"f0","deviations":[-150]})",
          R"({"job":"spice_faults","settle_periods":0})",
          R"({"job":"deviations","grid":{"from":-120,"to":20,"count":5}})"}) {
        const std::vector<std::string> lines =
            session_lines(service, [&](ServerSession& session) {
                ASSERT_TRUE(session.handle_line(line));
            });
        ASSERT_EQ(lines.size(), 1u) << line;
        const JsonValue v = JsonValue::parse(lines[0]);
        EXPECT_EQ(v.at("event").as_string(), "error") << lines[0];
        EXPECT_EQ(v.at("message").as_string().find(".cpp"), std::string::npos)
            << lines[0];
        EXPECT_NO_THROW(check_protocol_line(lines[0])) << lines[0];
    }
}

// grid.count at 2^53 (the largest index_field admits) and one past the
// universe cap are refused with one error event each before anything is
// built, and the session then serves the next job normally.
TEST(ServerSession, OversizedUniverseIsRejectedBeforeItIsBuilt) {
    SweepService service(make_pipeline(), {.workers = 1});
    const std::string over_cap = std::to_string(kMaxUniverseMembers + 1);
    std::size_t largest = 0;
    const std::vector<std::string> lines =
        session_lines(service, [&](ServerSession& session) {
            g_largest_allocation.store(0);
            g_probe_armed.store(true);
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"huge","grid":{"from":-1,"to":1,"count":9007199254740992}})"));
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"over","grid":{"from":-1,"to":1,"count":)" +
                over_cap + "}}"));
            g_probe_armed.store(false);
            largest = g_largest_allocation.load();
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"ok","deviations":[-5,5]})"));
        });
    // Two universes of at least a million doubles were named; neither was
    // allocated (the request lines themselves are under 200 bytes).
    EXPECT_LT(largest, std::size_t{64} * 1024);

    std::vector<std::string> error_ids;
    std::size_t ok_results = 0;
    bool ok_done = false;
    for (const std::string& l : lines) {
        const JsonValue v = JsonValue::parse(l);
        const std::string event = v.at("event").as_string();
        if (event == "error") {
            error_ids.push_back(v.string_or("id", ""));
            EXPECT_NE(v.at("message").as_string().find("grid.count"),
                      std::string::npos)
                << l;
        } else if (event == "result") {
            EXPECT_EQ(v.at("id").as_string(), "ok") << l;
            ++ok_results;
        } else if (event == "job_done") {
            EXPECT_EQ(v.at("id").as_string(), "ok") << l;
            ok_done = !v.at("cancelled").as_bool();
        }
    }
    EXPECT_EQ(error_ids, (std::vector<std::string>{"huge", "over"}));
    EXPECT_EQ(ok_results, 2u);
    EXPECT_TRUE(ok_done);
}

/// Threads of this process, or nullopt where /proc/self/task is absent.
std::optional<std::size_t> thread_count() {
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/task", ec);
    if (ec)
        return std::nullopt;
    return static_cast<std::size_t>(
        std::distance(it, std::filesystem::directory_iterator{}));
}

// A deep queue costs no threads: each job's events are emitted by the
// thread that produces them, not by a thread of its own.
TEST(ServerSession, QueuedJobsAddNoThreads) {
    if (!thread_count())
        GTEST_SKIP() << "/proc/self/task is not available";
    SweepService service(make_pipeline(), {.workers = 1});
    const std::size_t before = *thread_count();
    std::size_t during = 0;
    const std::vector<std::string> lines =
        session_lines(service, [&](ServerSession& session) {
            ASSERT_TRUE(session.handle_line(
                R"({"job":"deviations","id":"long","grid":{"from":-20,"to":20,"count":100000}})"));
            for (int i = 0; i < 64; ++i)
                ASSERT_TRUE(session.handle_line(
                    R"({"job":"deviations","id":"q)" + std::to_string(i) +
                    R"(","deviations":[)" + std::to_string(i) + "]}"));
            during = *thread_count();
            ASSERT_TRUE(session.handle_line(R"({"cmd":"cancel","id":"long"})"));
        });
    // The session's dispatcher, plus one pool thread if it starts lazily.
    EXPECT_LE(during, before + 2) << "before " << before;

    std::size_t job_done = 0;
    for (const std::string& l : lines)
        if (JsonValue::parse(l).at("event").as_string() == "job_done")
            ++job_done;
    EXPECT_EQ(job_done, 65u);
}

} // namespace
} // namespace xysig::server
