#ifndef XYSIG_SERVER_SWEEP_SERVICE_H
#define XYSIG_SERVER_SWEEP_SERVICE_H

/// \file sweep_service.h
/// Long-lived sharded sweep service: the scale-out layer above
/// core::BatchNdfEvaluator.
///
/// A sweep job is one member universe — a SPICE fault universe or a
/// behavioural deviation grid — screened against the pipeline's golden
/// signature. The service shards the universe into
/// contiguous work units, schedules units across a ThreadPool the service
/// owns, and streams (member_id, ndf, signature) results incrementally
/// through a callback, in member order, instead of materialising one giant
/// result vector.
///
/// The shard size is worked out per job unless the job sets its own
/// (SweepJob::shard_size): a fault universe gets one member per unit,
/// because SPICE member costs are uneven (the slowest Tow-Thomas fault
/// takes about twice the mean); a deviation grid gets
/// ceil(members / (4 x workers)) members per unit, clamped to
/// [1, kMaxShardSize], so every worker has several units to claim.
///
/// Guarantees (pinned by tests/server and bench_sweep_service):
///  * NDF values are bit-identical to the serial BatchNdfEvaluator /
///    SignaturePipeline::ndf_of path at ANY shard size and worker count;
///  * SPICE universes are evaluated with ONE netlist clone per worker, not
///    one per fault: each worker deep-clones the nominal circuit once, then
///    injects and repairs faults in place between units
///    (capture::inject_fault / repair_fault — bit-identical to simulating a
///    fresh fault-injected clone, because every transient run restarts from
///    the DC operating point);
///  * goldens are served from the process-wide core::GoldenSignatureCache,
///    so repeated jobs over the same (cut, bank, stimulus) fingerprint
///    compute the golden once per fingerprint, not once per job. SPICE
///    goldens are keyed on the nominal netlist's exact fingerprint
///    (spice::Netlist::fingerprint) and are cached like behavioural ones;
///  * non-convergent members stream as quiet-NaN NDFs with no signature
///    (the BatchNdfOptions::nan_on_numeric_error policy, always on here —
///    catastrophic universes legitimately contain unsolvable members).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "capture/fault_injection.h"
#include "common/annotated_mutex.h"
#include "common/parallel.h"
#include "core/batch_ndf.h"
#include "core/pipeline.h"
#include "core/sweep.h"

namespace xysig::server {

struct SweepServiceOptions {
    /// Worker threads of the service's pool; 0 = default_thread_count().
    unsigned workers = 0;
};

/// One streamed member result.
struct SweepResult {
    std::size_t member_id = 0;
    /// NDF against the golden; quiet NaN when the member's simulation had no
    /// stable solution.
    double ndf = 0.0;
    /// Stable member label ("dev(f0,-10%)", "bridge(bp,lp,100)", ...).
    std::string label;
    /// The observed chronogram the NDF was computed against (the member's
    /// digital signature); absent for NaN members.
    std::optional<capture::Chronogram> signature;
};

/// Wall-clock accounting of one completed work unit.
struct ShardTiming {
    std::size_t shard = 0;        ///< shard index (member range start / size)
    std::size_t first_member = 0;
    std::size_t member_count = 0; ///< members actually evaluated (cancellation
                                  ///< may cut a shard short)
    unsigned worker = 0;          ///< worker slot that ran the unit
    double seconds = 0.0;
};

/// What run() reports when a job finishes, is cancelled, or fails.
struct JobSummary {
    std::size_t members_total = 0;
    std::size_t members_done = 0;
    std::size_t shards_total = 0;
    std::size_t shards_done = 0;
    bool cancelled = false;
    double seconds = 0.0;
    /// Netlist deep-clones made by workers for this job: at most one per
    /// participating worker (the clone-per-worker contract), 0 for
    /// behavioural jobs.
    std::uint64_t netlist_clones = 0;
    std::vector<ShardTiming> shard_timings; ///< sorted by shard index
};

/// Cooperative cancellation handle: share one token between run() and any
/// other thread (or the result callback itself) and call cancel(). Workers
/// stop claiming work and finish the member in flight; already-evaluated
/// results still stream out in ascending member order (gaps allowed).
class SweepCancelToken {
public:
    void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
    [[nodiscard]] bool cancelled() const noexcept {
        return cancelled_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<bool> cancelled_{false};
};

/// One sweep universe plus its golden. Build with the named factories; a
/// default-constructed job is an empty universe (size 0, no golden) that
/// run() completes at once — it exists so wire decoders can
/// declare-then-assign.
class SweepJob {
public:
    SweepJob() = default;

    /// Behavioural deviation grid: one BehaviouralCut per deviation of the
    /// nominal Biquad (the Fig. 8 universe shape); golden = the nominal.
    [[nodiscard]] static SweepJob deviation_grid(
        filter::Biquad nominal, std::vector<double> deviations_percent,
        core::SweptParameter parameter = core::SweptParameter::f0);

    /// SPICE fault universe over a nominal netlist; golden = the fault-free
    /// netlist. The job shares ownership of the nominal so decoded wire jobs
    /// need no external keep-alive.
    [[nodiscard]] static SweepJob fault_universe(
        std::shared_ptr<const spice::Netlist> nominal,
        std::vector<capture::NetlistFault> faults,
        core::SpiceObservation observation);

    /// Universe member count.
    [[nodiscard]] std::size_t size() const noexcept;

    /// Members per work unit for this job; 0 = the service's shard policy
    /// (see the file comment). Results never depend on the choice.
    std::size_t shard_size = 0;

    /// Per-job sampling mode: set to pin the pipeline's fast_math flag for
    /// this job (run() applies it before resolving the golden, so the
    /// golden and every member evaluate under one mode); nullopt inherits
    /// whatever mode the service's pipeline is currently configured with.
    /// Wire jobs always pin it — the `fast_math` job field defaults to
    /// false under the tolerant-reader rule — so a queued mixed-mode
    /// workload can never leak one job's mode into the next.
    std::optional<bool> fast_math;

private:
    friend class SweepService;

    // No default member initialisers here: NSDMIs of a nested class are
    // parsed only at the end of the outermost class, which would make these
    // look non-default-constructible to the std::variant member below. The
    // factories set every field.
    struct DeviationUniverse {
        filter::Biquad nominal;
        std::vector<double> deviations_percent;
        core::SweptParameter parameter;
    };
    struct FaultUniverse {
        std::shared_ptr<const spice::Netlist> nominal;
        std::vector<capture::NetlistFault> faults;
        core::SpiceObservation observation;
    };

    /// monostate = the empty default-constructed job.
    std::variant<std::monostate, DeviationUniverse, FaultUniverse> universe_;
};

/// The service. Owns the pipeline (set_golden mutates it per job) and a
/// ThreadPool whose threads live across jobs; run() is the blocking
/// submit-and-stream entry point and may be called repeatedly. One job
/// runs at a time (concurrent run() calls serialise); results within a job
/// are produced concurrently but delivered from the run() caller's thread.
class SweepService {
public:
    using ResultCallback = std::function<void(const SweepResult&)>;

    /// The largest shard the policy picks; the `ready` banner reports it.
    static constexpr std::size_t kMaxShardSize = 64;

    explicit SweepService(core::SignaturePipeline pipeline,
                          SweepServiceOptions options = {});

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /// Evaluates every member of the job, invoking on_result once per
    /// evaluated member in ascending member_id order (contiguous from 0
    /// unless cancelled). Blocks until the job completes, is cancelled, or a
    /// worker fails with a non-member error (InvalidInput etc.), which is
    /// rethrown here after in-flight units drain. The callback runs on the
    /// caller's thread, so it may cancel, aggregate, or write to a stream
    /// without synchronisation.
    JobSummary run(const SweepJob& job, const ResultCallback& on_result,
                   SweepCancelToken* cancel = nullptr);

    [[nodiscard]] const core::SignaturePipeline& pipeline() const noexcept {
        return pipeline_;
    }
    [[nodiscard]] unsigned worker_count() const noexcept {
        return pool_.thread_count();
    }

    /// Lifetime totals across jobs.
    struct ServiceStats {
        std::uint64_t jobs = 0;
        std::uint64_t members = 0;
        std::uint64_t shards = 0;
        std::uint64_t netlist_clones = 0;
    };
    [[nodiscard]] ServiceStats stats() const;

private:
    struct JobContext;

    static void run_shards(JobContext& ctx, unsigned worker_index);

    /// The job's own shard size, or the policy's pick for it.
    [[nodiscard]] std::size_t shard_size_for(const SweepJob& job) const;

    core::SignaturePipeline pipeline_;
    Mutex job_mutex_; ///< serialises run() callers; guards no fields

    mutable Mutex stats_mutex_;
    ServiceStats stats_ GUARDED_BY(stats_mutex_);

    /// Declared last so it is destroyed first: its threads are joined
    /// before anything a task could touch goes away.
    ThreadPool pool_;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_SWEEP_SERVICE_H
