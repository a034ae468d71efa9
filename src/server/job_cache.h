#ifndef XYSIG_SERVER_JOB_CACHE_H
#define XYSIG_SERVER_JOB_CACHE_H

/// \file job_cache.h
/// Content-addressed whole-job result cache for the scheduler: the exact
/// setup fingerprint of core/fingerprint.h, extended from one golden
/// chronogram to an entire job's result stream.
///
/// A cache key is `pipeline_fingerprint(pipe) + "job{" + universe_key + "}"`
/// — every float that feeds the evaluation appears in exact hexfloat form
/// (the setup fingerprint plus deviation values / fault-universe options),
/// so a hit is bit-identical to recomputation by construction. The member RANGE is deliberately not part
/// of the key: entries store results under GLOBAL member ids, and a lookup
/// for [first, first+count) is served by any entry whose stored range covers
/// it — a fan-out slice of a previously completed full job streams from the
/// cache without touching a worker.
///
/// LRU-bounded like core::ExactKeyLru, but not one: entries are member
/// ranges (several per key) served by a covering lookup. A long-lived
/// multi-tenant server sees an unbounded stream of distinct jobs, so
/// entries beyond capacity() are evicted least-recently-used. Thread-safe;
/// shared_ptr payloads keep results alive for streams still draining an
/// evicted entry.

#include <cstddef>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotated_mutex.h"
#include "core/pipeline.h"
#include "server/sweep_service.h"

namespace xysig::server {

/// core::setup_fingerprint of the pipeline: everything it contributes to
/// result bits. Empty when the pipeline is not exactly fingerprintable
/// (custom bank monitor, noise, quantisation) — an empty fingerprint
/// disables job caching for that pipeline, it never aliases.
[[nodiscard]] std::string
pipeline_fingerprint(const core::SignaturePipeline& pipe);

/// Thread-safe LRU map from exact job keys to complete result ranges.
class JobResultCache {
public:
    /// Whole-job payloads (members × chronograms) are much heavier than
    /// goldens, so the default bound is smaller than the golden cache's.
    static constexpr std::size_t kDefaultCapacity = 64;

    explicit JobResultCache(std::size_t capacity = kDefaultCapacity);

    /// One cache hit: `results` holds GLOBAL-id members, ascending and
    /// contiguous from `first`; the requested range is a sub-span of it.
    struct Hit {
        std::shared_ptr<const std::vector<SweepResult>> results;
        std::size_t first = 0; ///< global member id of results->front()
    };

    /// Covering lookup: returns an entry for `key` whose stored range
    /// contains [first, first+count), preferring an exact range match.
    /// Refreshes recency on hit; counts a miss otherwise.
    [[nodiscard]] std::optional<Hit>
    lookup(const std::string& key, std::size_t first, std::size_t count);

    /// Stores a COMPLETE contiguous result range: results[i].member_id must
    /// equal first + i (global ids). Never call with a cancelled or partial
    /// stream. Entries whose range is contained in the new one are dropped
    /// (the superset serves their lookups); an entry already covering the
    /// new range makes the insert a no-op.
    void insert(const std::string& key, std::size_t first,
                std::vector<SweepResult> results);

    /// Maximum number of retained entries (>= 1). Shrinking below the
    /// current size evicts LRU entries immediately.
    void set_capacity(std::size_t capacity);
    [[nodiscard]] std::size_t capacity() const;

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t hits() const;
    [[nodiscard]] std::size_t misses() const;
    [[nodiscard]] std::size_t evictions() const;

    /// Drops every entry and resets the counters (test isolation); the
    /// configured capacity is kept.
    void clear();

private:
    struct Entry {
        std::string key; ///< pipeline + universe key (range excluded)
        std::size_t first = 0;
        std::size_t count = 0;
        std::shared_ptr<const std::vector<SweepResult>> results;
    };
    /// MRU-first recency list; the (multi)map points into it — one key may
    /// hold several disjoint ranges.
    using LruList = std::list<Entry>;

    void evict_to_capacity_locked() REQUIRES(mutex_);
    void erase_locked(LruList::iterator it) REQUIRES(mutex_);

    mutable Mutex mutex_;
    LruList lru_ GUARDED_BY(mutex_);
    std::unordered_multimap<std::string, LruList::iterator> map_ GUARDED_BY(mutex_);
    std::size_t capacity_ GUARDED_BY(mutex_);
    std::size_t hits_ GUARDED_BY(mutex_) = 0;
    std::size_t misses_ GUARDED_BY(mutex_) = 0;
    std::size_t evictions_ GUARDED_BY(mutex_) = 0;
};

} // namespace xysig::server

#endif // XYSIG_SERVER_JOB_CACHE_H
