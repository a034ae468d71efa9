// ExactKeyLru, the one exact-key cache behind the golden and stimulus
// trace caches, tested once per value type it is instantiated with.
//
// A long-lived sweep service sees an unbounded stream of distinct
// fingerprints, so the cache must evict (LRU) instead of keeping one value
// per fingerprint forever, and callers holding an evicted value must keep
// it. Concurrent misses on one key must all receive the single stored
// object (the TSan lane runs this file).

#include "core/exact_key_lru.h"

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/golden_cache.h"
#include "core/trace_cache.h"

namespace xysig::core {
namespace {

/// A recognisable value per tag, for each cached type.
template <typename V>
V make_value(unsigned tag);

template <>
capture::Chronogram make_value<capture::Chronogram>(unsigned tag) {
    return capture::Chronogram(1.0, 6, {{0.0, tag}});
}

template <>
std::vector<double> make_value<std::vector<double>>(unsigned tag) {
    return std::vector<double>(8, static_cast<double>(tag));
}

unsigned tag_of(const capture::Chronogram& c) { return c.events()[0].code; }
unsigned tag_of(const std::vector<double>& v) {
    return static_cast<unsigned>(v[0]);
}

template <typename Cache>
class ExactKeyLruTest : public ::testing::Test {
protected:
    using Value = typename Cache::value_type;

    /// Looks `key` up, counting computations in computes_.
    std::shared_ptr<const Value> get(const std::string& key, unsigned tag) {
        return cache_.find_or_compute(key, [&] {
            ++computes_;
            return make_value<Value>(tag);
        });
    }

    Cache cache_;
    int computes_ = 0;
};

using CacheTypes = ::testing::Types<GoldenSignatureCache, StimulusTraceCache>;
TYPED_TEST_SUITE(ExactKeyLruTest, CacheTypes);

TYPED_TEST(ExactKeyLruTest, EvictsLeastRecentlyUsedAndHitsRefreshRecency) {
    this->cache_.set_capacity(2);
    (void)this->get("a", 1);
    (void)this->get("b", 2);
    EXPECT_EQ(this->cache_.size(), 2u);
    EXPECT_EQ(this->computes_, 2);
    EXPECT_EQ(this->cache_.evictions(), 0u);

    // Touch "a" so "b" becomes the LRU entry, then insert "c".
    EXPECT_EQ(tag_of(*this->get("a", 1)), 1u);
    (void)this->get("c", 3);
    EXPECT_EQ(this->cache_.size(), 2u);
    EXPECT_EQ(this->cache_.evictions(), 1u);

    // "a" and "c" hit; "b" was evicted and recomputes.
    (void)this->get("a", 1);
    (void)this->get("c", 3);
    EXPECT_EQ(this->computes_, 3);
    EXPECT_EQ(tag_of(*this->get("b", 2)), 2u);
    EXPECT_EQ(this->computes_, 4);
    EXPECT_EQ(this->cache_.evictions(), 2u); // inserting "b" evicted "a"
}

TYPED_TEST(ExactKeyLruTest, EvictedValuesStayAliveForHolders) {
    this->cache_.set_capacity(1);
    const auto held = this->get("x", 7);
    (void)this->get("y", 8);
    EXPECT_EQ(this->cache_.size(), 1u);
    EXPECT_EQ(this->cache_.evictions(), 1u);
    EXPECT_EQ(tag_of(*held), 7u);
}

TYPED_TEST(ExactKeyLruTest, ShrinkingCapacityEvictsImmediately) {
    this->cache_.set_capacity(8);
    for (unsigned i = 0; i < 5; ++i)
        (void)this->get("k" + std::to_string(i), i);
    EXPECT_EQ(this->cache_.size(), 5u);
    this->cache_.set_capacity(2);
    EXPECT_EQ(this->cache_.size(), 2u);
    EXPECT_EQ(this->cache_.evictions(), 3u);
    EXPECT_EQ(this->cache_.capacity(), 2u);
    // The two most recent insertions survived.
    (void)this->get("k3", 3);
    (void)this->get("k4", 4);
    EXPECT_EQ(this->computes_, 5);
}

TYPED_TEST(ExactKeyLruTest, StatsAndClear) {
    EXPECT_EQ(this->cache_.capacity(), TypeParam::kDefaultCapacity);
    this->cache_.set_capacity(4);
    (void)this->get("k", 1);
    (void)this->get("k", 1);
    EXPECT_EQ(this->cache_.hits(), 1u);
    EXPECT_EQ(this->cache_.misses(), 1u);
    this->cache_.clear();
    EXPECT_EQ(this->cache_.size(), 0u);
    EXPECT_EQ(this->cache_.hits(), 0u);
    EXPECT_EQ(this->cache_.misses(), 0u);
    EXPECT_EQ(this->cache_.evictions(), 0u);
    EXPECT_EQ(this->cache_.capacity(), 4u); // clear keeps the configured bound
    (void)this->get("k", 1);
    EXPECT_EQ(this->computes_, 2); // clear dropped the entry
}

TYPED_TEST(ExactKeyLruTest, ProcessWideInstanceIsOnePerTypeAndBounded) {
    TypeParam& instance = TypeParam::instance();
    EXPECT_EQ(&instance, &TypeParam::instance());
    EXPECT_NE(static_cast<const void*>(&GoldenSignatureCache::instance()),
              static_cast<const void*>(&StimulusTraceCache::instance()));
    EXPECT_GE(instance.capacity(), 1u);
    EXPECT_LE(instance.capacity(), 1u << 20);
}

TYPED_TEST(ExactKeyLruTest, ConcurrentMissesShareOneStoredValue) {
    using Stored = typename TestFixture::Value;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Stored>> got(kThreads);
    std::latch start(kThreads); // release every caller at once
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[static_cast<std::size_t>(t)] = this->cache_.find_or_compute(
                "shared", [] { return make_value<Stored>(5); });
        });
    for (std::thread& th : threads)
        th.join();
    for (const auto& p : got) {
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p.get(), got[0].get()); // the first insertion won for all
    }
    EXPECT_EQ(tag_of(*got[0]), 5u);
    EXPECT_EQ(this->cache_.misses(), 1u);
    EXPECT_EQ(this->cache_.hits(), static_cast<std::size_t>(kThreads - 1));
    EXPECT_EQ(this->cache_.size(), 1u);
}

} // namespace
} // namespace xysig::core
