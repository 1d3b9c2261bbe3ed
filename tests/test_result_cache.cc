/**
 * @file
 * ResultCache unit suite: insert/lookup round trips, the getOrCompute
 * outcomes (a waiter claims the key after a throwing compute, a table
 * full of in-flight entries bypasses), deterministic second-chance
 * eviction on a small table, budget enforcement and the measured
 * per-entry charge, exact value bit patterns, and the env knob.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include <malloc.h>

#include "cache/result_cache.hh"

namespace {

using namespace ppm;
using cache::CacheConfig;
using cache::Outcome;
using cache::ResultCache;
using Key = ResultCache::Key;

/** Config for a table of a few dozen entries. */
CacheConfig
smallConfig(std::size_t key_words = 2)
{
    CacheConfig config;
    config.key_words = key_words;
    config.budget_bytes = 4096;
    return config;
}

TEST(CacheMeta, ContextWordPacksIdAndMetric)
{
    EXPECT_EQ(cache::contextWord(0, 0), 0);
    EXPECT_EQ(cache::contextWord(5, 2), (5 << 2) | 2);
    EXPECT_NE(cache::contextWord(1, 0), cache::contextWord(0, 1));
}

TEST(ResultCacheTest, InsertAndLookupRoundTrip)
{
    CacheConfig config;
    config.key_words = 3;
    config.budget_bytes = 1 << 20;
    ResultCache cache(config);

    for (std::int64_t i = 0; i < 100; ++i) {
        const Key key = {0, i, i * 7 + 1};
        EXPECT_TRUE(cache.insert(key, i * 0.25));
    }
    for (std::int64_t i = 0; i < 100; ++i) {
        const Key key = {0, i, i * 7 + 1};
        double value = 0.0;
        ASSERT_TRUE(cache.lookup(key, &value)) << "key " << i;
        EXPECT_EQ(value, i * 0.25);
    }
    double value = 0.0;
    EXPECT_FALSE(cache.lookup({1, 0, 1}, &value));
    EXPECT_EQ(cache.liveEntries(), 100u);
    // Every probe counted once.
    EXPECT_EQ(cache.stats().hits, 100u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().inserts, 100u);
    // Re-inserting an existing key is not a new placement.
    EXPECT_FALSE(cache.insert({0, 0, 1}, 9.0));
    ASSERT_TRUE(cache.lookup({0, 0, 1}, &value));
    EXPECT_EQ(value, 0.0) << "first value wins";
}

TEST(ResultCacheTest, GetOrComputeComputesExactlyOnce)
{
    ResultCache cache(smallConfig());
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return 2.5;
    };
    const auto first = cache.getOrCompute({1, 2}, compute);
    EXPECT_EQ(first.outcome, Outcome::Computed);
    EXPECT_EQ(first.value, 2.5);
    const auto second = cache.getOrCompute({1, 2}, compute);
    EXPECT_EQ(second.outcome, Outcome::Hit);
    EXPECT_EQ(second.value, 2.5);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResultCacheTest, GetOrComputeReleasesClaimOnThrow)
{
    ResultCache cache(smallConfig());
    EXPECT_THROW(cache.getOrCompute(
                     {4, 4},
                     []() -> double {
                         throw std::runtime_error("sim failed");
                     }),
                 std::runtime_error);
    // The failed claim is released: a retry computes fresh.
    const auto retry =
        cache.getOrCompute({4, 4}, [] { return 1.25; });
    EXPECT_EQ(retry.outcome, Outcome::Computed);
    EXPECT_EQ(retry.value, 1.25);
}

TEST(ResultCacheTest, WaiterClaimsKeyAfterThrowingCompute)
{
    ResultCache cache(smallConfig());
    std::atomic<bool> claimed{false};
    std::thread owner([&] {
        EXPECT_THROW(cache.getOrCompute(
                         {4, 4},
                         [&]() -> double {
                             claimed.store(true);
                             // Throw only once the waiter is queued.
                             while (cache.stats().dedup_waits == 0)
                                 std::this_thread::yield();
                             throw std::runtime_error("sim failed");
                         }),
                     std::runtime_error);
    });
    while (!claimed.load())
        std::this_thread::yield();
    const auto waiter =
        cache.getOrCompute({4, 4}, [] { return 1.25; });
    owner.join();
    EXPECT_EQ(waiter.outcome, Outcome::Computed);
    EXPECT_EQ(waiter.value, 1.25);
    double value = 0.0;
    ASSERT_TRUE(cache.lookup({4, 4}, &value));
    EXPECT_EQ(value, 1.25);
}

TEST(ResultCacheTest, TableFullOfInFlightEntriesBypasses)
{
    CacheConfig config = smallConfig();
    config.budget_bytes = 700; // a handful of entries
    ResultCache cache(config);
    const std::size_t capacity = cache.capacitySlots();
    ASSERT_GT(capacity, 0u);
    ASSERT_LE(capacity, 8u);
    std::atomic<bool> release{false};
    std::vector<std::thread> owners;
    for (std::size_t i = 0; i < capacity; ++i)
        owners.emplace_back([&, i] {
            const auto got = cache.getOrCompute(
                {1, static_cast<std::int64_t>(i)},
                [&] {
                    while (!release.load())
                        std::this_thread::yield();
                    return 0.5;
                });
            EXPECT_EQ(got.outcome, Outcome::Computed);
        });
    while (cache.liveEntries() < capacity)
        std::this_thread::yield();

    // Every entry is in flight: nothing can be evicted.
    const auto got =
        cache.getOrCompute({2, 0}, [] { return 7.0; });
    EXPECT_EQ(got.outcome, Outcome::Bypassed);
    EXPECT_EQ(got.value, 7.0);
    EXPECT_FALSE(cache.insert({2, 1}, 8.0));
    EXPECT_EQ(cache.stats().bypasses, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    release.store(true);
    for (auto &owner : owners)
        owner.join();
    double value = 0.0;
    EXPECT_FALSE(cache.lookup({2, 0}, &value));
    for (std::size_t i = 0; i < capacity; ++i)
        EXPECT_TRUE(cache.lookup({1, static_cast<std::int64_t>(i)},
                                 &value));
}

TEST(ResultCacheTest, SecondChanceEvictsUnreferencedFirst)
{
    ResultCache cache(smallConfig());
    const auto capacity =
        static_cast<std::int64_t>(cache.capacitySlots());
    ASSERT_GE(capacity, 13);
    const auto keyOf = [](std::int64_t i) { return Key{9, i}; };

    for (std::int64_t i = 0; i < capacity; ++i)
        ASSERT_TRUE(cache.insert(keyOf(i), i * 1.5));
    EXPECT_EQ(cache.liveEntries(), cache.capacitySlots());

    // One entry more: every entry starts referenced (fresh inserts),
    // so the sweep spends all reference bits and takes the oldest
    // entry — key 0.
    ASSERT_TRUE(cache.insert({10, 100}, -1.0));
    double value = 0.0;
    EXPECT_FALSE(cache.lookup(keyOf(0), &value));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.liveEntries(), cache.capacitySlots());

    // Touch keys 1..11: their reference bits shield them, so the next
    // eviction must take key 12 — the oldest unreferenced entry.
    for (std::int64_t i = 1; i <= 11; ++i)
        ASSERT_TRUE(cache.lookup(keyOf(i), &value));
    ASSERT_TRUE(cache.insert({10, 101}, -2.0));
    EXPECT_FALSE(cache.lookup(keyOf(12), &value));
    for (std::int64_t i = 1; i <= 11; ++i)
        EXPECT_TRUE(cache.lookup(keyOf(i), &value)) << "key " << i;
    ASSERT_TRUE(cache.lookup({10, 100}, &value));
    EXPECT_EQ(value, -1.0);
}

TEST(ResultCacheTest, BudgetCapsFootprintAndOccupancy)
{
    CacheConfig config;
    config.key_words = 4;
    config.budget_bytes = 64 * 1024;
    ResultCache cache(config);
    EXPECT_EQ(cache.footprintBytes(), 0u) << "nothing allocated yet";
    ASSERT_GT(cache.capacitySlots(), 0u);

    // Insert 4x the capacity; occupancy must never pass capacity.
    const std::int64_t n =
        static_cast<std::int64_t>(cache.capacitySlots()) * 4;
    for (std::int64_t i = 0; i < n; ++i)
        cache.insert({i, i * 3, i ^ 0x55, 7}, i * 0.5);
    EXPECT_EQ(cache.liveEntries(), cache.capacitySlots());
    EXPECT_LE(cache.footprintBytes(), config.budget_bytes);
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ResultCacheTest, BudgetBelowOneEntryCachesNothing)
{
    CacheConfig config;
    config.key_words = 2;
    config.budget_bytes = 1;
    ResultCache cache(config);
    EXPECT_EQ(cache.capacitySlots(), 0u);
    EXPECT_FALSE(cache.insert({1, 1}, 1.0));
    const auto got =
        cache.getOrCompute({1, 2}, [] { return 2.0; });
    EXPECT_EQ(got.outcome, Outcome::Bypassed);
    EXPECT_EQ(got.value, 2.0);
    EXPECT_EQ(cache.liveEntries(), 0u);
    EXPECT_EQ(cache.footprintBytes(), 0u);
}

/**
 * The per-entry charge is an upper bound on what the allocator spends
 * for an entry, so the budget bounds the table's heap (and RSS).
 */
TEST(ResultCacheTest, EntryChargeBoundsHeapBytes)
{
    // Register the process-wide cache.* counters before measuring.
    ResultCache(smallConfig()).insert({0, 0}, 0.0);
    for (const std::size_t key_words : {2u, 3u, 10u, 17u}) {
        CacheConfig config;
        config.key_words = key_words;
        config.budget_bytes = 8u << 20;
        ResultCache cache(config);
        // Keys are built up front so only the table allocates.
        std::vector<Key> keys;
        for (std::int64_t i = 0; i < 4000; ++i)
            keys.emplace_back(key_words, i * 31 + 7);
        const std::size_t before = ::mallinfo2().uordblks;
        for (const Key &key : keys)
            cache.insert(key, 0.5);
        const std::size_t grown = ::mallinfo2().uordblks - before;
        ASSERT_EQ(cache.liveEntries(), keys.size());
        EXPECT_LE(grown, cache.footprintBytes())
            << "key_words " << key_words;
    }
}

TEST(ResultCacheTest, NegativeZeroAndNanValuesRoundTrip)
{
    ResultCache cache(smallConfig());
    ASSERT_TRUE(cache.insert({1, 1}, -0.0));
    ASSERT_TRUE(cache.insert({1, 2}, std::nan("")));
    double value = 1.0;
    ASSERT_TRUE(cache.lookup({1, 1}, &value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(-0.0));
    ASSERT_TRUE(cache.lookup({1, 2}, &value));
    EXPECT_TRUE(std::isnan(value));
}

// The table once reserved this NaN payload as its in-flight marker and
// rewrote it to the quiet NaN on insert. In-flight state now lives
// beside the value, so the canonical stored form of every value,
// this one included, is its own bit pattern.
TEST(ResultCacheTest, PendingSentinelValueIsCanonicalised)
{
    ResultCache cache(smallConfig());
    constexpr std::uint64_t kPayload = 0xFFF8'0000'5050'4D01ULL;
    const double sentinel = std::bit_cast<double>(kPayload);
    ASSERT_TRUE(std::isnan(sentinel));
    ASSERT_TRUE(cache.insert({1, 1}, sentinel));
    double value = 0.0;
    ASSERT_TRUE(cache.lookup({1, 1}, &value));
    EXPECT_TRUE(std::isnan(value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value), kPayload);

    const auto got =
        cache.getOrCompute({1, 2}, [&] { return sentinel; });
    EXPECT_EQ(got.outcome, Outcome::Computed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value), kPayload);
    ASSERT_TRUE(cache.lookup({1, 2}, &value));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value), kPayload);
    // A stored sentinel is a finished value, not a claim: a second
    // getOrCompute hits it without running the compute.
    const auto again = cache.getOrCompute(
        {1, 2}, [&]() -> double { throw std::logic_error("recomputed"); });
    EXPECT_EQ(again.outcome, Outcome::Hit);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.value), kPayload);
}

TEST(ResultCacheTest, KeyWidthIsEnforced)
{
    ResultCache cache(smallConfig(3));
    double value = 0.0;
    EXPECT_THROW(cache.lookup({1, 2}, &value), std::invalid_argument);
    EXPECT_THROW(cache.insert({1, 2, 3, 4}, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(
        cache.getOrCompute({1}, [] { return 0.0; }),
        std::invalid_argument);
    EXPECT_THROW(ResultCache(CacheConfig{}), std::invalid_argument);
}

TEST(ResultCacheTest, EnvKnobsParseAndFallBack)
{
    ::setenv("PPM_CACHE_MB", "3", 1);
    EXPECT_EQ(cache::budgetBytesFromEnv(16), 3u << 20);
    ::setenv("PPM_CACHE_MB", "junk", 1);
    EXPECT_EQ(cache::budgetBytesFromEnv(16), 16u << 20);
    ::unsetenv("PPM_CACHE_MB");
    EXPECT_EQ(cache::budgetBytesFromEnv(16), 16u << 20);
}

} // namespace
