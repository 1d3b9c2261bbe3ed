/**
 * @file
 * ResultCache contention-correctness suite: N-threads-one-point dedup
 * (exactly one computation), eviction under concurrent lookups,
 * budget enforcement under parallel load, bit-equivalence of memoized
 * oracles against the independent MutexMapCache across thread counts
 * and private/shared tables, and live cache.* counter exposure
 * through the server's STATS frame.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/result_cache.hh"
#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "sampling/sample_gen.hh"
#include "serve/protocol.hh"
#include "serve/remote_oracle.hh"
#include "serve/sim_server.hh"
#include "serve/socket_io.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "util/thread_pool.hh"

#include "mutex_map_cache.hh"

namespace {

using namespace ppm;
using cache::CacheConfig;
using cache::MutexMapCache;
using cache::Outcome;
using cache::ResultCache;
using Key = core::ResultStore::Key;

/** Deterministic stand-in for a simulation. */
double
syntheticCpi(const dspace::DesignPoint &point)
{
    double v = 0.75;
    for (std::size_t i = 0; i < point.size(); ++i)
        v += point[i] * static_cast<double>(i + 1) * 0.125;
    return v;
}

std::vector<dspace::DesignPoint>
syntheticPoints(std::size_t n)
{
    std::vector<dspace::DesignPoint> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(
            {static_cast<double>(i), static_cast<double>(i % 7)});
    return points;
}

TEST(CacheContention, NThreadsOnePointComputeExactlyOnce)
{
    CacheConfig config;
    config.key_words = 2;
    config.budget_bytes = 1 << 16;
    ResultCache cache(config);

    constexpr int kThreads = 8;
    std::atomic<int> computes{0};
    std::atomic<bool> go{false};
    std::atomic<int> computed_outcomes{0};
    std::vector<double> values(kThreads, 0.0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            const auto result = cache.getOrCompute(
                {5, 5},
                [&] {
                    computes.fetch_add(1,
                                       std::memory_order_relaxed);
                    // Hold the claim long enough that the other
                    // threads pile up on the pending slot.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(200));
                    return 6.5;
                });
            values[t] = result.value;
            if (result.outcome == Outcome::Computed)
                computed_outcomes.fetch_add(
                    1, std::memory_order_relaxed);
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(computes.load(), 1) << "dedup must collapse the race";
    EXPECT_EQ(computed_outcomes.load(), 1);
    for (double v : values)
        EXPECT_EQ(v, 6.5);
    EXPECT_GE(cache.stats().dedup_waits, 1u);
}

TEST(CacheContention, FunctionOracleDedupsRacingThreads)
{
    CacheConfig config;
    config.key_words = 3;
    config.budget_bytes = 1 << 16;
    ResultCache cache(config);
    core::FunctionOracle oracle([](const dspace::DesignPoint &p) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return syntheticCpi(p);
    });

    const dspace::DesignPoint point = {3.0, 4.0};
    const Key key = core::SimulatorOracle::cacheKey(0, point);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            EXPECT_EQ(cache
                          .getOrCompute(key,
                                        [&] { return oracle.cpi(point); })
                          .value,
                      syntheticCpi(point));
        });
    go.store(true, std::memory_order_release);
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(oracle.evaluations(), 1u)
        << "N racing threads, one evaluation";
}

TEST(CacheContention, EvictionUnderConcurrentLookupStaysConsistent)
{
    // A small table, hammered: the writer forces constant eviction
    // while readers probe. Any hit must carry the exact value of its
    // key — a torn or recycled entry would fail the equality.
    CacheConfig config;
    config.key_words = 2;
    config.budget_bytes = 16 * 1024;
    ResultCache cache(config);
    const auto valueOf = [](std::int64_t i) { return i * 1.25 + 0.5; };

    constexpr std::int64_t kKeys = 20'000;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> hits{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            std::uint64_t state = 0x9E3779B9u + t;
            while (!done.load(std::memory_order_acquire)) {
                state = state * 6364136223846793005ULL + 1442695040888963407ULL;
                const std::int64_t i =
                    static_cast<std::int64_t>((state >> 33) % kKeys);
                double value = 0.0;
                if (cache.lookup({2, i}, &value)) {
                    if (value != valueOf(i)) {
                        ADD_FAILURE() << "inconsistent hit for " << i
                                      << ": " << value;
                        done.store(true,
                                   std::memory_order_release);
                    }
                    hits.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::int64_t i = 0; i < kKeys; ++i) {
        cache.insert({2, i}, valueOf(i));
        // Give the single-core CI box a chance to interleave the
        // readers with live evictions.
        if ((i & 0x3FF) == 0)
            std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (auto &reader : readers)
        reader.join();

    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LE(cache.liveEntries(), cache.capacitySlots());
    // Deterministic sweep: the survivors must all read back exact
    // (racing reader hits are scheduling-dependent, survivors never).
    std::uint64_t survivors = 0;
    for (std::int64_t i = 0; i < kKeys; ++i) {
        double value = 0.0;
        if (!cache.lookup({2, i}, &value))
            continue;
        ++survivors;
        ASSERT_EQ(value, valueOf(i)) << "key " << i;
    }
    EXPECT_GT(survivors, 0u);
    EXPECT_LE(survivors, cache.capacitySlots());
}

TEST(CacheContention, BudgetRespectedUnderParallelLoad)
{
    CacheConfig config;
    config.key_words = 2;
    config.budget_bytes = 32 * 1024;
    ResultCache cache(config);
    EXPECT_LE(cache.footprintBytes(), config.budget_bytes);

    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::int64_t i = 0; i < 10'000; ++i) {
                const std::int64_t k = t * 100'000 + i;
                (void)cache.getOrCompute({k, k * 3},
                                         [&] { return k * 0.5; });
            }
        });
    for (auto &thread : threads)
        thread.join();

    EXPECT_LE(cache.liveEntries(), cache.capacitySlots());
    EXPECT_GT(cache.stats().evictions, 0u);
    // Eviction keeps the bytes charged for live entries in budget.
    EXPECT_LE(cache.footprintBytes(), config.budget_bytes);
}

/**
 * Bit-equivalence sweep: a FunctionOracle memoized through the table
 * must return exactly the values of the mutex-map baseline protocol
 * for every thread count, including repeated points (memo hits).
 */
TEST(CacheEquivalence, FunctionOracleMatchesMutexMapBaseline)
{
    auto points = syntheticPoints(64);
    // Duplicates exercise the memo path under contention.
    const auto dups = syntheticPoints(32);
    points.insert(points.end(), dups.begin(), dups.end());

    // Baseline: the old design, run through the same parallel map.
    MutexMapCache baseline;
    util::setGlobalThreads(4);
    const std::vector<double> expected = util::parallelMap(
        points, [&](const dspace::DesignPoint &p) {
            Key key = {0};
            for (double v : p)
                key.push_back(static_cast<std::int64_t>(
                    std::llround(v * 1e6)));
            return baseline.getOrCompute(
                key, [&] { return syntheticCpi(p); });
        });

    for (const unsigned threads : {1u, 4u, 8u}) {
        CacheConfig config;
        config.key_words = 3;
        config.budget_bytes = 1 << 20;
        ResultCache cache(config);
        core::FunctionOracle oracle(syntheticCpi);
        util::setGlobalThreads(threads);
        const std::vector<double> got = util::parallelMap(
            points, [&](const dspace::DesignPoint &p) {
                return cache
                    .getOrCompute(
                        core::SimulatorOracle::cacheKey(0, p),
                        [&] { return oracle.cpi(p); })
                    .value;
            });
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], expected[i])
                << "threads=" << threads << " point=" << i;
        EXPECT_LE(oracle.evaluations(), 64u)
            << "duplicates must be memoized";
    }
    util::setGlobalThreads(0);
}

/**
 * The real thing: SimulatorOracle CPI values through the cache are
 * bit-identical to a mutex-map-memoized direct-simulation baseline at
 * 1/4/8 threads, on the oracle's private table and on a shared one.
 */
TEST(CacheEquivalence, SimulatorOracleMatchesBaselineAcrossThreadsAndShards)
{
    const auto space = dspace::paperTrainSpace();
    const trace::Trace trace = trace::generateTrace(
        trace::profileByName("mcf"), 4000);
    sim::SimOptions options;
    options.warmup_instructions = 500;

    math::Rng rng(17);
    auto batch =
        sampling::bestLatinHypercube(space, 8, 2, rng).points;
    // A duplicate point exercises dedup inside one batch.
    batch.push_back(batch.front());

    // Baseline: sequential direct simulation through MutexMapCache.
    MutexMapCache baseline;
    std::vector<double> expected;
    for (const auto &p : batch) {
        const Key key = core::SimulatorOracle::cacheKey(p);
        expected.push_back(baseline.getOrCompute(key, [&] {
            const auto config =
                sim::ProcessorConfig::fromDesignPoint(space, p);
            return sim::simulate(trace, config, options).cpi();
        }));
    }

    for (const unsigned threads : {1u, 4u, 8u}) {
        for (const bool shared : {false, true}) {
            core::SimulatorOracle oracle(space, trace, options);
            if (shared) {
                CacheConfig config;
                config.key_words = space.size() + 1;
                config.budget_bytes = 1 << 20;
                oracle.attachSharedCache(
                    std::make_shared<ResultCache>(config), 0);
            }
            util::setGlobalThreads(threads);
            const std::vector<double> got =
                oracle.evaluateAll(batch);
            ASSERT_EQ(got.size(), expected.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(got[i], expected[i])
                    << "threads=" << threads << " shared=" << shared
                    << " point=" << i;
            EXPECT_EQ(oracle.evaluations(), batch.size() - 1)
                << "the duplicate point must not re-simulate";
        }
    }
    util::setGlobalThreads(0);
}

/** cache.* counters flow through the server's STATS frame live. */
TEST(CacheServeStats, StatsFrameCarriesCacheCounters)
{
    const auto space = dspace::paperTrainSpace();
    const trace::Trace trace = trace::generateTrace(
        trace::profileByName("mcf"), 6000);
    sim::SimOptions options;
    options.warmup_instructions = 1000;
    math::Rng rng(23);
    const auto batch =
        sampling::bestLatinHypercube(space, 6, 2, rng).points;

    const std::string sock = "/tmp/ppm_cachecc_" +
                             std::to_string(::getpid()) +
                             "_stats.sock";
    serve::ServerOptions server_options;
    server_options.socket_path = sock;
    server_options.num_workers = 2;
    serve::SimServer server(server_options);
    server.start();

    serve::RemoteOptions remote_options;
    remote_options.sockets = {sock};
    remote_options.max_attempts = 2;
    remote_options.backoff_initial_ms = 1;
    serve::RemoteOracle remote(space, "mcf", trace, options,
                               core::Metric::Cpi, remote_options);
    // Twice: the second pass answers out of the server's table.
    (void)remote.evaluateAll(batch);
    (void)remote.evaluateAll(batch);

    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodeStatsRequest(7), 1000);
    const serve::Frame reply = serve::readFrame(conn.get(), 5000);
    server.stop();
    ASSERT_EQ(reply.type, serve::MsgType::StatsResponse);
    const obs::Snapshot snap =
        serve::parseStatsResponse(reply.payload);

#ifndef PPM_OBS_DISABLED
    const auto counter =
        [&](const std::string &name) -> std::uint64_t {
        for (const auto &c : snap.counters)
            if (c.name == name)
                return c.value;
        return 0;
    };
    // This binary shares one registry across tests: lower bounds.
    EXPECT_GE(counter("cache.miss"), batch.size());
    EXPECT_GE(counter("cache.hit"), batch.size());
    bool lookup_span_seen = false;
    for (const auto &h : snap.histograms)
        if (h.name == "span.cache.lookup" && h.count > 0)
            lookup_span_seen = true;
    EXPECT_TRUE(lookup_span_seen);
#endif

    const auto stats = server.resultCache().stats();
    EXPECT_GE(stats.misses, batch.size());
    EXPECT_GE(stats.hits, batch.size());
}

} // namespace
