/**
 * @file
 * Unit tests for the ppm::util thread pool and the parallelFor /
 * parallelMap helpers: lifecycle, range shapes, exception propagation,
 * nested submission, CallerWaitsScope, and a tasks >> threads stress
 * run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace {

using namespace ppm;

TEST(ThreadPool, ConstructionAndIdleTeardown)
{
    // Pools of every interesting size construct and destroy cleanly
    // without ever receiving work.
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        util::ThreadPool pool(n);
        EXPECT_EQ(pool.size(), n);
    }
    // 0 = environment default, at least one thread.
    util::ThreadPool auto_sized(0);
    EXPECT_GE(auto_sized.size(), 1u);
}

TEST(ThreadPool, ForEachEmptyRangeRunsNothing)
{
    util::ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.forEach(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ForEachSingleElement)
{
    util::ThreadPool pool(4);
    std::vector<std::size_t> seen;
    pool.forEach(1, [&](std::size_t i) { seen.push_back(i); });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 0u);
}

TEST(ThreadPool, ForEachOddRangeCoversEveryIndexOnce)
{
    util::ThreadPool pool(4);
    const std::size_t n = 37; // odd, not a multiple of the pool size
    std::vector<std::atomic<int>> counts(n);
    pool.forEach(n, [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SerialPoolRunsInline)
{
    util::ThreadPool pool(1);
    std::set<std::thread::id> threads;
    pool.forEach(16, [&](std::size_t) {
        threads.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(threads.size(), 1u);
    EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(
        pool.forEach(64,
                     [&](std::size_t i) {
                         if (i == 13)
                             throw std::runtime_error("boom");
                     }),
        std::runtime_error);
}

TEST(ThreadPool, PoolUsableAfterException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.forEach(8,
                              [](std::size_t) {
                                  throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    std::atomic<int> sum{0};
    pool.forEach(100, [&](std::size_t i) {
        sum += static_cast<int>(i);
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ExceptionInSerialPathPropagates)
{
    util::ThreadPool pool(1);
    EXPECT_THROW(pool.forEach(4,
                              [](std::size_t) {
                                  throw std::invalid_argument("bad");
                              }),
                 std::invalid_argument);
}

TEST(ThreadPool, NestedSubmissionRunsInlineWithoutDeadlock)
{
    util::ThreadPool pool(4);
    const std::size_t outer = 8, inner = 16;
    std::vector<std::atomic<int>> counts(outer * inner);
    pool.forEach(outer, [&](std::size_t i) {
        EXPECT_TRUE(util::ThreadPool::insideTask());
        pool.forEach(inner, [&](std::size_t j) {
            ++counts[i * inner + j];
        });
    });
    EXPECT_FALSE(util::ThreadPool::insideTask());
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, CallerWaitsScopeLeavesEveryItemToWorkers)
{
    util::ThreadPool pool(3);
    const std::thread::id caller = std::this_thread::get_id();
    for (const std::size_t n : {1u, 2u, 64u}) {
        std::vector<std::thread::id> ran(n);
        {
            util::CallerWaitsScope waits;
            pool.forEach(n, [&](std::size_t i) {
                ran[i] = std::this_thread::get_id();
            });
        }
        for (const std::thread::id id : ran)
            EXPECT_NE(id, caller) << "n=" << n;
    }
    // The scope is gone: a single item runs inline again.
    std::thread::id ran_on;
    pool.forEach(1, [&](std::size_t) {
        ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, StressManyMoreTasksThanThreads)
{
    util::ThreadPool pool(4);
    const std::size_t n = 50000;
    std::atomic<std::uint64_t> sum{0};
    pool.forEach(n, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelMap, PreservesOrder)
{
    util::setGlobalThreads(4);
    std::vector<int> items(101);
    std::iota(items.begin(), items.end(), 0);
    auto squares = util::parallelMap(items, [](const int &v) {
        return v * v;
    });
    ASSERT_EQ(squares.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(squares[i], items[i] * items[i]);
    util::setGlobalThreads(0);
}

TEST(ParallelFor, GlobalPoolSizeFollowsSetGlobalThreads)
{
    util::setGlobalThreads(3);
    EXPECT_EQ(util::globalPool().size(), 3u);
    util::setGlobalThreads(1);
    EXPECT_EQ(util::globalPool().size(), 1u);
    util::setGlobalThreads(0); // back to the environment default
    EXPECT_EQ(util::globalPool().size(), util::configuredThreads());
}

TEST(ConfiguredThreads, HonoursEnvironmentVariable)
{
    ASSERT_EQ(setenv("PPM_THREADS", "3", 1), 0);
    EXPECT_EQ(util::configuredThreads(), 3u);
    ASSERT_EQ(setenv("PPM_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(util::configuredThreads(), 1u); // falls back to hardware
    ASSERT_EQ(unsetenv("PPM_THREADS"), 0);
    EXPECT_GE(util::configuredThreads(), 1u);
}

} // namespace
