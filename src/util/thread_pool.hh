/**
 * @file
 * Deterministic parallel execution: a small fixed-size thread pool and
 * the parallelFor / parallelMap helpers the experiment sweeps are built
 * on.
 *
 * Design contract (see DESIGN.md "Parallel execution & determinism"):
 * work items are independent, each item writes only its own output
 * slot, and anything stochastic derives a private RNG stream from
 * (base seed, item index) via math::Rng::stream(). Under that contract
 * results are bit-identical for every thread count and schedule, so
 * the pool is free to hand out indices dynamically for load balance.
 *
 * The global pool size is controlled by the PPM_THREADS environment
 * variable (default: hardware_concurrency). PPM_THREADS=1 is the
 * legacy serial path: every helper runs inline on the calling thread
 * and no worker threads are spawned.
 */

#ifndef PPM_UTIL_THREAD_POOL_HH
#define PPM_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ppm::util {

/**
 * Fixed-size worker pool executing index-based jobs.
 *
 * One job at a time runs to completion per forEach() call; concurrent
 * forEach() calls from different threads queue FIFO. Calls made from
 * inside a pool task (nested submission) run inline on the calling
 * worker, so nesting can never deadlock the pool.
 */
class ThreadPool
{
  public:
    /**
     * @param num_threads Worker count; 0 means configuredThreads().
     *        A pool of size 1 spawns no workers and runs every job
     *        inline on the caller (the serial path).
     */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Joins all workers. Must not race an in-flight forEach(). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Configured parallelism (including the calling thread). */
    unsigned size() const { return num_threads_; }

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * The caller participates in the work (unless a CallerWaitsScope
     * is alive on its thread). If any invocation throws, the first
     * exception is rethrown here and indices not yet started are
     * skipped.
     *
     * Workers claim contiguous index ranges of @p grain items per
     * mutex acquisition (chunked dispatch), so very fine-grained
     * sweeps do not serialize on the pool lock. grain 0 (the default)
     * picks ~8 chunks per worker; grain 1 is the legacy
     * one-index-per-claim behaviour. Chunking only changes which
     * worker runs which index — under the independence contract above
     * results are identical for every grain.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 std::size_t grain = 0);

    /** True while the current thread is executing a pool task. */
    static bool insideTask();

  private:
    struct Job;

    void workerLoop();
    void runJob(const std::shared_ptr<Job> &job);

    unsigned num_threads_;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::vector<std::shared_ptr<Job>> queue_;
    bool stop_ = false;
};

/**
 * While alive, forEach() calls made on the constructing thread leave
 * every item to the pool's workers and only wait for them; a serial
 * pool, or a call nested inside a task, still runs inline. Tests use
 * it to put work on worker threads deterministically.
 */
class CallerWaitsScope
{
  public:
    CallerWaitsScope();
    ~CallerWaitsScope();
    CallerWaitsScope(const CallerWaitsScope &) = delete;
    CallerWaitsScope &operator=(const CallerWaitsScope &) = delete;

  private:
    bool previous_;
};

/**
 * Thread count requested by the environment: PPM_THREADS if set to a
 * positive integer, else std::thread::hardware_concurrency() (min 1).
 */
unsigned configuredThreads();

/**
 * The process-wide pool used by the library's batched APIs. Created on
 * first use with configuredThreads() workers.
 */
ThreadPool &globalPool();

/**
 * Replace the global pool with one of @p num_threads workers (0 =
 * re-read the environment). Must not be called while parallel work is
 * in flight; intended for benches and tests that sweep thread counts.
 */
void setGlobalThreads(unsigned num_threads);

/** Run fn(i) for i in [0, n) on the global pool. */
template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn)
{
    globalPool().forEach(
        n, std::function<void(std::size_t)>(std::forward<Fn>(fn)));
}

/**
 * Map fn over @p items on the global pool, preserving order. The
 * result type must be default-constructible; fn must be safe to call
 * concurrently on distinct items.
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn &&fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn &, const T &>>>
{
    using R = std::decay_t<std::invoke_result_t<Fn &, const T &>>;
    std::vector<R> out(items.size());
    globalPool().forEach(items.size(), [&](std::size_t i) {
        out[i] = fn(items[i]);
    });
    return out;
}

} // namespace ppm::util

#endif // PPM_UTIL_THREAD_POOL_HH
