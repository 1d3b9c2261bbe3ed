#include "util/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "obs/trace_span.hh"

namespace ppm::util {

namespace {

/** Set while the current thread runs a pool task (nesting guard). */
thread_local bool t_inside_task = false;

/** Set while a CallerWaitsScope is alive on the current thread. */
thread_local bool t_caller_waits = false;

} // namespace

/**
 * One forEach() invocation. Indices are handed out under the pool
 * mutex; completion is signalled through done_cv once the last active
 * runner finishes.
 */
struct ThreadPool::Job
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    /** Submitter's trace context, re-installed in each runner so
     * spans inside tasks join the submitting request's trace. */
    obs::TraceContext trace;
    std::size_t grain = 1;  //!< indices claimed per mutex acquisition
    std::size_t next = 0;   //!< first index not yet claimed
    std::size_t active = 0; //!< runners currently inside fn
    std::exception_ptr error;
    std::condition_variable done_cv;

    /** No more indices will be dispatched (guarded by pool mutex). */
    bool
    exhausted() const
    {
        return error || next >= n;
    }

    /** All dispatched indices have finished (guarded by pool mutex). */
    bool
    finished() const
    {
        return exhausted() && active == 0;
    }
};

ThreadPool::ThreadPool(unsigned num_threads)
    : num_threads_(num_threads == 0 ? configuredThreads() : num_threads)
{
    if (num_threads_ < 2)
        return; // serial pool: no workers, forEach runs inline
    workers_.reserve(num_threads_);
    for (unsigned t = 0; t < num_threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

bool
ThreadPool::insideTask()
{
    return t_inside_task;
}

CallerWaitsScope::CallerWaitsScope() : previous_(t_caller_waits)
{
    t_caller_waits = true;
}

CallerWaitsScope::~CallerWaitsScope()
{
    t_caller_waits = previous_;
}

void
ThreadPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &fn,
                    std::size_t grain)
{
    if (n == 0)
        return;
    OBS_SPAN("pool.forEach");
    OBS_STATIC_COUNTER(items_dispatched, "pool.items");
    OBS_ADD(items_dispatched, n);
    // Serial pool, nested submission from inside a task, or a single
    // item the caller may take: run inline. Exceptions propagate
    // naturally.
    if (workers_.empty() || t_inside_task ||
        (n == 1 && !t_caller_waits)) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<Job>();
    job->n = n;
    job->fn = &fn;
    job->trace = obs::currentTraceContext();
    // Auto grain: ~8 chunks per worker balances dispatch overhead
    // against load-balancing slack for uneven item costs.
    job->grain = grain != 0
                     ? grain
                     : std::max<std::size_t>(1, n / (num_threads_ * 8));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(job);
    }
    work_cv_.notify_all();

    // The caller works too, then waits for stragglers.
    if (!t_caller_waits)
        runJob(job);
    std::unique_lock<std::mutex> lock(mutex_);
    job->done_cv.wait(lock, [&] { return job->finished(); });
    const auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end())
        queue_.erase(it);
    if (job->error)
        std::rethrow_exception(job->error);
}

void
ThreadPool::runJob(const std::shared_ptr<Job> &job)
{
    for (;;) {
        std::size_t begin, end;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (job->exhausted())
                return;
            begin = job->next;
            end = std::min(job->n, begin + job->grain);
            job->next = end;
            ++job->active;
        }
        std::exception_ptr error;
        t_inside_task = true;
        {
            obs::ScopedTraceContext trace_scope(job->trace);
            try {
                for (std::size_t i = begin; i < end; ++i)
                    (*job->fn)(i);
            } catch (...) {
                error = std::current_exception();
            }
        }
        t_inside_task = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !job->error)
                job->error = error;
            --job->active;
            if (job->finished())
                job->done_cv.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                if (stop_)
                    return true;
                // Only wake for jobs that still have work to hand out.
                return std::any_of(queue_.begin(), queue_.end(),
                                   [](const auto &j) {
                                       return !j->exhausted();
                                   });
            });
            if (stop_)
                return;
            for (const auto &queued : queue_)
                if (!queued->exhausted()) {
                    job = queued;
                    break;
                }
        }
        if (job)
            runJob(job);
    }
}

unsigned
configuredThreads()
{
    if (const char *env = std::getenv("PPM_THREADS")) {
        char *end = nullptr;
        const unsigned long value = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && value >= 1 && value <= 4096)
            return static_cast<unsigned>(value);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

} // namespace

ThreadPool &
globalPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(configuredThreads());
    return *g_pool;
}

void
setGlobalThreads(unsigned num_threads)
{
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    g_pool = std::make_unique<ThreadPool>(num_threads);
}

} // namespace ppm::util
