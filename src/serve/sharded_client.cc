#include "serve/sharded_client.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "serve/socket_io.hh"

namespace ppm::serve {

std::vector<std::string>
socketsFromEnv()
{
    const char *env = std::getenv(kSocketEnvVar);
    return env == nullptr ? std::vector<std::string>{}
                          : splitEndpointSpecs(env);
}

struct ShardedClient::Batch
{
    const std::function<void(std::size_t)> *run = nullptr;
    std::size_t num_chunks = 0;
    obs::TraceContext trace;
    std::size_t next = 0;     //!< first unclaimed chunk
    std::size_t finished = 0; //!< chunks that have returned or thrown
    std::exception_ptr first_error;
};

ShardedClient::ShardedClient(RemoteOptions options)
    : options_(std::move(options)),
      socket_dead_(options_.sockets.size()),
      idle_(options_.sockets.size())
{
    if (options_.chunk_points == 0)
        options_.chunk_points = 1;
    if (options_.max_connections == 0)
        options_.max_connections = 1;
    if (options_.max_attempts < 1)
        options_.max_attempts = 1;
    endpoints_.reserve(options_.sockets.size());
    for (const std::string &spec : options_.sockets)
        endpoints_.push_back(parseEndpoint(spec));
#ifndef PPM_OBS_DISABLED
    endpoint_metrics_.reserve(endpoints_.size());
    for (const Endpoint &ep : endpoints_) {
        const std::string prefix = "remote.ep." + ep.display();
        EndpointMetrics m;
        m.connects = &obs::Registry::instance().counter(
            prefix + ".connects");
        m.connect_failures = &obs::Registry::instance().counter(
            prefix + ".connect_failures");
        m.retries = &obs::Registry::instance().counter(
            prefix + ".retries");
        endpoint_metrics_.push_back(m);
    }
#endif
}

ShardedClient::~ShardedClient()
{
    {
        std::lock_guard<std::mutex> lock(dispatch_mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

FdGuard
ShardedClient::connect(std::size_t endpoint_index)
{
    OBS_SPAN("remote.connect");
    try {
        FdGuard conn = connectEndpoint(endpoints_[endpoint_index],
                                       options_.connect_timeout_ms);
#ifndef PPM_OBS_DISABLED
        endpoint_metrics_[endpoint_index].connects->add(1);
#endif
        return conn;
    } catch (const IoError &) {
#ifndef PPM_OBS_DISABLED
        endpoint_metrics_[endpoint_index].connect_failures->add(1);
#endif
        throw;
    }
}

std::optional<Frame>
ShardedClient::exchange(
    std::size_t endpoint_index,
    const std::vector<std::uint8_t> &request, MsgType expect,
    const std::function<void(const Frame &)> &validate)
{
    if (endpoints_.empty() ||
        socket_dead_[endpoint_index].load(std::memory_order_relaxed))
        return std::nullopt;
    const std::string socket = endpoints_[endpoint_index].display();

    OBS_SPAN("remote.chunk");
    OBS_STATIC_COUNTER(retries, "remote.retries");
    OBS_STATIC_COUNTER(backoff_sleeps, "remote.backoff_sleeps");
    const auto roundTrip = [&](const FdGuard &fd) {
        writeFrame(fd.get(), request, options_.io_timeout_ms);
        return readFrame(fd.get(), options_.io_timeout_ms);
    };
    int backoff_ms = options_.backoff_initial_ms;
    for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
        if (attempt > 0) {
            OBS_ADD(retries, 1);
            OBS_ADD(backoff_sleeps, 1);
#ifndef PPM_OBS_DISABLED
            endpoint_metrics_[endpoint_index].retries->add(1);
#endif
            obs::logEvent(obs::LogLevel::Debug, "remote", "backoff",
                          {{"socket", socket},
                           {"attempt", attempt},
                           {"sleep_ms", std::min(backoff_ms,
                                                 options_.backoff_max_ms)}});
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(backoff_ms, options_.backoff_max_ms)));
            backoff_ms =
                nextBackoffMs(backoff_ms, options_.backoff_max_ms);
        }
        try {
            FdGuard fd;
            {
                std::lock_guard<std::mutex> lock(pool_mutex_);
                std::vector<FdGuard> &idle = idle_[endpoint_index];
                if (!idle.empty()) {
                    fd = std::move(idle.back());
                    idle.pop_back();
                }
            }
            std::optional<Frame> reply;
            if (fd.valid()) {
                try {
                    reply = roundTrip(fd);
                } catch (const PeerClosedError &) {
                    // Closed by the server while idle: not a failed
                    // attempt, so reconnect without a retry.
                }
            }
            if (!reply) {
                fd = connect(endpoint_index);
                reply = roundTrip(fd);
            }
            // A semantic rejection (unknown benchmark, bad
            // dimensionality) will not improve with retries, and says
            // nothing about the endpoint: evaluate locally, where the
            // same condition raises a meaningful exception, and keep
            // the endpoint and its connection for the next call.
            const bool rejected = reply->type == MsgType::Error;
            if (!rejected && reply->type != expect)
                throw ProtocolError("unexpected reply type");
            if (!rejected && validate)
                validate(*reply);
            std::lock_guard<std::mutex> lock(pool_mutex_);
            std::vector<FdGuard> &idle = idle_[endpoint_index];
            if (idle.size() < options_.max_connections)
                idle.push_back(std::move(fd));
            if (rejected)
                return std::nullopt;
            return reply;
        } catch (const IoError &) {
            // Unreachable, reset, or timed out: retry with backoff.
        } catch (const ProtocolError &) {
            // Corrupt reply: the transport is suspect; retry too.
        }
    }
    socket_dead_[endpoint_index].store(true,
                                       std::memory_order_relaxed);
    OBS_STATIC_COUNTER(dead_latches, "remote.dead_latches");
    OBS_ADD(dead_latches, 1);
    obs::logEvent(obs::LogLevel::Warn, "remote", "socket_dead",
                  {{"socket", socket},
                   {"attempts", options_.max_attempts}});
    return std::nullopt;
}

void
ShardedClient::runChunks(Batch &batch, std::unique_lock<std::mutex> &lock)
{
    while (batch.next < batch.num_chunks) {
        const std::size_t c = batch.next++;
        if (batch.next == batch.num_chunks)
            batches_.erase(
                std::find(batches_.begin(), batches_.end(), &batch));
        lock.unlock();
        std::exception_ptr error;
        try {
            (*batch.run)(c);
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error && !batch.first_error)
            batch.first_error = error;
        // The batch's caller may return as soon as the lock drops
        // after the last chunk finishes: batch is not touched again.
        if (++batch.finished == batch.num_chunks)
            done_cv_.notify_all();
    }
}

void
ShardedClient::dispatchLoop()
{
    std::unique_lock<std::mutex> lock(dispatch_mutex_);
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return stopping_ || !batches_.empty(); });
        if (batches_.empty())
            return; // stopping, and no caller is waiting
        Batch &batch = *batches_.front();
        // Chunk frames carry the caller's trace id to the shards.
        obs::ScopedTraceContext trace_scope(batch.trace);
        runChunks(batch, lock);
    }
}

void
ShardedClient::forEachChunk(std::size_t num_chunks,
                            const std::function<void(std::size_t)> &run)
{
    if (num_chunks <= 1 || options_.max_connections <= 1 ||
        endpoints_.empty()) {
        for (std::size_t c = 0; c < num_chunks; ++c)
            run(c);
        return;
    }

    Batch batch;
    batch.run = &run;
    batch.num_chunks = num_chunks;
    batch.trace = obs::currentTraceContext();
    std::unique_lock<std::mutex> lock(dispatch_mutex_);
    if (threads_.empty())
        for (unsigned t = 1; t < options_.max_connections; ++t)
            threads_.emplace_back([this] { dispatchLoop(); });
    batches_.push_back(&batch);
    const std::size_t helpers =
        std::min(num_chunks - 1, threads_.size());
    for (std::size_t h = 0; h < helpers; ++h)
        work_cv_.notify_one();
    runChunks(batch, lock);
    done_cv_.wait(lock,
                  [&] { return batch.finished == batch.num_chunks; });
    lock.unlock();
    if (batch.first_error)
        std::rethrow_exception(batch.first_error);
}

} // namespace ppm::serve
