#include "serve/sharded_client.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

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

ShardedClient::ShardedClient(RemoteOptions options)
    : options_(std::move(options)),
      socket_dead_(options_.sockets.size())
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

std::optional<Frame>
ShardedClient::exchange(
    std::size_t endpoint_index,
    const std::vector<std::uint8_t> &request, MsgType expect,
    const std::function<void(const Frame &)> &validate)
{
    if (endpoints_.empty() ||
        socket_dead_[endpoint_index].load(std::memory_order_relaxed))
        return std::nullopt;
    const Endpoint &endpoint = endpoints_[endpoint_index];
    const std::string socket = endpoint.display();

    OBS_SPAN("remote.chunk");
    OBS_STATIC_COUNTER(retries, "remote.retries");
    OBS_STATIC_COUNTER(backoff_sleeps, "remote.backoff_sleeps");
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
            FdGuard fd = [&] {
                OBS_SPAN("remote.connect");
                try {
                    FdGuard conn = connectEndpoint(
                        endpoint, options_.connect_timeout_ms);
#ifndef PPM_OBS_DISABLED
                    endpoint_metrics_[endpoint_index].connects->add(1);
#endif
                    return conn;
                } catch (const IoError &) {
#ifndef PPM_OBS_DISABLED
                    endpoint_metrics_[endpoint_index]
                        .connect_failures->add(1);
#endif
                    throw;
                }
            }();
            writeFrame(fd.get(), request, options_.io_timeout_ms);
            Frame reply = readFrame(fd.get(), options_.io_timeout_ms);
            if (reply.type == MsgType::Error) {
                // A semantic rejection (unknown benchmark, bad
                // dimensionality) will not improve with retries;
                // evaluate locally, where the same condition raises
                // a meaningful exception.
                break;
            }
            if (reply.type != expect)
                throw ProtocolError("unexpected reply type");
            if (validate)
                validate(reply);
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
ShardedClient::forEachChunk(std::size_t num_chunks,
                            const std::function<void(std::size_t)> &run)
{
    const std::size_t num_threads = std::min<std::size_t>(
        options_.max_connections, num_chunks);
    if (num_threads <= 1 || endpoints_.empty()) {
        for (std::size_t c = 0; c < num_chunks; ++c)
            run(c);
        return;
    }

    // Dedicated dispatch threads (see file comment); thread t owns
    // chunks t, t+T, t+2T, ... so slot writes never overlap. The
    // caller's trace context is re-installed in each thread so chunk
    // frames carry the request's trace id to the shards.
    const obs::TraceContext trace = obs::currentTraceContext();
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t) {
        threads.emplace_back([&, t] {
            obs::ScopedTraceContext trace_scope(trace);
            try {
                for (std::size_t c = t; c < num_chunks;
                     c += num_threads)
                    run(c);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace ppm::serve
