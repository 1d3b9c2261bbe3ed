/**
 * @file
 * ShardedClient: the transport-and-retry core shared by every client
 * of the serve plane (RemoteOracle for simulation batches,
 * PredictOracle for model predictions). One place owns endpoint
 * parsing, a pool of idle connections per endpoint, per-endpoint
 * health counters, the bounded exponential-backoff retry schedule,
 * the per-socket dead latch, and the dispatch threads that run a
 * batch's chunks concurrently — so fault-injection chaos coverage and
 * the remote.* observability counters apply to every frame family
 * without duplication.
 *
 * Dispatch deliberately uses the client's own threads, NOT the
 * process-wide util::ThreadPool: a chunk blocks on socket I/O, and
 * parking blocked work inside the pool could starve a same-process
 * SimServer (tests, benches) whose oracles need the pool to make
 * progress. The threads start on the client's first multi-chunk call
 * and live until it is destroyed.
 */

#ifndef PPM_SERVE_SHARDED_CLIENT_HH
#define PPM_SERVE_SHARDED_CLIENT_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "serve/protocol.hh"
#include "serve/transport.hh"

namespace ppm::serve {

/** Name of the environment variable naming server endpoints. */
inline constexpr const char *kSocketEnvVar = "PPM_SERVE_SOCKET";

/**
 * Endpoint specs from PPM_SERVE_SOCKET (comma-separated; empty when
 * unset). One running ppm_serve process per endpoint; Unix socket
 * paths and TCP host:port specs can be mixed freely.
 */
std::vector<std::string> socketsFromEnv();

/**
 * Next delay of a bounded exponential-backoff schedule: doubles
 * @p backoff_ms, saturating at @p backoff_max_ms. Saturation is
 * checked before the doubling, so the schedule can never overflow
 * however many attempts are configured.
 */
constexpr int
nextBackoffMs(int backoff_ms, int backoff_max_ms)
{
    return backoff_ms > backoff_max_ms / 2 ? backoff_max_ms
                                           : backoff_ms * 2;
}

struct RemoteOptions
{
    /**
     * Server endpoints (Unix paths and/or TCP host:port specs) to
     * shard across; chunk c goes to sockets[c % sockets.size()].
     * Empty = always evaluate locally.
     */
    std::vector<std::string> sockets;
    /** Per-connection-attempt timeout. */
    int connect_timeout_ms = 2'000;
    /** Per-request I/O timeout (covers the simulations themselves). */
    int io_timeout_ms = 120'000;
    /** Attempts per chunk before falling back locally (>= 1). */
    int max_attempts = 3;
    /** First retry delay; doubles per attempt up to backoff_max_ms. */
    int backoff_initial_ms = 25;
    int backoff_max_ms = 500;
    /** Points per request frame. */
    std::size_t chunk_points = 8;
    /**
     * Chunks of one call in flight at once (the caller plus
     * max_connections - 1 dispatch threads), and the most idle
     * connections kept per endpoint.
     */
    unsigned max_connections = 4;
    /** Base seed carried in requests (see protocol::EvalRequest). */
    std::uint64_t seed = 0;
};

class ShardedClient
{
  public:
    /**
     * Parse the endpoints of @p options and register per-endpoint
     * health counters (remote.ep.<spec>.*). Also normalizes the
     * options: chunk_points, max_connections, max_attempts >= 1.
     */
    explicit ShardedClient(RemoteOptions options);

    /** Joins the dispatch threads and closes pooled connections. */
    ~ShardedClient();

    ShardedClient(const ShardedClient &) = delete;
    ShardedClient &operator=(const ShardedClient &) = delete;

    const RemoteOptions &options() const { return options_; }
    std::size_t numEndpoints() const { return endpoints_.size(); }

    /**
     * One request/reply exchange against an endpoint, with the full
     * connect-timeout / retry / backoff / dead-latch schedule. An
     * attempt takes an idle pooled connection when there is one and
     * connects otherwise; the connection goes back to the pool only
     * after a reply of type @p expect that @p validate accepted. A
     * pooled connection that fails with PeerClosedError (the server
     * closed it while idle, e.g. on a restart) is replaced by one
     * fresh connect within the same attempt. An Error reply aborts
     * without further retries (a semantic rejection will not
     * improve); any other reply type than @p expect — or a
     * @p validate callback throwing ProtocolError — marks the
     * transport suspect and retries. Every failure closes the
     * connection.
     *
     * @return The reply frame (type == @p expect), or nullopt when
     *         the endpoint is dead, all attempts failed (the endpoint
     *         is then latched dead), or the server replied Error —
     *         the caller falls back locally.
     */
    std::optional<Frame> exchange(
        std::size_t endpoint_index,
        const std::vector<std::uint8_t> &request, MsgType expect,
        const std::function<void(const Frame &)> &validate = {});

    /**
     * Run @p run(c) once for every chunk index in [0, num_chunks):
     * the caller and the client's max_connections - 1 dispatch
     * threads claim chunks from one shared queue, so concurrent
     * callers share the threads. Each chunk runs under the caller's
     * trace context. With one chunk, max_connections == 1 or zero
     * endpoints runs inline. Rethrows the first exception any chunk
     * raised, after every chunk has finished.
     */
    void forEachChunk(std::size_t num_chunks,
                      const std::function<void(std::size_t)> &run);

  private:
    /** One forEachChunk call's shared state, on the caller's stack. */
    struct Batch;

    FdGuard connect(std::size_t endpoint_index);
    /** Claim and run @p batch's chunks until none is unclaimed. */
    void runChunks(Batch &batch, std::unique_lock<std::mutex> &lock);
    void dispatchLoop();

    RemoteOptions options_;

    /** Parsed options_.sockets, one per shard slot. */
    std::vector<Endpoint> endpoints_;

    /**
     * Per-endpoint registry counters, named
     * remote.ep.<spec>.{connects,connect_failures,retries}, so
     * ppm_stats (and the merged multi-client view) can tell a flaky
     * shard from a healthy one. Empty when obs is compiled out.
     */
    struct EndpointMetrics
    {
        obs::Counter *connects = nullptr;
        obs::Counter *connect_failures = nullptr;
        obs::Counter *retries = nullptr;
    };
    std::vector<EndpointMetrics> endpoint_metrics_;

    /**
     * Latched per-socket failure flags: once a socket exhausts its
     * retries it is not attempted again for the client's lifetime, so
     * a killed server degrades to local evaluation instead of paying
     * the full retry schedule on every remaining chunk.
     */
    std::vector<std::atomic<bool>> socket_dead_;

    /** Idle connections per endpoint, at most max_connections each. */
    std::mutex pool_mutex_;
    std::vector<std::vector<FdGuard>> idle_;

    /** Guards batches_, stopping_, threads_ and every Batch. */
    std::mutex dispatch_mutex_;
    std::condition_variable work_cv_; //!< a batch was queued, or stop
    std::condition_variable done_cv_; //!< some batch finished
    /** Batches with unclaimed chunks, oldest first. */
    std::deque<Batch *> batches_;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace ppm::serve

#endif // PPM_SERVE_SHARDED_CLIENT_HH
