/**
 * @file
 * SimServer: the process-level sharding backend. Listens on a
 * Unix-domain socket or a TCP endpoint (see transport.hh for the
 * spec grammar), keeps one record per simulation context (benchmark,
 * trace length, warmup) holding the context's trace and one memoizing
 * SimulatorOracle per Metric, and services EvalRequest batches from a
 * pool of worker threads. Every worker waits in epoll_wait on one
 * shared set holding the listener and every open connection, each
 * armed one-shot: a worker takes one readable connection, serves one
 * frame and re-arms it. So num_workers frames are served
 * concurrently, one connection's frames are served in order, and an
 * idle connection (a client's pooled one) occupies no worker. Each
 * oracle additionally fans its batch across the process-wide thread
 * pool.
 *
 * Gauges: serve.active_connections counts open connections, idle ones
 * included; serve.busy_workers counts workers serving a frame, the
 * queue-depth proxy ppm_stats shows.
 *
 * Clients shard batches across one or more servers (one ppm_serve
 * process per socket) with RemoteOracle; results are bit-identical to
 * local evaluation because the cycle-level simulator is deterministic
 * in (trace, config, options) and traces are regenerated from the
 * benchmark profile on the server side.
 *
 * With ServerOptions::archive_dir set, a simulation context opens the
 * ResultArchive of each of its three metrics, and every simulation
 * writes all three values through to them before answering. So
 * simulations survive server restarts, a SIGKILL included, and are
 * shared between servers pointed at the same directory.
 *
 * The same server is also the prediction plane: with
 * ServerOptions::predict_snapshot and/or model_dir set it hosts a
 * trained model snapshot (see model_snapshot.hh) behind a
 * hot-swappable ModelHost and answers PREDICT / MODEL frames — batch
 * predictions with a model-version echo, snapshot metadata queries,
 * and snapshot pushes that swap the model with zero downtime.
 */

#ifndef PPM_SERVE_SIM_SERVER_HH
#define PPM_SERVE_SIM_SERVER_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hh"
#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "serve/drift_monitor.hh"
#include "serve/model_host.hh"
#include "serve/protocol.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"
#include "trace/trace.hh"

namespace ppm::serve {

struct ServerOptions
{
    /**
     * Endpoint to listen on: a Unix-domain socket path or a TCP
     * "host:port" spec (port 0 = kernel-assigned; read the bound
     * endpoint back with endpointSpec()). Required.
     */
    std::string socket_path;
    /** Concurrent request-serving workers (>= 1). */
    unsigned num_workers = 1;
    /**
     * Directory for per-context ResultArchive files; empty disables
     * persistence. Created if absent.
     */
    std::string archive_dir;
    /**
     * Bound on reading one frame once it is readable, and on writing
     * one reply. An idle connection has no timeout: it stays open
     * until its client closes it or the server stops.
     */
    int io_timeout_ms = 120'000;
    /** Reject requests asking for traces longer than this. */
    std::uint64_t max_trace_length = 50'000'000;
    /**
     * Model snapshot to serve PREDICT queries from; empty = no model
     * preloaded (one may still arrive via ModelPush or model_dir).
     * start() throws SnapshotError when the file does not decode.
     */
    std::string predict_snapshot;
    /**
     * Directory watched for "*.ppmm" snapshots; any new or changed
     * file carrying a greater model_version is hot-swapped in. Empty
     * disables the watcher.
     */
    std::string model_dir;
    /** Poll interval of the model_dir watcher. */
    int model_poll_ms = 200;
    /**
     * Memory budget of the server's shared result cache in MiB;
     * 0 = PPM_CACHE_MB (or its built-in default). All the server's
     * oracles memoize through this one table, so the metric oracles
     * of one simulation context share each other's simulations.
     */
    std::size_t cache_mb = 0;
    /**
     * Model-drift monitoring of served PREDICT queries (off unless
     * drift.sample_every > 0); see drift_monitor.hh.
     */
    DriftOptions drift;
};

class SimServer
{
  public:
    explicit SimServer(ServerOptions options);

    /** Stops the server if still running. */
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /**
     * Bind the socket and spawn the worker pool. Returns once the
     * server accepts connections.
     * @throws IoError when the socket cannot be created.
     */
    void start();

    /**
     * Shut down: stop accepting, sever in-flight connections, join
     * all workers, close idle connections, unlink the socket path.
     * Idempotent.
     */
    void stop();

    bool running() const { return started_; }

    /**
     * The endpoint actually bound, valid after start(). For a TCP
     * spec with port 0 this carries the kernel-assigned port, so it
     * is the string clients should connect to.
     */
    std::string endpointSpec() const { return endpoint_.display(); }

    /** EvalRequests answered (successfully) so far. */
    std::uint64_t
    requestsServed() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    /** Fresh simulations executed across all oracles. */
    std::uint64_t totalEvaluations() const;

    /** Active model version (0 = no model hosted). */
    std::uint64_t modelVersion() const { return model_host_.version(); }

    /** Times the hosted model was hot-swapped (first load excluded). */
    std::uint64_t modelSwaps() const { return model_host_.swaps(); }

    /** The hot-swappable model slot (tests install models directly). */
    ModelHost &modelHost() { return model_host_; }

    /** The shared result cache every oracle memoizes through. */
    const cache::ResultCache &resultCache() const { return *cache_; }

    /** The PREDICT shadow-sampling drift monitor (tests inspect it). */
    const DriftMonitor &driftMonitor() const { return drift_; }

  private:
    /**
     * One simulation context, created whole on its first EvalRequest:
     * the trace, the cache context id its oracles share, and one
     * oracle per Metric (indexed by core::metricIndex), each writing
     * every metric through to the context's three archives.
     */
    struct SimContext
    {
        trace::Trace trace;
        std::int64_t id = 0;
        std::array<std::unique_ptr<core::SimulatorOracle>,
                   core::kMetrics.size()>
            oracles;
    };

    SimContext &contextFor(const EvalRequest &req);
    /** The context named @p sim_key; nullptr before its first EVAL. */
    const SimContext *findContext(const std::string &sim_key) const;
    void workerLoop();
    /** Accept one connection into the epoll set; re-arm the listener. */
    void acceptConnection();
    /**
     * Read one frame from @p fd, serve it and write the reply.
     * @return false when the connection is to be closed.
     */
    bool serveFrame(int fd);
    /** Re-arm @p fd for its next frame, or close it (!keep). */
    void releaseConnection(int fd, bool keep);
    std::vector<std::uint8_t> handleRequest(const Frame &frame);
    std::vector<std::uint8_t> handlePredict(const Frame &frame);
    std::vector<std::uint8_t> handleModelInfo(const Frame &frame);
    std::vector<std::uint8_t> handleModelPush(const Frame &frame);
    std::vector<std::uint8_t> handleTrace(const Frame &frame);

    ServerOptions options_;
    dspace::DesignSpace space_;
    Endpoint endpoint_;
    /** How long a failed accept (EMFILE, ENFILE) pauses the listener. */
    static constexpr int kAcceptRetryMs = 50;

    FdGuard listen_fd_;
    /** Every worker waits here: listener, stop pipe, connections. */
    FdGuard epoll_fd_;
    int stop_pipe_[2] = {-1, -1};
    std::vector<std::thread> workers_;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    /** Keyed by ResultArchive::contextFor(benchmark, length, warmup). */
    mutable std::mutex contexts_mutex_;
    std::map<std::string, std::unique_ptr<SimContext>> contexts_;
    /** One table for every oracle; see SimContext. */
    std::shared_ptr<cache::ResultCache> cache_;

    /** Open connections, idle or being served. */
    std::mutex conns_mutex_;
    std::set<int> conns_;

    std::atomic<std::uint64_t> requests_{0};
    ModelHost model_host_;
    DriftMonitor drift_;
};

} // namespace ppm::serve

#endif // PPM_SERVE_SIM_SERVER_HH
