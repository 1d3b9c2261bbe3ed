/**
 * @file
 * Connection reuse on the serve plane. The client keeps idle
 * connections per endpoint and runs chunks on its own long-lived
 * dispatch threads; the server waits for frames on one epoll set, so
 * an idle connection occupies no worker. Pinned here: an idle
 * connection does not block a 1-worker server; repeated calls reuse
 * one connection (or at most max_connections); a server restarted on
 * the same path is reconnected to inside the same attempt (no retry,
 * no dead latch, same bits); stop() returns promptly with pooled
 * connections open; concurrent callers of one client get the same
 * bits; forEachChunk runs every chunk once under the caller's trace
 * context and rethrows a chunk's exception; and a failing accept
 * (EMFILE) does not spin.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "rbf/network.hh"
#include "serve/model_snapshot.hh"
#include "serve/predict_oracle.hh"
#include "serve/protocol.hh"
#include "serve/sharded_client.hh"
#include "serve/sim_server.hh"
#include "serve/socket_io.hh"

namespace {

using namespace ppm;
using Clock = std::chrono::steady_clock;

std::string
uniquePath(const std::string &tag, const std::string &ext)
{
    return (std::filesystem::temp_directory_path() /
            ("ppm_pool_" + std::to_string(::getpid()) + "_" + tag + ext))
        .string();
}

/** A deterministic hand-built snapshot over the paper space. */
serve::ModelSnapshot
buildSnapshot()
{
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    math::Rng rng(404);
    std::vector<rbf::GaussianBasis> bases;
    std::vector<double> weights;
    for (int b = 0; b < 8; ++b) {
        dspace::UnitPoint center(space.size());
        std::vector<double> radius(space.size());
        for (std::size_t d = 0; d < space.size(); ++d) {
            center[d] = rng.uniform();
            radius[d] = 0.2 + rng.uniform();
        }
        bases.emplace_back(std::move(center), std::move(radius));
        weights.push_back(rng.uniform() * 4 - 2);
    }
    serve::ModelSnapshot snap;
    snap.model_version = 1;
    snap.benchmark = "twolf";
    snap.trace_length = 100000;
    snap.train_points = 30;
    snap.p_min = 2;
    snap.alpha = 1.5;
    snap.space = space;
    snap.network = rbf::RbfNetwork(std::move(bases), std::move(weights));
    return snap;
}

std::vector<dspace::DesignPoint>
queryBatch(int n, std::uint64_t seed)
{
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    math::Rng rng(seed);
    std::vector<dspace::DesignPoint> points;
    for (int i = 0; i < n; ++i)
        points.push_back(space.randomPoint(rng));
    return points;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::uint64_t
counterValue(const std::string &name)
{
    return obs::Registry::instance().counter(name).value();
}

/** A PREDICT server hosting buildSnapshot() on a fresh Unix path. */
struct PredictServer
{
    serve::ModelSnapshot snap = buildSnapshot();
    std::string snapshot_path;
    std::string socket;
    std::unique_ptr<serve::SimServer> server;

    PredictServer(const std::string &tag, unsigned workers,
                  int io_timeout_ms = 120'000)
        : snapshot_path(uniquePath(tag, ".ppmm")),
          socket(uniquePath(tag, ".sock"))
    {
        serve::saveSnapshot(snap, snapshot_path);
        start(workers, io_timeout_ms);
    }

    ~PredictServer()
    {
        server.reset();
        ::unlink(snapshot_path.c_str());
    }

    void
    start(unsigned workers, int io_timeout_ms = 120'000)
    {
        serve::ServerOptions opts;
        opts.socket_path = socket;
        opts.num_workers = workers;
        opts.io_timeout_ms = io_timeout_ms;
        opts.predict_snapshot = snapshot_path;
        server = std::make_unique<serve::SimServer>(opts);
        server->start();
    }

    serve::RemoteOptions
    remote(std::size_t chunk_points, unsigned max_connections) const
    {
        serve::RemoteOptions opts;
        opts.sockets = {socket};
        opts.connect_timeout_ms = 1000;
        opts.io_timeout_ms = 30'000;
        opts.max_attempts = 2;
        opts.backoff_initial_ms = 1;
        opts.backoff_max_ms = 10;
        opts.chunk_points = chunk_points;
        opts.max_connections = max_connections;
        return opts;
    }

    std::string
    connectsCounter() const
    {
        return "remote.ep." + socket + ".connects";
    }
};

TEST(ServePool, IdleConnectionDoesNotPinAWorker)
{
    // One worker, and a raw connection that never sends a frame. A
    // server whose worker sat in readFrame on it would leave the
    // oracle's connection in the backlog for the whole 5 s read
    // timeout.
    PredictServer ps("idle", 1, 5000);
    const serve::FdGuard idle = serve::connectUnix(ps.socket, 1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    serve::PredictOracle oracle(ps.snap, ps.remote(8, 1));
    const auto batch = queryBatch(8, 1);
    const Clock::time_point start = Clock::now();
    const std::vector<double> got = oracle.evaluateAll(batch);
    const auto elapsed = Clock::now() - start;

    EXPECT_LT(elapsed, std::chrono::seconds(1));
    EXPECT_TRUE(sameBits(got, serve::predictWithSnapshot(ps.snap, batch)));
    EXPECT_EQ(oracle.remotePoints(), batch.size());
}

TEST(ServePool, OnePointCallsReuseOneConnection)
{
    PredictServer ps("point", 2);
    serve::PredictOracle oracle(ps.snap, ps.remote(8, 4));
    const auto batch = queryBatch(200, 2);
    const std::uint64_t connects0 = counterValue(ps.connectsCounter());
    for (const dspace::DesignPoint &point : batch)
        ASSERT_TRUE(sameBits({oracle.cpi(point)},
                             serve::predictWithSnapshot(ps.snap, {point})));
    EXPECT_EQ(counterValue(ps.connectsCounter()) - connects0, 1u);
    EXPECT_EQ(oracle.remotePoints(), batch.size());
}

TEST(ServePool, BatchCallsUseAtMostMaxConnections)
{
    PredictServer ps("batch", 2);
    serve::PredictOracle oracle(ps.snap, ps.remote(256, 4));
    const auto batch = queryBatch(1024, 3);
    const std::vector<double> want =
        serve::predictWithSnapshot(ps.snap, batch);
    const std::uint64_t connects0 = counterValue(ps.connectsCounter());
    for (int call = 0; call < 50; ++call)
        ASSERT_TRUE(sameBits(oracle.evaluateAll(batch), want))
            << "call " << call;
    const std::uint64_t connects =
        counterValue(ps.connectsCounter()) - connects0;
    EXPECT_GE(connects, 1u);
    EXPECT_LE(connects, 4u);
    EXPECT_EQ(oracle.fallbackPoints(), 0u);

    // Between calls the pooled connections are open but idle: no
    // worker stays busy on them (a worker counts itself idle just
    // after its reply is written, so allow it that moment).
    auto &reg = obs::Registry::instance();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(1);
    while (reg.gauge("serve.busy_workers").value() != 0 &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(reg.gauge("serve.busy_workers").value(), 0);
    EXPECT_GE(reg.gauge("serve.active_connections").value(), 1);
}

TEST(ServePool, RestartOnTheSamePathReconnectsWithinTheAttempt)
{
    PredictServer ps("restart", 2);
    serve::PredictOracle oracle(ps.snap, ps.remote(4, 2));
    const auto batch = queryBatch(33, 4);
    const std::vector<double> want =
        serve::predictWithSnapshot(ps.snap, batch);
    ASSERT_TRUE(sameBits(oracle.evaluateAll(batch), want));
    ASSERT_EQ(oracle.remotePoints(), batch.size());

    // The restart closes every pooled connection on the server side.
    ps.server->stop();
    ps.start(2);
    const std::uint64_t retries0 = counterValue("remote.retries");
    const std::uint64_t latches0 = counterValue("remote.dead_latches");
    EXPECT_TRUE(sameBits(oracle.evaluateAll(batch), want));
    EXPECT_EQ(oracle.remotePoints(), 2 * batch.size());
    EXPECT_EQ(oracle.fallbackPoints(), 0u);
    EXPECT_EQ(counterValue("remote.retries"), retries0);
    EXPECT_EQ(counterValue("remote.dead_latches"), latches0);
}

TEST(ServePool, StopWithIdlePooledConnectionsReturnsPromptly)
{
    PredictServer ps("stop", 2, 5000);
    serve::PredictOracle oracle(ps.snap, ps.remote(256, 4));
    const auto batch = queryBatch(1024, 5);
    ASSERT_TRUE(sameBits(oracle.evaluateAll(batch),
                         serve::predictWithSnapshot(ps.snap, batch)));

    const Clock::time_point start = Clock::now();
    ps.server->stop();
    EXPECT_LT(Clock::now() - start, std::chrono::seconds(1));
}

TEST(ServePool, ConcurrentCallersShareOneClient)
{
    PredictServer ps("concurrent", 2);
    serve::PredictOracle oracle(ps.snap, ps.remote(16, 4));
    constexpr int kThreads = 4;
    constexpr int kCalls = 20;
    std::vector<std::vector<dspace::DesignPoint>> batches;
    std::vector<std::vector<double>> wants;
    std::size_t total = 0;
    for (int t = 0; t < kThreads; ++t) {
        batches.push_back(queryBatch(40 + 17 * t, 10 + t));
        wants.push_back(serve::predictWithSnapshot(ps.snap, batches[t]));
        total += kCalls * batches[t].size();
    }
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int call = 0; call < kCalls; ++call)
                if (!sameBits(oracle.evaluateAll(batches[t]), wants[t]))
                    mismatches.fetch_add(1);
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(oracle.remotePoints(), total);
    EXPECT_EQ(oracle.fallbackPoints(), 0u);
}

TEST(ServePool, ForEachChunkRunsEveryChunkOnceUnderTheCallersTrace)
{
    // The endpoint is never contacted: forEachChunk only needs one
    // to dispatch across threads.
    serve::RemoteOptions opts;
    opts.sockets = {uniquePath("never", ".sock")};
    opts.max_connections = 4;
    serve::ShardedClient client(opts);

    obs::TraceContext ctx;
    ctx.trace_hi = 0x1234;
    ctx.trace_lo = 0x5678;
    ctx.parent_span_id = 0x9ABC;
    ctx.flags = obs::kTraceFlagSampled;
    const obs::ScopedTraceContext scope(ctx);

    for (int call = 0; call < 20; ++call) {
        constexpr std::size_t kChunks = 37;
        std::vector<std::atomic<int>> runs(kChunks);
        std::atomic<int> wrong_trace{0};
        client.forEachChunk(kChunks, [&](std::size_t c) {
            runs[c].fetch_add(1);
            const obs::TraceContext seen = obs::currentTraceContext();
            if (seen.trace_hi != ctx.trace_hi ||
                seen.trace_lo != ctx.trace_lo)
                wrong_trace.fetch_add(1);
        });
        for (std::size_t c = 0; c < kChunks; ++c)
            ASSERT_EQ(runs[c].load(), 1) << "chunk " << c;
        EXPECT_EQ(wrong_trace.load(), 0);
    }

    // A throwing chunk: the rest still run, then the error surfaces.
    std::vector<std::atomic<int>> runs(9);
    EXPECT_THROW(client.forEachChunk(9,
                                     [&](std::size_t c) {
                                         runs[c].fetch_add(1);
                                         if (c == 3)
                                             throw std::runtime_error(
                                                 "chunk 3");
                                     }),
                 std::runtime_error);
    for (std::size_t c = 0; c < runs.size(); ++c)
        EXPECT_EQ(runs[c].load(), 1) << "chunk " << c;
}

TEST(ServePool, FailedAcceptDoesNotSpin)
{
    PredictServer ps("emfile", 1);
    // Create the client socket first: once the descriptor limit is
    // lowered, only connect() (which allocates none) still works.
    serve::FdGuard client(
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
    ASSERT_TRUE(client.valid());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ps.socket.c_str(),
                 sizeof(addr.sun_path) - 1);

    // The lowest free descriptor becomes the limit: every new one
    // fails with EMFILE, the server's accept4 included.
    const int probe = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ASSERT_GE(probe, 0);
    ::close(probe);
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(probe);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

    const auto cpuSeconds = [] {
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    };
    ASSERT_EQ(::connect(client.get(),
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const double cpu0 = cpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const double cpu = cpuSeconds() - cpu0;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    // A worker re-arming the listener at once would burn ~0.4 s.
    EXPECT_LT(cpu, 0.15);

    // With descriptors back, the queued connection is served.
    serve::writeFrame(client.get(), serve::encodePing(77), 5000);
    const serve::Frame reply = serve::readFrame(client.get(), 5000);
    ASSERT_EQ(reply.type, serve::MsgType::Pong);
    EXPECT_EQ(serve::parsePong(reply.payload), 77u);
}

} // namespace
