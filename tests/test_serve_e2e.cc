/**
 * @file
 * End-to-end service suite: the mcf pipeline (LHS sample -> batched
 * simulation -> RBF fit -> prediction) is bit-identical whether the
 * oracle is a local SimulatorOracle, a RemoteOracle against a 1-worker
 * SimServer, or a RemoteOracle against a 4-worker SimServer; an
 * unreachable server degrades transparently to local evaluation; a
 * server SIGKILLed mid-batch is retried and the batch still completes
 * with correct values; a restarted server warm-starts from its
 * ResultArchive with zero new simulations; and a simulation's sibling
 * metrics reach their archives, whether the server stops cleanly or
 * is SIGKILLed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/adaptive.hh"
#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "obs/metrics.hh"
#include "rbf/trainer.hh"
#include "sampling/sample_gen.hh"
#include "serve/oracle_factory.hh"
#include "serve/protocol.hh"
#include "serve/remote_oracle.hh"
#include "serve/result_archive.hh"
#include "serve/sim_server.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"

extern char **environ;

namespace {

namespace fs = std::filesystem;
using namespace ppm;

constexpr std::size_t kTraceLen = 12000;
constexpr std::uint64_t kWarmup = 2000;
constexpr int kSampleSize = 20;

std::string
uniqueSocket(const std::string &tag)
{
    return "/tmp/ppm_e2e_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

sim::SimOptions
simOptions()
{
    sim::SimOptions opts;
    opts.warmup_instructions = kWarmup;
    return opts;
}

serve::ServerOptions
serverOptions(const std::string &sock, unsigned workers,
              std::string archive_dir = {})
{
    serve::ServerOptions opts;
    opts.socket_path = sock;
    opts.num_workers = workers;
    opts.archive_dir = std::move(archive_dir);
    return opts;
}

/** Shared mcf inputs: one trace, one LHS batch, for every test. */
struct Scenario
{
    dspace::DesignSpace space = dspace::paperTrainSpace();
    trace::Trace trace;
    std::vector<dspace::DesignPoint> batch;

    Scenario()
        : trace(trace::generateTrace(trace::profileByName("mcf"),
                                     kTraceLen))
    {
        math::Rng rng(42);
        batch = sampling::bestLatinHypercube(space, kSampleSize, 4,
                                             rng)
                    .points;
    }
};

Scenario &
scenario()
{
    static Scenario s;
    return s;
}

/** Everything downstream of the oracle that must be bit-identical. */
struct PipelineArtifacts
{
    std::vector<double> responses;
    std::vector<double> predictions;
};

PipelineArtifacts
runPipeline(core::CpiOracle &oracle)
{
    Scenario &s = scenario();
    PipelineArtifacts out;
    out.responses = oracle.evaluateAll(s.batch);

    rbf::TrainerOptions trainer;
    trainer.p_min_grid = {1, 2};
    trainer.alpha_grid = {4, 8};
    const auto unit = sampling::toUnitSample(s.space, s.batch);
    const auto trained =
        rbf::trainRbfModel(unit, out.responses, trainer);

    math::Rng probe(7);
    for (int i = 0; i < 16; ++i)
        out.predictions.push_back(trained.network.predict(
            s.space.toUnit(s.space.randomPoint(probe))));
    return out;
}

/** Local ground truth, simulated once and shared across tests. */
const PipelineArtifacts &
localReference()
{
    static const PipelineArtifacts ref = [] {
        Scenario &s = scenario();
        core::SimulatorOracle oracle(s.space, s.trace, simOptions());
        return runPipeline(oracle);
    }();
    return ref;
}

serve::RemoteOptions
fastRemote(std::vector<std::string> sockets)
{
    serve::RemoteOptions opts;
    opts.sockets = std::move(sockets);
    opts.connect_timeout_ms = 1000;
    opts.io_timeout_ms = 60'000;
    opts.max_attempts = 2;
    opts.backoff_initial_ms = 1;
    opts.backoff_max_ms = 10;
    opts.chunk_points = 4;
    opts.max_connections = 2;
    return opts;
}

TEST(ServeE2E, RemoteOneWorkerBitIdenticalToLocal)
{
    Scenario &s = scenario();
    const std::string sock = uniqueSocket("w1");
    serve::SimServer server(serverOptions(sock, 1));
    server.start();

    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi,
                               fastRemote({sock}));
    const PipelineArtifacts got = runPipeline(remote);
    EXPECT_EQ(got.responses, localReference().responses);
    EXPECT_EQ(got.predictions, localReference().predictions);

    // Every point was answered by the server, none locally.
    EXPECT_EQ(remote.remotePoints(), s.batch.size());
    EXPECT_EQ(remote.fallbackPoints(), 0u);
    EXPECT_EQ(server.totalEvaluations(), s.batch.size());
    server.stop();
}

TEST(ServeE2E, RemoteFourWorkersBitIdenticalToLocal)
{
    Scenario &s = scenario();
    const std::string sock = uniqueSocket("w4");
    serve::SimServer server(serverOptions(sock, 4));
    server.start();

    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi,
                               fastRemote({sock}));
    const PipelineArtifacts got = runPipeline(remote);
    EXPECT_EQ(got.responses, localReference().responses);
    EXPECT_EQ(got.predictions, localReference().predictions);
    EXPECT_EQ(remote.remotePoints(), s.batch.size());
    EXPECT_EQ(remote.fallbackPoints(), 0u);
    server.stop();
}

TEST(ServeE2E, UnreachableServerFallsBackTransparently)
{
    Scenario &s = scenario();
    serve::RemoteOptions opts =
        fastRemote({uniqueSocket("nobody-listens")});
    opts.connect_timeout_ms = 100;
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi, opts);

    const PipelineArtifacts got = runPipeline(remote);
    EXPECT_EQ(got.responses, localReference().responses);
    EXPECT_EQ(got.predictions, localReference().predictions);
    EXPECT_EQ(remote.remotePoints(), 0u);
    EXPECT_EQ(remote.fallbackPoints(), s.batch.size());
    EXPECT_EQ(remote.evaluations(), s.batch.size());
}

TEST(ServeE2E, PingPongAgainstLiveServer)
{
    const std::string sock = uniqueSocket("ping");
    serve::SimServer server(serverOptions(sock, 1));
    server.start();

    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodePing(0xABCDEF), 1000);
    const serve::Frame reply = serve::readFrame(conn.get(), 1000);
    ASSERT_EQ(reply.type, serve::MsgType::Pong);
    EXPECT_EQ(serve::parsePong(reply.payload), 0xABCDEFu);
    server.stop();
}

/**
 * Spawn the real ppm_serve binary on @p sock, with two workers and
 * @p extra_args, so there is a process to kill; wait until it answers
 * a Ping. Returns its pid, or -1 when it never came up.
 */
pid_t
spawnServer(const std::string &sock,
            const std::vector<std::string> &extra_args = {})
{
    std::vector<std::string> args = {PPM_SERVE_BIN, "--socket", sock,
                                     "--workers", "2"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    if (::posix_spawn(&pid, PPM_SERVE_BIN, nullptr, nullptr,
                      argv.data(), environ) != 0)
        return -1;
    for (int i = 0; i < 200; ++i) {
        try {
            serve::FdGuard conn = serve::connectUnix(sock, 100);
            serve::writeFrame(conn.get(), serve::encodePing(1), 500);
            if (serve::readFrame(conn.get(), 500).type ==
                serve::MsgType::Pong)
                return pid;
        } catch (const std::exception &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
}

TEST(ServeE2E, UnknownBenchmarkGetsErrorReply)
{
    const std::string sock = uniqueSocket("err");
    serve::SimServer server(serverOptions(sock, 1));
    server.start();

    serve::EvalRequest req;
    req.benchmark = "no-such-benchmark";
    req.trace_length = 1000;
    req.points = {scenario().batch.front()};
    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodeEvalRequest(req),
                      1000);
    const serve::Frame reply = serve::readFrame(conn.get(), 30'000);
    EXPECT_EQ(reply.type, serve::MsgType::Error);
    server.stop();
}

TEST(ServeE2E, RequestOnceTypesErrorAndWrongReplies)
{
    // The one-shot exchange behind ppm_stats, ppm_trace, ppm_trainer
    // and ppm_publish: the expected reply comes back, an Error reply
    // raises ProtocolError with the server's message, and so does a
    // reply of any other type.
    const std::string sock = uniqueSocket("once");
    serve::SimServer server(serverOptions(sock, 1));
    server.start();
    const obs::Counter &error_replies =
        obs::Registry::instance().counter("slo.errors.replies");
    [[maybe_unused]] const std::uint64_t errors_before =
        error_replies.value();
    const serve::Frame pong = serve::requestOnce(
        sock, serve::encodePing(7), serve::MsgType::Pong, 1000);
    EXPECT_EQ(serve::parsePong(pong.payload), 7u);

    serve::PredictRequest req;
    req.points = {scenario().batch.front()};
    try {
        (void)serve::requestOnce(sock, serve::encodePredictRequest(req),
                                 serve::MsgType::PredictResponse, 1000);
        ADD_FAILURE() << "an Error reply was accepted";
    } catch (const serve::ProtocolError &e) {
        EXPECT_NE(std::string(e.what()).find("no model loaded"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW((void)serve::requestOnce(sock, serve::encodePing(7),
                                          serve::MsgType::StatsResponse,
                                          1000),
                 serve::ProtocolError);
#ifndef PPM_OBS_DISABLED
    // The server counts the one Error reply it sent.
    EXPECT_EQ(error_replies.value() - errors_before, 1u);
#endif
    server.stop();
    EXPECT_THROW((void)serve::requestOnce(sock, serve::encodePing(7),
                                          serve::MsgType::Pong, 1000),
                 serve::IoError);
}

TEST(ServeE2E, ServerKilledMidBatchIsRetriedAndCompletes)
{
    Scenario &s = scenario();
    const std::string sock = uniqueSocket("kill");
    fs::remove(sock);

    const pid_t pid = spawnServer(sock);
    ASSERT_NE(pid, -1) << "ppm_serve never came up on " << sock;

    serve::RemoteOptions opts = fastRemote({sock});
    opts.chunk_points = 2;     // many small chunks...
    opts.max_connections = 1;  // ...served strictly one at a time
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi, opts);

    // Kill the server as soon as the first chunk has been served, so
    // the batch is genuinely mid-flight when the backend vanishes.
    std::atomic<bool> done{false};
    std::thread killer([&] {
        while (!done.load() && remote.remoteChunksServed() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ::kill(pid, SIGKILL);
    });

    const auto responses = remote.evaluateAll(s.batch);
    done.store(true);
    killer.join();
    int status = 0;
    ::waitpid(pid, &status, 0);
    fs::remove(sock);

    // The batch completed with values identical to local simulation:
    // failed chunks were retried and then served by the fallback.
    EXPECT_EQ(responses, localReference().responses);
    EXPECT_GE(remote.remoteChunksServed(), 1u);
    EXPECT_EQ(remote.remotePoints() + remote.fallbackPoints(),
              s.batch.size());
}

TEST(ServeE2E, RestartedServerWarmStartsFromArchive)
{
    Scenario &s = scenario();
    const fs::path dir =
        fs::temp_directory_path() /
        ("ppm_e2e_archive_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const std::string sock = uniqueSocket("warm");

    serve::RemoteOptions opts = fastRemote({sock});
    opts.chunk_points = s.batch.size(); // whole batch in one request

    std::vector<double> first;
    {
        serve::SimServer server(
            serverOptions(sock, 2, dir.string()));
        server.start();
        serve::RemoteOracle remote(s.space, "mcf", s.trace,
                                   simOptions(), core::Metric::Cpi,
                                   opts);
        first = remote.evaluateAll(s.batch);
        EXPECT_EQ(server.totalEvaluations(), s.batch.size());
        EXPECT_EQ(remote.evaluations(), s.batch.size());
        server.stop();
    }

    // Same socket, same archive directory, fresh process state: the
    // second server must answer the whole batch from the archive.
    {
        serve::SimServer server(
            serverOptions(sock, 2, dir.string()));
        server.start();
        serve::RemoteOracle remote(s.space, "mcf", s.trace,
                                   simOptions(), core::Metric::Cpi,
                                   opts);
        const auto second = remote.evaluateAll(s.batch);
        EXPECT_EQ(second, first);
        EXPECT_EQ(server.totalEvaluations(), 0u)
            << "restarted server re-simulated archived results";
        EXPECT_EQ(remote.evaluations(), 0u);
        server.stop();
    }
    fs::remove_all(dir);
}

/** One EVAL request for mcf at the scenario's trace settings. */
serve::EvalResponse
evalOnce(const std::string &sock, core::Metric metric,
         const std::vector<dspace::DesignPoint> &points)
{
    serve::EvalRequest req;
    req.benchmark = "mcf";
    req.metric = metric;
    req.trace_length = kTraceLen;
    req.warmup = kWarmup;
    req.points = points;
    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodeEvalRequest(req), 60'000);
    const serve::Frame reply = serve::readFrame(conn.get(), 60'000);
    EXPECT_EQ(reply.type, serve::MsgType::EvalResponse);
    return serve::parseEvalResponse(reply.payload);
}

/**
 * A CPI simulation also prices the point's EPI and ED2P values and
 * writes them to their archives, so a restarted server answers EPI at
 * those points without simulating.
 */
TEST(ServeE2E, StopFlushesSiblingMetricsToTheirArchive)
{
    Scenario &s = scenario();
    const fs::path dir =
        fs::temp_directory_path() /
        ("ppm_e2e_flush_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const std::string sock = uniqueSocket("flush");
    const std::vector<dspace::DesignPoint> p(s.batch.begin(),
                                             s.batch.begin() + 6);
    const std::vector<dspace::DesignPoint> q(s.batch.begin() + 6,
                                             s.batch.begin() + 8);
    {
        serve::SimServer server(serverOptions(sock, 2, dir.string()));
        server.start();
        EXPECT_EQ(evalOnce(sock, core::Metric::Cpi, p).fresh_evaluations,
                  p.size());
        // Simulates Q for EPI; P's EPI values are already archived.
        EXPECT_EQ(evalOnce(sock, core::Metric::EnergyPerInst, q)
                      .fresh_evaluations,
                  q.size());
        server.stop();
    }
    {
        serve::SimServer server(serverOptions(sock, 2, dir.string()));
        server.start();
        const serve::EvalResponse epi =
            evalOnce(sock, core::Metric::EnergyPerInst, p);
        EXPECT_EQ(epi.fresh_evaluations, 0u)
            << "EPI values priced by the CPI run died with the server";
        core::SimulatorOracle local(s.space, s.trace, simOptions(),
                                    core::Metric::EnergyPerInst);
        EXPECT_EQ(epi.values, local.evaluateAll(p));
        server.stop();
    }
    fs::remove_all(dir);
}

/**
 * Every simulation writes all three metrics through to their archives
 * before the server answers, so a SIGKILL right after a CPI request
 * loses none of them: a restarted server answers EPI and ED2P at the
 * same points without simulating.
 */
TEST(ServeE2E, SigkilledServerKeepsSiblingMetrics)
{
    Scenario &s = scenario();
    const fs::path dir =
        fs::temp_directory_path() /
        ("ppm_e2e_sigkill_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const std::string sock = uniqueSocket("sigkill");
    fs::remove(sock);
    const std::vector<dspace::DesignPoint> p(s.batch.begin(),
                                             s.batch.begin() + 6);

    const pid_t pid = spawnServer(sock, {"--archive-dir", dir.string()});
    ASSERT_NE(pid, -1) << "ppm_serve never came up on " << sock;
    EXPECT_EQ(evalOnce(sock, core::Metric::Cpi, p).fresh_evaluations,
              p.size());
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    fs::remove(sock);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    serve::SimServer server(serverOptions(sock, 2, dir.string()));
    server.start();
    for (const core::Metric metric :
         {core::Metric::EnergyPerInst, core::Metric::EnergyDelaySquared}) {
        const serve::EvalResponse resp = evalOnce(sock, metric, p);
        EXPECT_EQ(resp.fresh_evaluations, 0u)
            << core::metricName(metric)
            << " values priced by the CPI run died with the server";
        core::SimulatorOracle local(s.space, s.trace, simOptions(),
                                    metric);
        EXPECT_EQ(resp.values, local.evaluateAll(p))
            << core::metricName(metric);
    }
    EXPECT_EQ(server.totalEvaluations(), 0u);
    server.stop();
    fs::remove_all(dir);
}

TEST(ServeE2E, AdaptiveBatchesBitIdenticalAcrossShardCounts)
{
    // The determinantal infill loop dispatches each batch through one
    // evaluateAll() call; the trajectory — seed sample, every picked
    // batch, every refit error — must be bit-identical whether that
    // call is served locally (0 shards) or sharded across two server
    // processes.
    Scenario &s = scenario();
    core::AdaptiveOptions opts;
    opts.initial_size = 10;
    opts.batch_size = 4;
    opts.max_samples = 18;
    opts.target_mean_error = 0.0;
    opts.candidate_pool = 60;
    opts.num_test_points = 5;
    opts.lhs_candidates = 3;
    opts.trainer.p_min_grid = {2};
    opts.trainer.alpha_grid = {4};

    auto runWith = [&](core::CpiOracle &oracle) {
        core::AdaptiveSampler sampler(s.space, s.space, oracle);
        return sampler.build(opts);
    };

    core::SimulatorOracle local(s.space, s.trace, simOptions());
    const auto reference = runWith(local);
    ASSERT_GE(reference.history.size(), 3u);

    const std::string sock_a = uniqueSocket("adapt0");
    const std::string sock_b = uniqueSocket("adapt1");
    serve::SimServer server_a(serverOptions(sock_a, 1));
    serve::SimServer server_b(serverOptions(sock_b, 1));
    server_a.start();
    server_b.start();
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi,
                               fastRemote({sock_a, sock_b}));
    const auto sharded = runWith(remote);
    server_a.stop();
    server_b.stop();

    EXPECT_EQ(sharded.sample, reference.sample);
    ASSERT_EQ(sharded.history.size(), reference.history.size());
    for (std::size_t i = 0; i < sharded.history.size(); ++i)
        EXPECT_EQ(sharded.history[i].error.mean_error,
                  reference.history[i].error.mean_error);
    EXPECT_GT(remote.remotePoints(), 0u);
}

TEST(ServeE2E, StatsFramePollsLiveServer)
{
    Scenario &s = scenario();
    const std::string sock = uniqueSocket("stats");
    serve::SimServer server(serverOptions(sock, 2));
    server.start();

    // Drive one real batch so the registry has something to report.
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi, fastRemote({sock}));
    (void)remote.evaluateAll(s.batch);

    serve::FdGuard conn = serve::connectUnix(sock, 1000);
    serve::writeFrame(conn.get(), serve::encodeStatsRequest(99),
                      1000);
    const serve::Frame reply = serve::readFrame(conn.get(), 5000);
    ASSERT_EQ(reply.type, serve::MsgType::StatsResponse);
    const obs::Snapshot snap =
        serve::parseStatsResponse(reply.payload);

#ifndef PPM_OBS_DISABLED
    auto counter = [&](const std::string &name) -> std::uint64_t {
        for (const auto &c : snap.counters)
            if (c.name == name)
                return c.value;
        return 0;
    };
    // The in-process server shares this test binary's registry, which
    // accumulates across tests — so lower bounds, not equalities.
    EXPECT_GE(counter("serve.requests"), 1u);
    EXPECT_GE(counter("serve.points"), s.batch.size());
    EXPECT_GE(counter("oracle.simulations"), 1u);
    bool request_span_seen = false;
    for (const auto &h : snap.histograms)
        if (h.name == "span.serve.request" && h.count > 0)
            request_span_seen = true;
    EXPECT_TRUE(request_span_seen);
#endif
    server.stop();
}

TEST(ServeE2E, PpmStatsCliPollsSpawnedServer)
{
    Scenario &s = scenario();
    const std::string sock = uniqueSocket("statscli");
    fs::remove(sock);

    const char *argv[] = {PPM_SERVE_BIN, "--socket", sock.c_str(),
                          "--workers", "1", nullptr};
    pid_t pid = -1;
    ASSERT_EQ(::posix_spawn(&pid, PPM_SERVE_BIN, nullptr, nullptr,
                            const_cast<char *const *>(argv), environ),
              0);
    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        try {
            serve::FdGuard conn = serve::connectUnix(sock, 100);
            serve::writeFrame(conn.get(), serve::encodePing(1), 500);
            up = serve::readFrame(conn.get(), 500).type ==
                 serve::MsgType::Pong;
        } catch (const std::exception &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
    }
    ASSERT_TRUE(up) << "ppm_serve never came up on " << sock;

    // One real batch, then poll the server's registry via the CLI.
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi, fastRemote({sock}));
    (void)remote.evaluateAll(s.batch);

    const std::string cmd = std::string(PPM_STATS_BIN) +
                            " --no-local --json --socket " + sock +
                            " 2>/dev/null";
    FILE *pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, got);
    const int status = ::pclose(pipe);

    ::kill(pid, SIGTERM);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    fs::remove(sock);

    EXPECT_EQ(status, 0) << output;
    ASSERT_FALSE(output.empty());
    EXPECT_EQ(output.front(), '{') << output;
#ifndef PPM_OBS_DISABLED
    EXPECT_NE(output.find("\"serve.requests\""), std::string::npos)
        << output;
    EXPECT_NE(output.find("\"oracle.simulations\""),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("span.serve.request"), std::string::npos)
        << output;
#endif
}

// --- TCP transport ----------------------------------------------------

TEST(Transport, EndpointGrammar)
{
    using serve::Endpoint;
    const Endpoint unix_ep = serve::parseEndpoint("/tmp/x.sock");
    EXPECT_EQ(unix_ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(unix_ep.path, "/tmp/x.sock");
    EXPECT_EQ(unix_ep.display(), "/tmp/x.sock");

    const Endpoint tcp = serve::parseEndpoint("127.0.0.1:7070");
    EXPECT_EQ(tcp.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp.host, "127.0.0.1");
    EXPECT_EQ(tcp.port, 7070);
    EXPECT_EQ(tcp.display(), "127.0.0.1:7070");

    const Endpoint named = serve::parseEndpoint("sim-host:0");
    EXPECT_EQ(named.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(named.host, "sim-host");
    EXPECT_EQ(named.port, 0);

    // A path containing a colon-digit suffix is still a path: the
    // '/' wins, so pre-TCP socket configs parse exactly as before.
    const Endpoint path = serve::parseEndpoint("/tmp/srv:8080");
    EXPECT_EQ(path.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(path.path, "/tmp/srv:8080");

    // A name with no port is a (relative) Unix path, not TCP.
    EXPECT_EQ(serve::parseEndpoint("localhost").kind,
              Endpoint::Kind::Unix);

    EXPECT_THROW(serve::parseEndpoint(""), serve::IoError);
    EXPECT_THROW(serve::parseEndpoint(":7070"), serve::IoError);
    EXPECT_THROW(serve::parseEndpoint("host:65536"), serve::IoError);

    const auto list =
        serve::parseEndpointList("/tmp/a.sock,10.0.0.1:7070");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0].kind, Endpoint::Kind::Unix);
    EXPECT_EQ(list[1].kind, Endpoint::Kind::Tcp);
}

TEST(Transport, EndpointListSplitSkipsEmptyItems)
{
    EXPECT_EQ(serve::splitEndpointSpecs(",/tmp/a.sock,,h:1,"),
              (std::vector<std::string>{"/tmp/a.sock", "h:1"}));
    EXPECT_TRUE(serve::splitEndpointSpecs("").empty());
    EXPECT_TRUE(serve::splitEndpointSpecs(",,").empty());
}

TEST(ServeE2E, TcpShardBitIdenticalToLocal)
{
    // Port 0: the kernel picks a free port, endpointSpec() reads it
    // back, so the test never races another process for a port.
    Scenario &s = scenario();
    serve::SimServer server(serverOptions("127.0.0.1:0", 2));
    server.start();
    const std::string endpoint = server.endpointSpec();
    ASSERT_NE(endpoint, "127.0.0.1:0") << "port 0 was not resolved";

    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi,
                               fastRemote({endpoint}));
    const PipelineArtifacts got = runPipeline(remote);
    EXPECT_EQ(got.responses, localReference().responses);
    EXPECT_EQ(got.predictions, localReference().predictions);
    EXPECT_EQ(remote.remotePoints(), s.batch.size());
    EXPECT_EQ(remote.fallbackPoints(), 0u);
    server.stop();
}

TEST(ServeE2E, MixedUnixAndTcpShardsBitIdenticalToLocal)
{
    // One Unix shard plus one TCP shard behind a single oracle:
    // chunks alternate between transports and the merged batch is
    // still bit-identical to local simulation.
    Scenario &s = scenario();
    const std::string unix_sock = uniqueSocket("mixed");
    serve::SimServer unix_server(serverOptions(unix_sock, 1));
    serve::SimServer tcp_server(serverOptions("127.0.0.1:0", 1));
    unix_server.start();
    tcp_server.start();

    serve::RemoteOracle remote(
        s.space, "mcf", s.trace, simOptions(), core::Metric::Cpi,
        fastRemote({unix_sock, tcp_server.endpointSpec()}));
    const PipelineArtifacts got = runPipeline(remote);
    EXPECT_EQ(got.responses, localReference().responses);
    EXPECT_EQ(got.predictions, localReference().predictions);
    EXPECT_EQ(remote.remotePoints(), s.batch.size());
    EXPECT_EQ(remote.fallbackPoints(), 0u);
    // Both transports actually served work.
    EXPECT_GT(unix_server.totalEvaluations(), 0u);
    EXPECT_GT(tcp_server.totalEvaluations(), 0u);
    unix_server.stop();
    tcp_server.stop();
}

TEST(ServeE2E, PpmStatsCliPollsTcpEndpoint)
{
    // The stats CLI speaks the same endpoint grammar: poll an
    // in-process server over TCP loopback, then take a --watch rate
    // reading against it.
    Scenario &s = scenario();
    serve::SimServer server(serverOptions("127.0.0.1:0", 2));
    server.start();
    const std::string endpoint = server.endpointSpec();

    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi,
                               fastRemote({endpoint}));
    (void)remote.evaluateAll(s.batch);

    auto runCli = [](const std::string &args) {
        const std::string cmd = std::string(PPM_STATS_BIN) + " " +
                                args + " 2>/dev/null";
        FILE *pipe = ::popen(cmd.c_str(), "r");
        EXPECT_NE(pipe, nullptr);
        std::string output;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
            output.append(buf, got);
        EXPECT_EQ(::pclose(pipe), 0) << output;
        return output;
    };

    const std::string polled =
        runCli("--no-local --json --socket " + endpoint);
    ASSERT_FALSE(polled.empty());
    EXPECT_EQ(polled.front(), '{') << polled;
#ifndef PPM_OBS_DISABLED
    EXPECT_NE(polled.find("\"serve.requests\""), std::string::npos)
        << polled;
#endif

    const std::string watched = runCli(
        "--no-local --json --watch 0.2 --socket " + endpoint);
    ASSERT_FALSE(watched.empty());
    EXPECT_NE(watched.find("\"interval_s\""), std::string::npos)
        << watched;
    EXPECT_NE(watched.find("\"counter_rates\""), std::string::npos)
        << watched;
    server.stop();
}

TEST(ServeE2E, FactoryHonoursExplicitOptions)
{
    Scenario &s = scenario();
    const std::string sock = uniqueSocket("factory");
    serve::SimServer server(serverOptions(sock, 2));
    server.start();

    serve::FactoryOptions fopts;
    fopts.sockets = {sock};
    fopts.remote = fastRemote({});
    auto remote = serve::makeOracle(s.space, "mcf", s.trace,
                                    simOptions(), core::Metric::Cpi,
                                    fopts);
    EXPECT_EQ(remote->evaluateAll(s.batch),
              localReference().responses);
    server.stop();

    serve::FactoryOptions local_opts;
    auto local = serve::makeOracle(s.space, "mcf", s.trace,
                                   simOptions(), core::Metric::Cpi,
                                   local_opts);
    EXPECT_EQ(local->evaluateAll(s.batch),
              localReference().responses);
}

} // namespace
