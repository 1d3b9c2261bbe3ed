/**
 * @file
 * Chaos suite for the transport fault injector: spec parsing, decision
 * determinism, the exact on-the-wire effect of every fault kind over a
 * socketpair, and end-to-end runs where each fault class — and all of
 * them at once, over TCP — is injected into a live sharded pipeline
 * and the batch still completes with CPI values bit-identical to a
 * fault-free run (faults surface as IoError/ProtocolError and the
 * retry/backoff/dead-latch/fallback machinery absorbs them).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "linreg/linear_model.hh"
#include "math/rng.hh"
#include "rbf/network.hh"
#include "sampling/sample_gen.hh"
#include "serve/fault_injector.hh"
#include "serve/model_snapshot.hh"
#include "serve/predict_oracle.hh"
#include "serve/remote_oracle.hh"
#include "serve/sim_server.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"

extern char **environ;

namespace {

namespace fs = std::filesystem;
using namespace ppm;

// --- spec parsing -----------------------------------------------------

TEST(FaultSpec, EmptySpecIsAllDefaults)
{
    const serve::FaultSpec spec = serve::FaultSpec::parse("");
    EXPECT_EQ(spec.seed, 1u);
    EXPECT_EQ(spec.drop, 0.0);
    EXPECT_EQ(spec.delay, 0.0);
    EXPECT_EQ(spec.stall, 0.0);
    EXPECT_EQ(spec.truncate, 0.0);
    EXPECT_EQ(spec.bitflip, 0.0);
    EXPECT_EQ(spec.reset, 0.0);
    EXPECT_EQ(spec.delay_ms, 5);
    EXPECT_EQ(spec.stall_ms, 700);
}

TEST(FaultSpec, ParsesEveryKeyWithEitherSeparator)
{
    const serve::FaultSpec spec = serve::FaultSpec::parse(
        "seed=42;drop=0.25,delay=0.125;delay_ms=7,stall=0.0625;"
        "stall_ms=900;truncate=0.03125,bitflip=0.015625;reset=0.5");
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.drop, 0.25);
    EXPECT_EQ(spec.delay, 0.125);
    EXPECT_EQ(spec.stall, 0.0625);
    EXPECT_EQ(spec.truncate, 0.03125);
    EXPECT_EQ(spec.bitflip, 0.015625);
    EXPECT_EQ(spec.reset, 0.5);
    EXPECT_EQ(spec.delay_ms, 7);
    EXPECT_EQ(spec.stall_ms, 900);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    using serve::FaultSpec;
    EXPECT_THROW(FaultSpec::parse("nosuchkey=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop=abc"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop=0.5x"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop=1.5"), std::invalid_argument);
    EXPECT_THROW(FaultSpec::parse("drop=-0.1"), std::invalid_argument);
    // Individually legal probabilities whose sum exceeds 1.
    EXPECT_THROW(FaultSpec::parse("drop=0.6;reset=0.6"),
                 std::invalid_argument);
}

// --- decision determinism ---------------------------------------------

TEST(FaultInjector, DecisionsArePureInSeedAndIndex)
{
    const serve::FaultSpec spec = serve::FaultSpec::parse(
        "seed=7;drop=0.15;delay=0.15;stall=0.1;truncate=0.15;"
        "bitflip=0.15;reset=0.1");
    const serve::FaultInjector a(spec);
    const serve::FaultInjector b(spec);
    int faults = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const auto da = a.decide(i, 512);
        const auto db = b.decide(i, 512);
        EXPECT_EQ(da.kind, db.kind) << "index " << i;
        EXPECT_EQ(da.sleep_ms, db.sleep_ms) << "index " << i;
        EXPECT_EQ(da.target, db.target) << "index " << i;
        if (da.kind != serve::FaultKind::None)
            ++faults;
        if (da.kind == serve::FaultKind::Truncate) {
            EXPECT_LT(da.target, 512u);
        }
        if (da.kind == serve::FaultKind::BitFlip) {
            EXPECT_LT(da.target, 512u * 8);
        }
    }
    // ~80% fault probability over 1000 draws: faults certainly occur,
    // and so do clean frames.
    EXPECT_GT(faults, 500);
    EXPECT_LT(faults, 1000);
    // decide() is const and does not advance the sequence.
    EXPECT_EQ(a.framesSeen(), 0u);

    serve::FaultInjector other(serve::FaultSpec::parse(
        "seed=8;drop=0.15;delay=0.15;stall=0.1;truncate=0.15;"
        "bitflip=0.15;reset=0.1"));
    bool differs = false;
    for (std::uint64_t i = 0; i < 1000 && !differs; ++i)
        differs = other.decide(i, 512).kind != a.decide(i, 512).kind;
    EXPECT_TRUE(differs) << "seed does not influence decisions";
}

TEST(FaultInjector, NextSendFaultAdvancesAndCounts)
{
    serve::FaultInjector injector(
        serve::FaultSpec::parse("seed=3;drop=0.5"));
    std::uint64_t drops = 0;
    for (int i = 0; i < 200; ++i)
        if (injector.nextSendFault(64).kind == serve::FaultKind::Drop)
            ++drops;
    EXPECT_EQ(injector.framesSeen(), 200u);
    EXPECT_EQ(injector.count(serve::FaultKind::Drop), drops);
    EXPECT_EQ(injector.injectedTotal(), drops);
    EXPECT_GT(drops, 50u);
    EXPECT_LT(drops, 150u);
}

// --- wire-level primitives over a socketpair --------------------------

/** Install an injector for one test; uninstall on scope exit. */
struct InjectorGuard
{
    explicit InjectorGuard(const std::string &spec)
        : injector(std::make_shared<serve::FaultInjector>(
              serve::FaultSpec::parse(spec)))
    {
        serve::FaultInjector::install(injector);
    }
    ~InjectorGuard() { serve::FaultInjector::install(nullptr); }
    std::shared_ptr<serve::FaultInjector> injector;
};

/** Connected nonblocking socketpair (frame I/O needs nonblocking). */
struct WirePair
{
    serve::FdGuard a, b;

    WirePair()
    {
        int fds[2] = {-1, -1};
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
        for (int fd : fds)
            ::fcntl(fd, F_SETFL,
                    ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        a.reset(fds[0]);
        b.reset(fds[1]);
    }
};

TEST(FaultWire, DropSwallowsTheFrame)
{
    InjectorGuard guard("seed=1;drop=1");
    WirePair wire;
    serve::writeFrame(wire.a.get(), serve::encodePing(1), 500);
    EXPECT_THROW(serve::readFrame(wire.b.get(), 100), serve::IoError);
    EXPECT_EQ(guard.injector->count(serve::FaultKind::Drop), 1u);
}

TEST(FaultWire, DelayedFrameArrivesIntact)
{
    InjectorGuard guard("seed=1;delay=1;delay_ms=20");
    WirePair wire;
    serve::writeFrame(wire.a.get(), serve::encodePing(0xFEED), 500);
    const serve::Frame got = serve::readFrame(wire.b.get(), 500);
    EXPECT_EQ(got.type, serve::MsgType::Ping);
    EXPECT_EQ(serve::parsePing(got.payload), 0xFEEDu);
    EXPECT_EQ(guard.injector->count(serve::FaultKind::Delay), 1u);
}

TEST(FaultWire, StalledFrameOverrunsTheReadTimeout)
{
    InjectorGuard guard("seed=1;stall=1;stall_ms=400");
    WirePair wire;
    // The sender sleeps in writeFrame, so it must run concurrently
    // for the reader's (much shorter) timeout to be exercised.
    std::thread writer([&] {
        try {
            serve::writeFrame(wire.a.get(), serve::encodePing(2),
                              1000);
        } catch (const std::exception &) {
        }
    });
    EXPECT_THROW(serve::readFrame(wire.b.get(), 100), serve::IoError);
    writer.join();
    EXPECT_EQ(guard.injector->count(serve::FaultKind::Stall), 1u);
}

TEST(FaultWire, TruncatedFrameReadsAsEof)
{
    InjectorGuard guard("seed=1;truncate=1");
    WirePair wire;
    serve::writeFrame(wire.a.get(), serve::encodePing(3), 500);
    EXPECT_THROW(serve::readFrame(wire.b.get(), 500), serve::IoError);
    EXPECT_EQ(guard.injector->count(serve::FaultKind::Truncate), 1u);
}

TEST(FaultWire, BitFlippedPayloadFailsTheCrcCheck)
{
    const std::vector<std::uint8_t> frame = serve::encodePing(4);
    // Pick a seed whose first flip lands past the header, so the
    // corruption must be caught by the payload CRC (a header flip is
    // also rejected, but via ProtocolError or a read timeout
    // depending on the field — this test pins the CRC path).
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 500 && seed == 0; ++s) {
        const serve::FaultInjector probe(serve::FaultSpec::parse(
            "seed=" + std::to_string(s) + ";bitflip=1"));
        if (probe.decide(0, frame.size()).target / 8 >=
            serve::kHeaderSize)
            seed = s;
    }
    ASSERT_NE(seed, 0u);

    InjectorGuard guard("seed=" + std::to_string(seed) + ";bitflip=1");
    WirePair wire;
    serve::writeFrame(wire.a.get(), frame, 500);
    EXPECT_THROW(serve::readFrame(wire.b.get(), 500),
                 serve::ProtocolError);
    EXPECT_EQ(guard.injector->count(serve::FaultKind::BitFlip), 1u);
}

TEST(FaultWire, ResetThrowsAtTheSenderAndSeversThePeer)
{
    InjectorGuard guard("seed=1;reset=1");
    WirePair wire;
    EXPECT_THROW(
        serve::writeFrame(wire.a.get(), serve::encodePing(5), 500),
        serve::IoError);
    EXPECT_THROW(serve::readFrame(wire.b.get(), 100), serve::IoError);
    EXPECT_EQ(guard.injector->count(serve::FaultKind::Reset), 1u);
}

// --- chaos end-to-end -------------------------------------------------

constexpr std::size_t kTraceLen = 12000;
constexpr std::uint64_t kWarmup = 2000;
constexpr int kBatchSize = 12;

sim::SimOptions
simOptions()
{
    sim::SimOptions opts;
    opts.warmup_instructions = kWarmup;
    return opts;
}

/** Shared mcf inputs and the fault-free reference responses. */
struct Scenario
{
    dspace::DesignSpace space = dspace::paperTrainSpace();
    trace::Trace trace;
    std::vector<dspace::DesignPoint> batch;
    std::vector<double> reference;

    Scenario()
        : trace(trace::generateTrace(trace::profileByName("mcf"),
                                     kTraceLen))
    {
        math::Rng rng(42);
        batch =
            sampling::bestLatinHypercube(space, kBatchSize, 4, rng)
                .points;
        core::SimulatorOracle local(space, trace, simOptions());
        reference = local.evaluateAll(batch);
    }
};

Scenario &
scenario()
{
    static Scenario s;
    return s;
}

std::string
uniqueSocket(const std::string &tag)
{
    return "/tmp/ppm_chaos_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

/**
 * Short timeouts everywhere so injected faults are detected fast:
 * server read timeouts free its workers, client read timeouts trigger
 * retries, and the dead-socket latch hands leftovers to the local
 * fallback — which is what makes every chaos run terminate with
 * bit-identical values.
 */
serve::ServerOptions
chaosServer(const std::string &endpoint, unsigned workers)
{
    serve::ServerOptions opts;
    opts.socket_path = endpoint;
    opts.num_workers = workers;
    opts.io_timeout_ms = 400;
    return opts;
}

serve::RemoteOptions
chaosRemote(std::vector<std::string> sockets)
{
    serve::RemoteOptions opts;
    opts.sockets = std::move(sockets);
    opts.connect_timeout_ms = 500;
    opts.io_timeout_ms = 400;
    opts.max_attempts = 3;
    opts.backoff_initial_ms = 1;
    opts.backoff_max_ms = 4;
    opts.chunk_points = 3;
    opts.max_connections = 1; // serialize frames: deterministic order
    return opts;
}

/** Run the sharded batch under @p spec and check it against truth. */
void
runChaos(const std::string &spec, const std::string &endpoint,
         unsigned workers, bool expect_remote_progress)
{
    Scenario &s = scenario();
    serve::SimServer server(chaosServer(endpoint, workers));
    server.start();

    InjectorGuard guard(spec);
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi,
                               chaosRemote({server.endpointSpec()}));
    const std::vector<double> got = remote.evaluateAll(s.batch);
    serve::FaultInjector::install(nullptr); // quiesce before stop()
    server.stop();

    EXPECT_EQ(got, s.reference)
        << "fault spec \"" << spec
        << "\" perturbed results instead of only the transport";
    EXPECT_EQ(remote.remotePoints() + remote.fallbackPoints(),
              s.batch.size());
    EXPECT_GT(guard.injector->framesSeen(), 0u);
    if (expect_remote_progress)
        EXPECT_GT(remote.remotePoints(), 0u);
    else
        EXPECT_GT(guard.injector->injectedTotal(), 0u);
}

TEST(FaultChaosE2E, EveryFrameDroppedStillCompletes)
{
    // drop=1: no frame ever arrives; everything falls back locally.
    runChaos("seed=11;drop=1", uniqueSocket("drop"), 2, false);
}

TEST(FaultChaosE2E, EveryFrameDelayedCompletesRemotely)
{
    // delay well inside the timeouts: traffic survives, just late.
    runChaos("seed=12;delay=1;delay_ms=10", uniqueSocket("delay"), 2,
             true);
}

TEST(FaultChaosE2E, StallPastTimeoutStillCompletes)
{
    // Every frame held past both read timeouts (400ms): peers give
    // up, retries stall too, the dead latch trips, fallback finishes.
    runChaos("seed=13;stall=1;stall_ms=800", uniqueSocket("stall"), 2,
             false);
}

TEST(FaultChaosE2E, TruncatedFramesStillComplete)
{
    runChaos("seed=14;truncate=1", uniqueSocket("trunc"), 2, false);
}

TEST(FaultChaosE2E, BitFlippedFramesStillComplete)
{
    runChaos("seed=15;bitflip=1", uniqueSocket("flip"), 2, false);
}

TEST(FaultChaosE2E, ConnectionResetsStillComplete)
{
    runChaos("seed=16;reset=1", uniqueSocket("reset"), 2, false);
}

TEST(FaultChaosE2E, PartialDropMixesRemoteAndFallback)
{
    // Half the frames dropped: some chunks make it through remotely,
    // the rest retry and eventually fall back — same values either
    // way.
    runChaos("seed=17;drop=0.5", uniqueSocket("mix"), 2, false);
}

TEST(FaultChaosE2E, KitchenSinkOverTcp)
{
    // All six fault classes at once, over a TCP loopback shard.
    runChaos("seed=18;drop=0.1;delay=0.1;delay_ms=5;stall=0.05;"
             "stall_ms=800;truncate=0.1;bitflip=0.1;reset=0.1",
             "127.0.0.1:0", 2, false);
}

// --- chaos over the prediction plane ----------------------------------

/**
 * PREDICT rides the same ShardedClient as EvalRequest, so the whole
 * chaos matrix applies unchanged: under any fault pattern the batch
 * must complete with predictions bit-identical to evaluating the
 * snapshot in-process — remote answers and local-fallback answers go
 * through the same predictWithSnapshot() on the same bytes.
 */
struct PredictScenario
{
    serve::ModelSnapshot snap;
    std::vector<dspace::DesignPoint> batch;
    std::vector<double> reference;

    PredictScenario()
    {
        const dspace::DesignSpace space = dspace::paperTrainSpace();
        const std::size_t dims = space.size();
        math::Rng rng(55);
        std::vector<rbf::GaussianBasis> bases;
        std::vector<double> weights;
        for (int b = 0; b < 6; ++b) {
            dspace::UnitPoint center(dims);
            std::vector<double> radius(dims);
            for (std::size_t d = 0; d < dims; ++d) {
                center[d] = rng.uniform();
                radius[d] = 0.2 + rng.uniform();
            }
            bases.emplace_back(std::move(center), std::move(radius));
            weights.push_back(rng.uniform() * 4 - 2);
        }
        snap.model_version = 1;
        snap.benchmark = "twolf";
        snap.trace_length = 100000;
        snap.train_points = 30;
        snap.p_min = 2;
        snap.alpha = 1.5;
        snap.space = space;
        snap.network =
            rbf::RbfNetwork(std::move(bases), std::move(weights));

        for (int i = 0; i < kBatchSize; ++i)
            batch.push_back(space.randomPoint(rng));
        reference = serve::predictWithSnapshot(snap, batch);
    }
};

PredictScenario &
predictScenario()
{
    static PredictScenario s;
    return s;
}

/** Sharded PREDICT under @p spec; values must match the snapshot. */
void
runPredictChaos(const std::string &spec, const std::string &endpoint,
                bool expect_remote_progress)
{
    PredictScenario &s = predictScenario();
    const std::string path =
        uniqueSocket("model") + ".ppmm"; // unique temp name
    serve::saveSnapshot(s.snap, path);
    serve::ServerOptions opts = chaosServer(endpoint, 2);
    opts.predict_snapshot = path;
    serve::SimServer server(opts);
    server.start();

    InjectorGuard guard(spec);
    serve::PredictOracle oracle(
        s.snap, chaosRemote({server.endpointSpec()}));
    const std::vector<double> got = oracle.evaluateAll(s.batch);
    serve::FaultInjector::install(nullptr); // quiesce before stop()
    server.stop();
    ::unlink(path.c_str());

    EXPECT_EQ(got, s.reference)
        << "fault spec \"" << spec
        << "\" perturbed predictions instead of only the transport";
    EXPECT_EQ(oracle.remotePoints() + oracle.fallbackPoints(),
              s.batch.size());
    EXPECT_GT(guard.injector->framesSeen(), 0u);
    if (expect_remote_progress)
        EXPECT_GT(oracle.remotePoints(), 0u);
    else
        EXPECT_GT(guard.injector->injectedTotal(), 0u);
}

TEST(PredictChaosE2E, EveryFrameDroppedStillPredicts)
{
    runPredictChaos("seed=21;drop=1", "127.0.0.1:0", false);
}

TEST(PredictChaosE2E, EveryFrameDelayedPredictsRemotely)
{
    runPredictChaos("seed=22;delay=1;delay_ms=10", "127.0.0.1:0",
                    true);
}

TEST(PredictChaosE2E, StallPastTimeoutStillPredicts)
{
    runPredictChaos("seed=23;stall=1;stall_ms=800", "127.0.0.1:0",
                    false);
}

TEST(PredictChaosE2E, TruncatedFramesStillPredict)
{
    runPredictChaos("seed=24;truncate=1", "127.0.0.1:0", false);
}

TEST(PredictChaosE2E, BitFlippedFramesStillPredict)
{
    runPredictChaos("seed=25;bitflip=1", "127.0.0.1:0", false);
}

TEST(PredictChaosE2E, ConnectionResetsStillPredict)
{
    runPredictChaos("seed=26;reset=1", "127.0.0.1:0", false);
}

TEST(PredictChaosE2E, KitchenSinkOverTcp)
{
    runPredictChaos(
        "seed=27;drop=0.1;delay=0.1;delay_ms=5;stall=0.05;"
        "stall_ms=800;truncate=0.1;bitflip=0.1;reset=0.1",
        "127.0.0.1:0", false);
}

TEST(FaultChaosE2E, ServerSigkilledMidBatchOverTcp)
{
    // The non-injected half of the chaos matrix: a real ppm_serve
    // process, reached over TCP, killed outright while the batch is
    // in flight. No injector — the fault is the process dying.
    Scenario &s = scenario();
    const std::uint16_t port = static_cast<std::uint16_t>(
        21000 + (::getpid() % 30000));
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(port);

    const char *argv[] = {PPM_SERVE_BIN, "--listen", endpoint.c_str(),
                          "--workers", "2", nullptr};
    pid_t pid = -1;
    ASSERT_EQ(::posix_spawn(&pid, PPM_SERVE_BIN, nullptr, nullptr,
                            const_cast<char *const *>(argv), environ),
              0);

    bool up = false;
    for (int i = 0; i < 200 && !up; ++i) {
        try {
            serve::FdGuard conn = serve::connectEndpoint(
                serve::parseEndpoint(endpoint), 100);
            serve::writeFrame(conn.get(), serve::encodePing(1), 500);
            up = serve::readFrame(conn.get(), 500).type ==
                 serve::MsgType::Pong;
        } catch (const std::exception &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
    }
    ASSERT_TRUE(up) << "ppm_serve never came up on " << endpoint;

    serve::RemoteOptions opts = chaosRemote({endpoint});
    opts.io_timeout_ms = 60'000; // real simulation time, no faults
    opts.chunk_points = 2;
    serve::RemoteOracle remote(s.space, "mcf", s.trace, simOptions(),
                               core::Metric::Cpi, opts);

    std::atomic<bool> done{false};
    std::thread killer([&] {
        while (!done.load() && remote.remoteChunksServed() == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ::kill(pid, SIGKILL);
    });

    const std::vector<double> got = remote.evaluateAll(s.batch);
    done.store(true);
    killer.join();
    int status = 0;
    ::waitpid(pid, &status, 0);

    EXPECT_EQ(got, s.reference);
    EXPECT_GE(remote.remoteChunksServed(), 1u);
    EXPECT_EQ(remote.remotePoints() + remote.fallbackPoints(),
              s.batch.size());
}

} // namespace
