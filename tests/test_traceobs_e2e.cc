/**
 * @file
 * Observability end-to-end suite. One sampled PREDICT batch sharded
 * over two real ppm_serve processes on TCP yields — via the real
 * ppm_trace binary — a single merged Chrome trace where the client
 * root, both shard servers, the cache probe, and the RBF batch kernel
 * all share one trace id. ppm_trace writes valid JSON whose epoch
 * timestamps and durations keep microsecond precision, and it reports
 * the spans a client dump dropped. And the model-drift monitor: a stale
 * snapshot served against a workload whose ground truth sits in the
 * result cache fires the model_drift event within the sample budget,
 * with bit-deterministic streaming statistics across repeated runs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dspace/paper_space.hh"
#include "linreg/linear_model.hh"
#include "math/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "rbf/network.hh"
#include "serve/model_snapshot.hh"
#include "serve/predict_oracle.hh"
#include "serve/protocol.hh"
#include "serve/sim_server.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"

#include "json_checker.hh"

extern char **environ;

namespace {

using namespace ppm;

std::string
uniquePath(const std::string &tag, const std::string &ext)
{
    return "/tmp/ppm_traceobs_" + std::to_string(::getpid()) + "_" +
           tag + ext;
}

/** Deterministic hand-built snapshot (same shape as the predict e2e
 * suite); @p trace_length sizes the simulation context it claims. */
serve::ModelSnapshot
buildSnapshot(std::uint64_t version, std::uint64_t seed,
              std::uint64_t trace_length = 100000)
{
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    const std::size_t dims = space.size();
    math::Rng rng(seed);
    std::vector<rbf::GaussianBasis> bases;
    std::vector<double> weights;
    for (int b = 0; b < 8; ++b) {
        dspace::UnitPoint center(dims);
        std::vector<double> radius(dims);
        for (std::size_t d = 0; d < dims; ++d) {
            center[d] = rng.uniform();
            radius[d] = 0.2 + rng.uniform();
        }
        bases.emplace_back(std::move(center), std::move(radius));
        weights.push_back(rng.uniform() * 4 - 2);
    }
    std::vector<linreg::Term> terms =
        linreg::fullTwoFactorTerms(dims);
    std::vector<double> coeffs;
    for (std::size_t t = 0; t < terms.size(); ++t)
        coeffs.push_back(rng.uniform() * 2 - 1);

    serve::ModelSnapshot snap;
    snap.model_version = version;
    snap.benchmark = "twolf";
    snap.metric = core::Metric::Cpi;
    snap.trace_length = trace_length;
    snap.warmup = 0;
    snap.train_points = 30;
    snap.p_min = 2;
    snap.alpha = 1.5;
    snap.space = space;
    snap.network =
        rbf::RbfNetwork(std::move(bases), std::move(weights));
    snap.linear =
        linreg::LinearModel(std::move(terms), std::move(coeffs));
    return snap;
}

std::vector<dspace::DesignPoint>
queryBatch(int n)
{
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    math::Rng rng(77);
    std::vector<dspace::DesignPoint> points;
    for (int i = 0; i < n; ++i)
        points.push_back(space.randomPoint(rng));
    return points;
}

serve::RemoteOptions
fastRemote(std::vector<std::string> sockets)
{
    serve::RemoteOptions opts;
    opts.sockets = std::move(sockets);
    opts.connect_timeout_ms = 1000;
    opts.io_timeout_ms = 30'000;
    opts.max_attempts = 2;
    opts.backoff_initial_ms = 1;
    opts.backoff_max_ms = 10;
    opts.chunk_points = 4;
    opts.max_connections = 2;
    return opts;
}

bool
waitForPing(const std::string &endpoint)
{
    for (int i = 0; i < 200; ++i) {
        try {
            serve::FdGuard conn = serve::connectEndpoint(
                serve::parseEndpoint(endpoint), 100);
            serve::writeFrame(conn.get(), serve::encodePing(1), 500);
            if (serve::readFrame(conn.get(), 500).type ==
                serve::MsgType::Pong)
                return true;
        } catch (const std::exception &) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
}

/** One Chrome-trace complete event, as far as the suite cares. */
struct TraceEvent
{
    std::string name;
    std::string trace;
    long pid = 0;
};

/** Scan the ppm_trace output for its "X" events (flat, known shape —
 * no general JSON parser needed). */
std::vector<TraceEvent>
parseTraceEvents(const std::string &json)
{
    std::vector<TraceEvent> events;
    std::size_t pos = 0;
    while ((pos = json.find("{\"name\":\"", pos)) !=
           std::string::npos) {
        const std::size_t end = json.find("}}", pos);
        if (end == std::string::npos)
            break;
        const std::string obj = json.substr(pos, end + 2 - pos);
        pos = end + 2;
        TraceEvent ev;
        ev.name = obj.substr(9, obj.find('"', 9) - 9);
        const std::size_t pid_at = obj.find("\"pid\":");
        if (pid_at != std::string::npos)
            ev.pid = std::strtol(obj.c_str() + pid_at + 6, nullptr,
                                 10);
        const std::size_t trace_at = obj.find("\"trace\":\"");
        if (trace_at != std::string::npos)
            ev.trace = obj.substr(trace_at + 9, 32);
        if (ev.name != "process_name")
            events.push_back(std::move(ev));
    }
    return events;
}

pid_t
spawn(const std::vector<const char *> &args)
{
    std::vector<const char *> argv = args;
    argv.push_back(nullptr);
    pid_t pid = -1;
    if (::posix_spawn(&pid, args[0], nullptr, nullptr,
                      const_cast<char *const *>(argv.data()),
                      environ) != 0)
        return -1;
    return pid;
}

/**
 * Run the real ppm_trace with @p args plus `--out FILE`; returns the
 * merged document, or "" after recording a failure.
 */
std::string
runPpmTrace(std::vector<const char *> args)
{
    const std::string out_path = uniquePath("merged", ".json");
    args.insert(args.begin(), PPM_TRACE_BIN);
    args.push_back("--out");
    args.push_back(out_path.c_str());
    const pid_t merger = spawn(args);
    int status = -1;
    if (merger <= 0 || ::waitpid(merger, &status, 0) != merger ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ADD_FAILURE() << "ppm_trace failed (status " << status << ")";
        return "";
    }
    std::ifstream in(out_path);
    std::ostringstream doc;
    doc << in.rdbuf();
    ::unlink(out_path.c_str());
    return doc.str();
}

TEST(TraceObsE2E, OneSampledBatchYieldsOneMergedCrossProcessTrace)
{
    // Two real ppm_serve shards on TCP, tracing enabled via the
    // environment (inherited at spawn), drift probing on so the
    // cache-plane span fires during PREDICT.
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const std::string snap_path = uniquePath("shard", ".ppmm");
    serve::saveSnapshot(snap, snap_path);

    const int base_port =
        21000 + static_cast<int>(::getpid() % 20000);
    const std::string ep1 =
        "127.0.0.1:" + std::to_string(base_port);
    const std::string ep2 =
        "127.0.0.1:" + std::to_string(base_port + 1);

    ::setenv("PPM_TRACE_SAMPLE", "1", 1);
    std::vector<pid_t> servers;
    for (const std::string &ep : {ep1, ep2}) {
        const pid_t pid =
            spawn({PPM_SERVE_BIN, "--listen", ep.c_str(), "--workers",
                   "1", "--predict", snap_path.c_str(),
                   "--drift-sample", "1"});
        ASSERT_GT(pid, 0);
        servers.push_back(pid);
    }
    for (const std::string &ep : {ep1, ep2})
        ASSERT_TRUE(waitForPing(ep))
            << "ppm_serve never came up on " << ep;

    // The client root: one sampled evaluateAll sharded over both
    // endpoints (chunk c goes to endpoint c % 2, so 16 points in
    // 4-point chunks hit both).
    obs::setTraceSampleEvery(1);
    obs::SpanBuffer::instance().clear();
    const auto batch = queryBatch(16);
    serve::PredictOracle oracle(snap, fastRemote({ep1, ep2}));
    oracle.evaluateAll(batch);
    obs::setTraceSampleEvery(0);
    ASSERT_EQ(oracle.remotePoints(), batch.size());
    ASSERT_EQ(oracle.fallbackPoints(), 0u);

    std::string root_trace;
    for (const obs::SpanRecord &s :
         obs::SpanBuffer::instance().snapshot())
        if (std::strcmp(s.name, "predict.evaluate_all") == 0)
            root_trace = obs::traceIdHex(s.trace_hi, s.trace_lo);
    ASSERT_EQ(root_trace.size(), 32u)
        << "client never recorded its root span";

    const std::string client_jsonl = uniquePath("client", ".jsonl");
    ASSERT_TRUE(
        obs::SpanBuffer::instance().writeJsonl(client_jsonl));

    // The real merge tool: pull both servers, merge the client dump.
    const std::string socket_list = ep1 + "," + ep2;
    const std::string doc = runPpmTrace(
        {"--socket", socket_list.c_str(), "--in", client_jsonl.c_str()});
    EXPECT_TRUE(test::JsonChecker(doc).valid());
    const std::vector<TraceEvent> events = parseTraceEvents(doc);

    // The acceptance bar: one trace id spanning client, both shard
    // servers, the cache probe, and the RBF batch kernel.
    std::set<long> pids_in_trace;
    std::set<std::string> names_in_trace;
    std::set<long> shard_pids;
    for (const TraceEvent &ev : events) {
        if (ev.trace != root_trace)
            continue;
        pids_in_trace.insert(ev.pid);
        names_in_trace.insert(ev.name);
        if (ev.name == "serve.predict")
            shard_pids.insert(ev.pid);
    }
    EXPECT_GE(pids_in_trace.size(), 3u)
        << "client + two shards should contribute to the trace";
    EXPECT_EQ(shard_pids.size(), 2u)
        << "both shard servers must serve part of the batch";
    EXPECT_TRUE(names_in_trace.count("predict.evaluate_all"))
        << "client root span missing";
    EXPECT_TRUE(names_in_trace.count("serve.predict"))
        << "server predict span missing";
    EXPECT_TRUE(names_in_trace.count("drift.probe"))
        << "cache-probe span missing";
    EXPECT_TRUE(names_in_trace.count("rbf.batch"))
        << "RBF kernel span missing";

    for (pid_t pid : servers) {
        ::kill(pid, SIGTERM);
        ::waitpid(pid, nullptr, 0);
    }
    ::unsetenv("PPM_TRACE_SAMPLE");
    ::unlink(snap_path.c_str());
    ::unlink(client_jsonl.c_str());
}

/** One span line in the PPM_SPANS_OUT format SpanBuffer writes. */
std::string
spanLine(std::uint64_t span_id, std::uint64_t ts_ns,
         std::uint64_t dur_ns)
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"trace\":\"%032x\",\"span\":\"%016llx\","
                  "\"parent\":\"%016x\",\"name\":\"test.span\","
                  "\"ts_ns\":%llu,\"dur_ns\":%llu,\"pid\":4242,"
                  "\"tid\":1}\n",
                  0xab, static_cast<unsigned long long>(span_id), 0,
                  static_cast<unsigned long long>(ts_ns),
                  static_cast<unsigned long long>(dur_ns));
    return line;
}

TEST(TraceObsE2E, MergedTimestampsKeepMicrosecondPrecision)
{
    // Current-epoch spans 1 us apart, plus one 12.345678 s span: each
    // ts/dur must read back within 1 us of the nanoseconds dumped.
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        want; // span id -> (ts_ns, dur_ns)
    for (std::uint64_t id = 1; id <= 8; ++id)
        want[id] = {now_ns + id * 1000, 250 + id};
    want[9] = {now_ns + 9000, 12'345'678'000};
    const std::string jsonl = uniquePath("precision", ".jsonl");
    {
        std::ofstream out(jsonl);
        for (const auto &[id, span] : want)
            out << spanLine(id, span.first, span.second);
    }
    const std::string doc = runPpmTrace({"--in", jsonl.c_str()});
    ::unlink(jsonl.c_str());
    EXPECT_TRUE(test::JsonChecker(doc).valid()) << doc;

    const auto numberAfter = [](const std::string &obj,
                                const std::string &key) {
        const std::size_t at = obj.find(key);
        EXPECT_NE(at, std::string::npos) << key << " in " << obj;
        return std::strtold(obj.c_str() + at + key.size(), nullptr);
    };
    std::size_t checked = 0;
    std::size_t pos = 0;
    while ((pos = doc.find("{\"name\":\"test.span\"", pos)) !=
           std::string::npos) {
        const std::size_t end = doc.find("}}", pos);
        ASSERT_NE(end, std::string::npos);
        const std::string obj = doc.substr(pos, end - pos);
        pos = end;
        const std::size_t span_at = obj.find("\"span\":\"");
        ASSERT_NE(span_at, std::string::npos) << obj;
        const auto it = want.find(
            std::strtoull(obj.c_str() + span_at + 8, nullptr, 16));
        ASSERT_NE(it, want.end()) << obj;
        const auto [ts_ns, dur_ns] = it->second;
        EXPECT_LE(std::fabs(numberAfter(obj, "\"ts\":") - ts_ns / 1e3L),
                  1.0L)
            << obj;
        EXPECT_LE(
            std::fabs(numberAfter(obj, "\"dur\":") - dur_ns / 1e3L),
            1.0L)
            << obj;
        ++checked;
    }
    EXPECT_EQ(checked, want.size());
}

TEST(TraceObsE2E, MergedTraceReportsSpansTheDumpDropped)
{
    obs::SpanBuffer &buffer = obs::SpanBuffer::instance();
    buffer.clear();
    obs::SpanRecord span;
    span.trace_hi = 1;
    span.name = "test.flood";
    for (std::size_t i = 0; i < obs::SpanBuffer::kMaxSpans + 10; ++i) {
        span.span_id = i + 1;
        buffer.record(span);
    }
    const std::string jsonl = uniquePath("flood", ".jsonl");
    ASSERT_TRUE(buffer.writeJsonl(jsonl));
    buffer.clear();

    const std::string doc = runPpmTrace({"--in", jsonl.c_str()});
    ::unlink(jsonl.c_str());
    const std::string footer =
        doc.substr(doc.size() > 200 ? doc.size() - 200 : 0);
    EXPECT_NE(footer.find("\"ppm_dropped_spans\":\"10\""),
              std::string::npos)
        << footer;
    EXPECT_NE(footer.find("\"ppm_spans\":\"" +
                          std::to_string(obs::SpanBuffer::kMaxSpans) +
                          "\""),
              std::string::npos)
        << footer;
}

TEST(TraceObsE2E, StaleModelFiresDriftEventDeterministically)
{
    // Ground truth lands in the server's result cache via ordinary
    // EVAL requests; a deliberately wrong snapshot claiming the same
    // simulation context then serves PREDICT for the same points, and
    // the shadow probe must fire the drift event within the sample
    // budget. Run the whole scenario twice with fresh servers: the
    // streaming statistics are counter-windowed and RNG-free, so they
    // must agree bit for bit (the serve path below is serialized, so
    // PPM_THREADS cannot reorder the residual stream; simulation
    // itself is bit-deterministic at any thread count).
    constexpr std::uint64_t kTraceLen = 2000;
    constexpr std::uint64_t kVersion = 7;
    const auto points = queryBatch(8);

    serve::ModelSnapshot stale = buildSnapshot(kVersion, 4242,
                                               kTraceLen);
    stale.cv_error = 0.001; // tiny training-time baseline

    const auto run_scenario = [&](const std::string &tag) {
        serve::ServerOptions opts;
        opts.socket_path = uniquePath("drift_" + tag, ".sock");
        opts.num_workers = 1;
        opts.drift.sample_every = 1;
        opts.drift.threshold_ratio = 2.0;
        opts.drift.min_samples = 4;
        serve::SimServer server(opts);
        server.start();

        // Simulate the truths into the shared cache.
        serve::EvalRequest eval;
        eval.benchmark = stale.benchmark;
        eval.metric = core::Metric::Cpi;
        eval.trace_length = kTraceLen;
        eval.warmup = 0;
        eval.points = points;
        {
            serve::FdGuard conn =
                serve::connectUnix(opts.socket_path, 1000);
            serve::writeFrame(conn.get(),
                              serve::encodeEvalRequest(eval), 1000);
            const serve::Frame reply =
                serve::readFrame(conn.get(), 60'000);
            EXPECT_EQ(reply.type, serve::MsgType::EvalResponse);
        }

        // Serve predictions from the stale model for the same points.
        EXPECT_TRUE(server.modelHost().install(stale, "drift-test"));
        serve::PredictRequest req;
        req.points = points;
        {
            serve::FdGuard conn =
                serve::connectUnix(opts.socket_path, 1000);
            serve::writeFrame(
                conn.get(), serve::encodePredictRequest(req), 1000);
            const serve::Frame reply =
                serve::readFrame(conn.get(), 30'000);
            EXPECT_EQ(reply.type, serve::MsgType::PredictResponse);
        }

        const serve::DriftStats stats =
            server.driftMonitor().statsFor(kVersion);
        server.stop();
        ::unlink(opts.socket_path.c_str());
        return stats;
    };

    const std::uint64_t events_before =
        obs::Registry::instance()
            .counter("model.drift.events")
            .value();
    const serve::DriftStats first = run_scenario("a");
    EXPECT_EQ(first.sampled, points.size());
    EXPECT_EQ(first.scored, points.size())
        << "every probed point should find cached truth";
    EXPECT_GT(first.mean_rel_err, 0.0);
    EXPECT_GT(first.mean_rel_err, 2.0 * stale.cv_error);
    EXPECT_TRUE(first.fired)
        << "stale model within the sample budget must fire";
    EXPECT_GE(obs::Registry::instance()
                  .counter("model.drift.events")
                  .value(),
              events_before + 1);

    // Bit-determinism across an identical rerun (fresh server, fresh
    // cache, fresh monitor).
    const serve::DriftStats second = run_scenario("b");
    EXPECT_EQ(second.sampled, first.sampled);
    EXPECT_EQ(second.scored, first.scored);
    EXPECT_EQ(std::memcmp(&first.mean_rel_err, &second.mean_rel_err,
                          sizeof(double)),
              0)
        << first.mean_rel_err << " vs " << second.mean_rel_err;
    EXPECT_EQ(std::memcmp(&first.variance, &second.variance,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&first.p90_rel_err, &second.p90_rel_err,
                          sizeof(double)),
              0);
    EXPECT_TRUE(second.fired);
}

TEST(TraceObsE2E, UnsampledTrafficRecordsNoSpansServerSide)
{
    // With tracing disabled end to end (no PPM_TRACE_SAMPLE, no
    // sampled bit on the wire), an in-process predict server must not
    // accumulate spans — the off path stays off.
    const serve::ModelSnapshot snap = buildSnapshot(1, 100);
    const std::string snap_path = uniquePath("quiet", ".ppmm");
    serve::saveSnapshot(snap, snap_path);
    serve::ServerOptions opts;
    opts.socket_path = uniquePath("quiet", ".sock");
    opts.num_workers = 1;
    opts.predict_snapshot = snap_path;
    serve::SimServer server(opts);
    server.start();

    obs::setTraceSampleEvery(0);
    obs::SpanBuffer::instance().clear();
    serve::PredictOracle oracle(snap,
                                fastRemote({opts.socket_path}));
    oracle.evaluateAll(queryBatch(8));
    EXPECT_TRUE(obs::SpanBuffer::instance().snapshot().empty());

    server.stop();
    ::unlink(snap_path.c_str());
    ::unlink(opts.socket_path.c_str());
}

} // namespace
