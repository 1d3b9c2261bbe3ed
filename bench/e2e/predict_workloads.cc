/**
 * @file
 * predict_point and predict_batch: PREDICT serving through
 * serve::PredictOracle::evaluateAll against a spawned
 * `ppm_serve --predict`, serving the mcf model ppm_publish trained at
 * the Table 3 configuration.
 *
 * predict_point sends 1-point requests from two generator threads, so
 * connect, framing, CRC, syscalls and accept dominate and the RBF
 * kernel is negligible: a transport change shows here, a kernel change
 * should not. predict_batch sends 1024-point calls (4 chunks of 256
 * over 4 connections) from one thread and pushes the same network at
 * version + 1 every second, so point validation, toUnit, the SIMD
 * kernel and frame encoding dominate, beside hot-swap writes.
 *
 * Each run has an open-loop phase (requests timed from their due
 * time, so a stall is charged to every request it delays) and a
 * closed-loop phase (generators back to back, for capacity). Every
 * call is checked bit for bit against predictWithSnapshot on the same
 * snapshot; a call that throws or falls back to the local snapshot
 * counts as failed, otherwise a dead server would look fast.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "e2e.hh"
#include "math/rng.hh"
#include "obs/metrics.hh"
#include "sampling/sample_gen.hh"
#include "serve/model_snapshot.hh"
#include "serve/predict_oracle.hh"
#include "serve/protocol.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"

namespace ppm::e2e {

namespace {

/** predict_point open-loop rate, both generator threads together. */
constexpr double kPointRate = 10'000.0;
/**
 * predict_batch open-loop rate in 1024-point calls per second: one
 * third of the closed-loop capacity measured when the benchmark was
 * defined, rounded and frozen so later changes are measured at the
 * same offered load.
 */
constexpr double kBatchRate = 500.0;
constexpr std::size_t kBatchPoints = 1024;
constexpr int kServerWorkers = 2;
/** A request sent more than this past its due time is late. */
constexpr double kLateUs = 100.0;
/** Version ppm_publish stamps on the served snapshot. */
constexpr std::uint64_t kPublishedVersion = 1;

double
micros(Clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

Clock::duration
fromSeconds(double s)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
}

/** One request and the values predictWithSnapshot gives for it. */
struct Query
{
    std::vector<dspace::DesignPoint> points;
    std::vector<double> expected;
};

/** What one generator thread saw in one phase. */
struct CallLog
{
    std::vector<double> latency_us; //!< completion - due (open loop)
    std::vector<double> lag_us;     //!< send - due (open loop)
    std::vector<double> call_us;    //!< evaluateAll wall time
    std::vector<double> window_rate; //!< points/s per closed-loop window
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    std::uint64_t calls = 0, failed = 0, mismatched = 0, stale = 0;
    std::string first_error;
};

/** One request/reply on a fresh connection (not through the client). */
serve::Frame
exchangeOnce(const std::string &socket,
             const std::vector<std::uint8_t> &frame)
{
    serve::FdGuard fd =
        serve::connectEndpoint(serve::parseEndpoint(socket), 2000);
    serve::writeFrame(fd.get(), frame, 5000);
    return serve::readFrame(fd.get(), 5000);
}

bool
modelReady(const std::string &socket, std::uint64_t version)
{
    try {
        const serve::Frame reply =
            exchangeOnce(socket, serve::encodeModelInfoRequest(1));
        if (reply.type != serve::MsgType::ModelInfoResponse)
            return false;
        const serve::ModelInfo info =
            serve::parseModelInfoResponse(reply.payload);
        return info.loaded && info.model_version == version;
    } catch (const std::exception &) {
        return false;
    }
}

/** (count, total_ns) of the server's slo.predict histogram. */
std::pair<std::uint64_t, std::uint64_t>
sloPredict(const std::string &socket)
{
    const serve::Frame reply =
        exchangeOnce(socket, serve::encodeStatsRequest(1));
    if (reply.type != serve::MsgType::StatsResponse)
        throw std::runtime_error("STATS request refused");
    for (const obs::HistogramValue &h :
         serve::parseStatsResponse(reply.payload).histograms)
        if (h.name == "slo.predict")
            return {h.count, h.total_ns};
    return {0, 0};
}

/**
 * Sends the served network back at version + 1 every interval, from
 * the generator thread between calls. Frames are encoded before
 * timing starts.
 */
class Pusher
{
  public:
    Pusher(const std::string &socket, const serve::ModelSnapshot &base,
           double interval_s, std::size_t max_pushes)
        : socket_(socket), interval_(fromSeconds(interval_s)),
          version_(base.model_version), last_(Clock::now())
    {
        for (std::size_t i = 1; i <= max_pushes; ++i) {
            serve::ModelSnapshot snap = base;
            snap.model_version = base.model_version + i;
            frames_.push_back(
                serve::encodeModelPush(serve::encodeSnapshot(snap)));
        }
    }

    void
    maybePush()
    {
        if (Clock::now() - last_ < interval_ || swaps_ >= frames_.size())
            return;
        last_ = Clock::now();
        try {
            const serve::Frame reply = exchangeOnce(socket_, frames_[swaps_]);
            const serve::ModelPushAck ack =
                serve::parseModelPushAck(reply.payload);
            if (!ack.accepted || ack.model_version != version_ + 1)
                ++bad_acks_;
            version_ = ack.model_version;
        } catch (const std::exception &) {
            ++bad_acks_;
        }
        ++swaps_;
    }

    /** Version the server must echo now. */
    std::uint64_t version() const { return version_; }
    std::uint64_t swaps() const { return swaps_; }
    std::uint64_t badAcks() const { return bad_acks_; }

  private:
    std::string socket_;
    Clock::duration interval_;
    std::vector<std::vector<std::uint8_t>> frames_;
    std::uint64_t version_;
    std::uint64_t swaps_ = 0;
    std::uint64_t bad_acks_ = 0;
    Clock::time_point last_;
};

/** One generator thread: its oracle, queries and (batch) pusher. */
struct Generator
{
    std::unique_ptr<serve::PredictOracle> oracle;
    const std::vector<Query> *queries = nullptr;
    std::size_t next = 0;
    Pusher *pusher = nullptr;

    /** One evaluateAll call, checked; returns points answered. */
    std::size_t
    call(CallLog &log)
    {
        const Query &q = (*queries)[next];
        next = (next + 1) % queries->size();
        ++log.calls;
        const std::uint64_t fallback0 = oracle->fallbackPoints();
        try {
            const std::vector<double> values =
                oracle->evaluateAll(q.points);
            if (oracle->fallbackPoints() != fallback0) {
                ++log.failed;
                if (log.first_error.empty())
                    log.first_error = "fell back to the local snapshot";
            } else if (!sameBits(values, q.expected)) {
                ++log.failed;
                ++log.mismatched;
            } else if (oracle->serverVersion() !=
                       (pusher ? pusher->version() : kPublishedVersion)) {
                ++log.stale;
            }
        } catch (const std::exception &e) {
            ++log.failed;
            if (log.first_error.empty())
                log.first_error = e.what();
        }
        return q.points.size();
    }

    /** Send on a fixed schedule; time each call from its due time. */
    void
    openLoop(Clock::time_point start, double seconds, double interval_s,
             double offset_s, bool traced, CallLog &log)
    {
        prctl(PR_SET_TIMERSLACK, 1UL);
        const Clock::time_point end = start + fromSeconds(seconds);
        for (std::uint64_t i = 0;; ++i) {
            const Clock::time_point due =
                start + fromSeconds(offset_s + double(i) * interval_s);
            if (due >= end)
                break;
            if (pusher)
                pusher->maybePush();
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            call(log);
            const Clock::time_point done = Clock::now();
            log.latency_us.push_back(micros(done - due));
            log.lag_us.push_back(micros(sent - due));
            log.call_us.push_back(micros(done - sent));
            if (traced)
                log.spans.emplace_back(toNs(sent), toNs(done));
        }
    }

    /** Back-to-back calls; one points/s figure per window. */
    void
    closedLoop(Clock::time_point start, double window_s,
               const std::vector<bool> &traced_windows, CallLog &log)
    {
        Clock::time_point window_start = Clock::now();
        for (std::size_t w = 0; w < traced_windows.size(); ++w) {
            const Clock::time_point end =
                start + fromSeconds(window_s * double(w + 1));
            std::uint64_t points = 0;
            Clock::time_point now = window_start;
            while (now < end) {
                if (pusher)
                    pusher->maybePush();
                const Clock::time_point sent = Clock::now();
                points += call(log);
                now = Clock::now();
                if (traced_windows[w])
                    log.spans.emplace_back(toNs(sent), toNs(now));
            }
            log.window_rate.push_back(
                double(points) /
                std::chrono::duration<double>(now - window_start).count());
            window_start = now;
        }
    }
};

/**
 * Run @p body(t, generator t, its log) on one thread per generator,
 * run @p meanwhile on the calling thread, then join.
 */
template <typename Body, typename Meanwhile>
std::vector<CallLog>
onThreads(std::vector<Generator> &generators, Body body,
          Meanwhile meanwhile)
{
    std::vector<CallLog> logs(generators.size());
    {
        std::vector<std::jthread> threads; // joined on scope exit
        for (std::size_t t = 0; t < generators.size(); ++t)
            threads.emplace_back(
                [&, t] { body(t, generators[t], logs[t]); });
        meanwhile();
    }
    return logs;
}

/** Concatenate one field over every thread's log. */
std::vector<double>
gather(const std::vector<CallLog> &logs,
       std::vector<double> CallLog::*field)
{
    std::vector<double> out;
    for (const CallLog &log : logs)
        out.insert(out.end(), (log.*field).begin(), (log.*field).end());
    return out;
}

} // namespace

void
runPredictWorkload(const RunConfig &config, const Binaries &bins,
                   Report &report, SpanLog *spans, double kill_server_at)
{
    const bool batch = config.workload == "predict_batch";
    const bool killing = kill_server_at > 0;
    const Scale &scale = config.scale;
    const std::string tag =
        config.work_dir + "/" + std::to_string(getpid()) + "-" +
        config.workload;
    const std::string snapshot_path = tag + ".ppmm";
    const std::string socket = tag + ".sock";
    // Declared before the server so the files go after it is reaped.
    struct RemoveOnExit
    {
        std::vector<std::string> paths;
        ~RemoveOnExit()
        {
            for (const std::string &path : paths)
                std::remove(path.c_str());
        }
    } cleanup{{snapshot_path, socket}};

    // Setup: publish once (the user's own train-and-publish path)...
    double publish_s = 0;
    timed(spans, "setup.publish", -1, "mcf", publish_s, [&] {
        ChildProcess publish(
            {bins.publish, "--out", snapshot_path, "--benchmark", "mcf",
             "--samples", std::to_string(scale.samples), "--warmup",
             std::to_string(scale.warmup), "--trace-length",
             std::to_string(scale.trace_length), "--seed",
             std::to_string(config.seed), "--model-version",
             std::to_string(kPublishedVersion)});
        if (publish.wait() != 0)
            throw std::runtime_error("ppm_publish failed");
    });
    const serve::ModelSnapshot snapshot = serve::loadSnapshot(snapshot_path);
    report.note("model_centers", double(snapshot.network.numBases()));

    // ...generate the queries and their expected values (not timed)...
    math::Rng rng(config.seed);
    std::vector<Query> queries(batch ? 8 : 4096);
    for (Query &q : queries) {
        q.points = sampling::randomTestSet(
            snapshot.space, batch ? int(kBatchPoints) : 1, rng);
        q.expected = serve::predictWithSnapshot(snapshot, q.points);
    }

    // ...then bring the server from exec to ready, kSetupRounds times.
    std::vector<double> ready_s;
    std::unique_ptr<ChildProcess> server;
    for (int round = 0; round < kSetupRounds; ++round) {
        if (server)
            server->stop(SIGTERM);
        double seconds = 0;
        timed(spans, "setup.server_ready", -1, "server", seconds, [&] {
            const Clock::time_point deadline =
                Clock::now() + std::chrono::seconds(20);
            server = std::make_unique<ChildProcess>(std::vector<std::string>{
                bins.serve, "--socket", socket, "--workers",
                std::to_string(kServerWorkers), "--predict",
                snapshot_path});
            while (!modelReady(socket, kPublishedVersion)) {
                if (Clock::now() > deadline)
                    throw std::runtime_error("server not ready in 20 s");
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
        ready_s.push_back(seconds);
    }
    report.set("setup_s", publish_s + median(ready_s), "s", ready_s.size());
    report.note("publish_s", publish_s);
    report.note("server_ready_s", median(ready_s));
    const pid_t server_pid = server->pid();

    serve::RemoteOptions options;
    options.sockets = {socket};
    if (batch) {
        options.chunk_points = 256;
        options.max_connections = 4;
    }
    std::unique_ptr<Pusher> pusher;
    if (batch)
        pusher = std::make_unique<Pusher>(
            socket, snapshot, config.smoke ? 0.1 : 1.0,
            std::size_t(config.seconds * (config.smoke ? 10 : 1)) + 2);
    std::vector<Generator> generators(batch ? 1 : 2);
    for (std::size_t t = 0; t < generators.size(); ++t) {
        generators[t].oracle =
            std::make_unique<serve::PredictOracle>(snapshot, options);
        generators[t].queries = &queries;
        generators[t].next = t * queries.size() / generators.size();
        generators[t].pusher = pusher.get();
    }
    obs::Counter &connects = obs::Registry::instance().counter(
        "remote.ep." + serve::parseEndpoint(socket).display() + ".connects");

    // Phase A: open loop, 60% of the run.
    const double open_s = 0.6 * config.seconds;
    const double rate = batch ? kBatchRate : kPointRate;
    const double interval_s = double(generators.size()) / rate;
    const auto slo0 = sloPredict(socket);
    const std::uint64_t connects0 = connects.value();
    const std::int64_t open_span =
        spans ? spans->open("phase.open_loop", -1, config.workload) : -1;
    const Clock::time_point open_start =
        Clock::now() + std::chrono::milliseconds(5);
    const std::vector<CallLog> open = onThreads(
        generators,
        [&](std::size_t t, Generator &g, CallLog &log) {
            g.openLoop(open_start, open_s, interval_s,
                       interval_s * double(t) / double(generators.size()),
                       spans != nullptr, log);
        },
        [&] {
            if (!killing)
                return;
            std::this_thread::sleep_until(open_start +
                                          fromSeconds(kill_server_at));
            server->stop(SIGKILL);
        });
    if (spans)
        spans->close(open_span);
    const std::uint64_t connects1 = connects.value();
    const auto slo1 = killing ? slo0 : sloPredict(socket);

    // Phase B: closed loop, 40% of the run in windows; the traced run
    // alternates untraced and traced windows to price the tracing.
    const std::vector<bool> traced_windows =
        spans ? std::vector<bool>{false, true, false, true}
              : std::vector<bool>{false, false, false};
    const double window_s =
        0.4 * config.seconds / double(traced_windows.size());
    const double cpu0 = processCpuSeconds();
    const double server_cpu0 = killing ? 0 : childCpuSeconds(server_pid);
    const std::int64_t closed_span =
        spans ? spans->open("phase.closed_loop", -1, config.workload) : -1;
    const Clock::time_point closed_start = Clock::now();
    const std::vector<CallLog> closed = onThreads(
        generators,
        [&](std::size_t, Generator &g, CallLog &log) {
            g.closedLoop(closed_start, window_s, traced_windows, log);
        },
        [] {});
    if (spans)
        spans->close(closed_span);
    const double client_cpu = processCpuSeconds() - cpu0;
    const double server_cpu =
        killing ? 0 : childCpuSeconds(server_pid) - server_cpu0;
    const double server_rss = killing ? 0 : childPeakRssMb(server_pid);
    if (!killing) {
        const int status = server->stop(SIGTERM);
        report.check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                     "ppm_serve did not exit cleanly on SIGTERM");
    }
    server.reset();

    // Correctness and failure accounting over both phases.
    std::uint64_t calls_open = 0, calls_closed = 0;
    for (const auto *logs : {&open, &closed})
        for (std::size_t t = 0; t < logs->size(); ++t) {
            const CallLog &log = (*logs)[t];
            (logs == &open ? calls_open : calls_closed) += log.calls;
            report.attempted += log.calls;
            report.failed += log.failed;
            report.check(log.mismatched == 0,
                         std::to_string(log.mismatched) +
                             " calls not bit-identical to "
                             "predictWithSnapshot");
            report.check(log.stale == 0,
                         std::to_string(log.stale) +
                             " calls echoed an unexpected model version");
            if (!log.first_error.empty())
                report.note("first_error", log.first_error);
            // Request id: generator thread and call index.
            const std::string thread_id = std::to_string(t) + "#";
            if (spans)
                for (std::size_t i = 0; i < log.spans.size(); ++i)
                    spans->add("client.call",
                               logs == &open ? open_span : closed_span,
                               thread_id + std::to_string(i),
                               log.spans[i].first, log.spans[i].second);
        }
    if (pusher) {
        report.check(pusher->badAcks() == 0,
                     "MODEL push rejected or acked out of order");
        report.check(pusher->swaps() > 0, "no MODEL push was sent");
    }

    // End-to-end metrics.
    const std::vector<double> latency = gather(open, &CallLog::latency_us);
    const std::vector<double> lag = gather(open, &CallLog::lag_us);
    const std::vector<double> call_us = gather(open, &CallLog::call_us);
    std::vector<double> untraced_rate, traced_rate;
    for (std::size_t w = 0; w < traced_windows.size(); ++w) {
        double rate_w = 0;
        for (const CallLog &log : closed)
            rate_w += log.window_rate.at(w);
        (traced_windows[w] ? traced_rate : untraced_rate).push_back(rate_w);
    }
    report.set("latency_p50_ms", median(latency) * 1e-3, "ms",
               latency.size());
    report.set("points_per_s", median(untraced_rate), "points/s",
               untraced_rate.size());
    report.set("peak_rss_mb", server_rss, "MiB", 1);
    double late = 0;
    for (double l : lag)
        late += l > kLateUs ? 1 : 0;
    report.note("open_loop_rate_per_s", rate);
    report.note("latency_p99_us", quantile(latency, 0.99));
    report.note("latency_p999_us", quantile(latency, 0.999));
    report.note("generator_late_frac", late / double(lag.size()));

    if (!spans)
        return;

    // Per-layer metrics, timed from outside.
    const double call_mean = mean(call_us);
    const double handle_mean =
        slo1.first > slo0.first
            ? double(slo1.second - slo0.second) /
                  double(slo1.first - slo0.first) * 1e-3
            : 0.0;
    const auto n_open = static_cast<std::uint64_t>(calls_open);
    report.set("client.call_us.mean", call_mean, "us", n_open);
    report.set("predict.p99_us", quantile(latency, 0.99), "us", n_open);
    report.set("predict.p999_us", quantile(latency, 0.999), "us", n_open);
    report.set("server.handle_us.mean", handle_mean, "us",
               slo1.first - slo0.first);
    report.set("transport_us.mean", call_mean - handle_mean, "us", n_open);
    report.set("client.connects_per_call",
               double(connects1 - connects0) / double(calls_open), "count",
               n_open);
    report.set("client.cpu_us_per_call",
               client_cpu * 1e6 / double(calls_closed), "us", calls_closed);
    report.set("server.cpu_us_per_call",
               server_cpu * 1e6 / double(calls_closed), "us", calls_closed);
    report.set("generator.lag_us.p99", quantile(lag, 0.99), "us", n_open);
    report.set("generator.late_frac", late / double(lag.size()), "ratio",
               n_open);
    report.set("model.swaps", pusher ? double(pusher->swaps()) : 0.0,
               "count", 1);
    std::uint64_t max_version = 0;
    for (const Generator &g : generators)
        max_version = std::max(max_version, g.oracle->serverVersion());
    report.set("model.max_version_seen", double(max_version), "count", 1);
    report.set("trace.overhead",
               median(untraced_rate) / median(traced_rate) - 1.0, "ratio",
               traced_rate.size());

    // The kernel alone: the same requests through predictWithSnapshot
    // in this process.
    double local_s = 0;
    std::uint64_t local_points = 0;
    bool local_same = true;
    timed(spans, "rbf.local", -1, config.workload, local_s, [&] {
        const Clock::time_point start = Clock::now();
        std::size_t i = 0;
        do {
            const Query &q = queries[i];
            local_same = local_same &&
                         sameBits(serve::predictWithSnapshot(snapshot,
                                                             q.points),
                                  q.expected);
            local_points += q.points.size();
            i = (i + 1) % queries.size();
        } while (i != 0 || secondsSince(start) < 0.2);
    });
    report.check(local_same, "local predictWithSnapshot is not repeatable");
    report.set("rbf.local_us_per_point",
               local_s * 1e6 / double(local_points), "us", local_points);
}

} // namespace ppm::e2e
