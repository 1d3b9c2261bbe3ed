/**
 * @file
 * ppm_stats: poll running ppm_serve processes for their metric
 * registries (the v2 Stats frame) and print the merged view.
 *
 *   ppm_stats [--socket ENDPOINT[,ENDPOINT...]] [--json] [--no-local]
 *             [--timeout MS] [--watch SECONDS]
 *
 * Endpoints default to $PPM_SERVE_SOCKET (comma-separated; Unix
 * socket paths and TCP host:port specs mix freely). Every reachable
 * server contributes one snapshot; snapshots are merged by metric
 * name (counters and histogram buckets sum, gauges sum) along with
 * this process's own registry, and the result prints as an aligned
 * table (default) or a single JSON object (--json).
 *
 * --watch SECONDS polls twice, SECONDS apart, and prints per-second
 * rates over the interval instead of absolute totals: counter and
 * histogram deltas divided by the interval (clamped at zero across
 * server restarts), gauges as their current level. Histogram rows
 * carry interval p50/p95/p99 latency, and a per-endpoint SLO table
 * follows: request rate, latency quantiles over the slo.* request
 * histograms, error-budget burn (slo.errors.*) and live queue depth
 * for every polled server.
 *
 * Exit status: 0 when every requested endpoint answered (on every
 * poll), 1 when at least one was unreachable (the merged view of the
 * rest still prints), 2 on usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "serve/remote_oracle.hh"
#include "serve/socket_io.hh"
#include "serve/transport.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket ENDPOINT[,ENDPOINT...]] [--json]"
        " [--no-local] [--timeout MS] [--watch SECONDS]\n"
        "  --socket ENDPOINTS  comma-separated server endpoints to\n"
        "                      poll: Unix paths and/or host:port\n"
        "                      (default: $PPM_SERVE_SOCKET)\n"
        "  --json              print one JSON object instead of a"
        " table\n"
        "  --no-local          skip this process's own registry\n"
        "  --timeout MS        per-endpoint connect/IO timeout"
        " (default 2000)\n"
        "  --watch SECONDS     poll twice, SECONDS apart, and print\n"
        "                      per-second rates over the interval\n",
        argv0);
}

/** Fetch one server's snapshot; throws IoError/ProtocolError. */
ppm::obs::Snapshot
pollSocket(const std::string &socket, int timeout_ms)
{
    using namespace ppm::serve;
    return parseStatsResponse(requestOnce(socket, encodeStatsRequest(1),
                                          MsgType::StatsResponse,
                                          timeout_ms)
                                  .payload);
}

/** One poll: the merged view plus each endpoint's own snapshot
 * (nullopt = unreachable), from a single connection per endpoint. */
struct PollResult
{
    ppm::obs::Snapshot merged;
    std::vector<std::optional<ppm::obs::Snapshot>> per_endpoint;
};

PollResult
pollAll(const std::vector<std::string> &sockets, bool include_local,
        int timeout_ms, int &unreachable)
{
    PollResult result;
    if (include_local)
        result.merged = ppm::obs::Registry::instance().snapshot();
    result.per_endpoint.reserve(sockets.size());
    for (const std::string &socket : sockets) {
        try {
            ppm::obs::Snapshot snap = pollSocket(socket, timeout_ms);
            ppm::obs::merge(result.merged, snap);
            result.per_endpoint.push_back(std::move(snap));
        } catch (const std::exception &e) {
            ++unreachable;
            result.per_endpoint.push_back(std::nullopt);
            std::fprintf(stderr, "ppm_stats: %s: %s\n",
                         socket.c_str(), e.what());
        }
    }
    return result;
}

/** The --watch rate view: per-second rates of a poll-to-poll delta,
 * with interval latency quantiles per histogram. */
std::string
rateTable(const ppm::obs::Snapshot &d, double seconds)
{
    std::string out;
    char line[256];
    if (!d.counters.empty()) {
        out += "counters (per second):\n";
        for (const auto &c : d.counters) {
            std::snprintf(line, sizeof(line), "  %-36s %14.2f\n",
                          c.name.c_str(),
                          static_cast<double>(c.value) / seconds);
            out += line;
        }
    }
    if (!d.gauges.empty()) {
        out += "gauges (level):\n";
        for (const auto &g : d.gauges) {
            std::snprintf(line, sizeof(line), "  %-36s %14lld\n",
                          g.name.c_str(),
                          static_cast<long long>(g.value));
            out += line;
        }
    }
    if (!d.histograms.empty()) {
        out += "histograms:                             "
               "    per_s   mean_us    p50_us    p95_us    p99_us\n";
        for (const auto &h : d.histograms) {
            const double mean_us =
                h.count == 0 ? 0.0
                             : static_cast<double>(h.total_ns) /
                                   static_cast<double>(h.count) / 1e3;
            std::snprintf(
                line, sizeof(line),
                "  %-36s %9.2f %9.1f %9.1f %9.1f %9.1f\n",
                h.name.c_str(),
                static_cast<double>(h.count) / seconds, mean_us,
                static_cast<double>(ppm::obs::quantileNs(h, 0.50)) /
                    1e3,
                static_cast<double>(ppm::obs::quantileNs(h, 0.95)) /
                    1e3,
                static_cast<double>(ppm::obs::quantileNs(h, 0.99)) /
                    1e3);
            out += line;
        }
    }
    if (out.empty())
        out = "(no metrics)\n";
    return out;
}

/**
 * The --watch SLO view: one row per endpoint, built from that
 * endpoint's own poll-to-poll delta — served request rate and
 * interval latency quantiles over the per-family slo.* histograms,
 * error-budget burn from the slo.errors.* counters, and the live
 * queue depth: the workers serving a frame (serve.busy_workers).
 */
std::string
sloTable(const std::vector<std::string> &sockets, const PollResult &a,
         const PollResult &b, double seconds)
{
    if (sockets.empty())
        return "";
    std::string out =
        "slo (per endpoint):                     "
        "    req_s    p50_us    p95_us    p99_us     err_s  queue\n";
    char line[256];
    for (std::size_t i = 0; i < sockets.size(); ++i) {
        if (i >= b.per_endpoint.size() || !b.per_endpoint[i]) {
            std::snprintf(line, sizeof(line), "  %-36s %s\n",
                          sockets[i].c_str(), "unreachable");
            out += line;
            continue;
        }
        const ppm::obs::Snapshot empty;
        const ppm::obs::Snapshot d = ppm::obs::delta(
            *b.per_endpoint[i],
            i < a.per_endpoint.size() && a.per_endpoint[i]
                ? *a.per_endpoint[i]
                : empty);
        // All request families land in slo.* histograms; merge their
        // interval buckets for one endpoint-level latency profile.
        ppm::obs::HistogramValue slo;
        slo.buckets.assign(ppm::obs::Histogram::kBuckets, 0);
        for (const auto &h : d.histograms) {
            if (h.name.rfind("slo.", 0) != 0)
                continue;
            slo.count += h.count;
            slo.total_ns += h.total_ns;
            for (std::size_t bkt = 0;
                 bkt < h.buckets.size() && bkt < slo.buckets.size();
                 ++bkt)
                slo.buckets[bkt] += h.buckets[bkt];
        }
        std::uint64_t errors = 0;
        for (const auto &c : d.counters)
            if (c.name.rfind("slo.errors.", 0) == 0)
                errors += c.value;
        long long queue = 0;
        for (const auto &g : b.per_endpoint[i]->gauges)
            if (g.name == "serve.busy_workers")
                queue = g.value;
        std::snprintf(
            line, sizeof(line),
            "  %-36s %9.2f %9.1f %9.1f %9.1f %9.2f %6lld\n",
            sockets[i].c_str(),
            static_cast<double>(slo.count) / seconds,
            static_cast<double>(ppm::obs::quantileNs(slo, 0.50)) / 1e3,
            static_cast<double>(ppm::obs::quantileNs(slo, 0.95)) / 1e3,
            static_cast<double>(ppm::obs::quantileNs(slo, 0.99)) / 1e3,
            static_cast<double>(errors) / seconds, queue);
        out += line;
    }
    return out;
}

std::string
rateJson(const ppm::obs::Snapshot &d, double seconds)
{
    // Rates as doubles keyed like toJson; gauges stay integer levels.
    std::string out = "{\"interval_s\":" + std::to_string(seconds) +
                      ",\"counter_rates\":{";
    char num[64];
    bool first = true;
    for (const auto &c : d.counters) {
        if (!first)
            out.push_back(',');
        first = false;
        out += "\"" + c.name + "\":";
        std::snprintf(num, sizeof(num), "%.6f",
                      static_cast<double>(c.value) / seconds);
        out += num;
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto &g : d.gauges) {
        if (!first)
            out.push_back(',');
        first = false;
        out += "\"" + g.name + "\":" + std::to_string(g.value);
    }
    out += "},\"histogram_rates\":{";
    first = true;
    for (const auto &h : d.histograms) {
        if (!first)
            out.push_back(',');
        first = false;
        out += "\"" + h.name + "\":";
        std::snprintf(num, sizeof(num), "%.6f",
                      static_cast<double>(h.count) / seconds);
        out += num;
    }
    out += "}}";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> sockets = ppm::serve::socketsFromEnv();
    bool json = false;
    bool include_local = true;
    int timeout_ms = 2000;
    double watch_s = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--socket" && has_value) {
            sockets = ppm::serve::splitEndpointSpecs(argv[++i]);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--no-local") {
            include_local = false;
        } else if (arg == "--timeout" && has_value) {
            timeout_ms = std::atoi(argv[++i]);
        } else if (arg == "--watch" && has_value) {
            watch_s = std::atof(argv[++i]);
            if (watch_s <= 0.0) {
                std::fprintf(stderr,
                             "--watch needs a positive interval\n");
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    int unreachable = 0;
    const PollResult first =
        pollAll(sockets, include_local, timeout_ms, unreachable);

    if (watch_s > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(watch_s));
        const PollResult second =
            pollAll(sockets, include_local, timeout_ms, unreachable);
        const ppm::obs::Snapshot d =
            ppm::obs::delta(second.merged, first.merged);
        if (json) {
            std::printf("%s\n", rateJson(d, watch_s).c_str());
        } else {
            std::fputs(rateTable(d, watch_s).c_str(), stdout);
            std::fputs(sloTable(sockets, first, second, watch_s)
                           .c_str(),
                       stdout);
        }
        return unreachable == 0 ? 0 : 1;
    }

    if (json)
        std::printf("%s\n", ppm::obs::toJson(first.merged).c_str());
    else
        std::fputs(ppm::obs::toTable(first.merged).c_str(), stdout);
    return unreachable == 0 ? 0 : 1;
}
