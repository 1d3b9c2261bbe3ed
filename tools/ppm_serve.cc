/**
 * @file
 * ppm_serve: run a sharded simulation server on a Unix-domain socket
 * or a TCP endpoint.
 *
 *   ppm_serve [--socket PATH | --listen HOST:PORT] [--workers N]
 *             [--archive-dir DIR] [--predict SNAPSHOT]
 *             [--model-dir DIR] [--model-poll-ms N]
 *             [--fault-spec SPEC]
 *
 * With --predict the server additionally answers PREDICT batches from
 * the given model snapshot (published by ppm_publish); with
 * --model-dir (or PPM_MODEL_DIR) it watches a directory and
 * hot-swaps, with zero downtime, to any snapshot that appears there
 * with a greater model version. Snapshots can also be pushed over the
 * wire (MODEL push frames).
 *
 * Clients reach it by exporting PPM_SERVE_SOCKET=ENDPOINT
 * (comma-separate several endpoints — Unix paths and host:port specs
 * mix freely — to shard across several server processes or hosts) —
 * every bench and example built on serve::makeOracle() then evaluates
 * its batches remotely, with transparent fallback to in-process
 * simulation if the server goes away. With --archive-dir, every
 * simulation writes its CPI, EPI and ED2P values to CRC-checked
 * append-only logs before it answers, and they are replayed for free
 * across restarts.
 *
 * TCP mode is unauthenticated and unencrypted: bind loopback or a
 * trusted network only.
 *
 * --fault-spec (or PPM_FAULT_SPEC) installs the deterministic
 * transport fault injector for chaos rehearsal; see
 * serve/fault_injector.hh for the grammar.
 *
 * --drift-sample N (or PPM_DRIFT_SAMPLE) shadow-checks every Nth
 * served PREDICT point against ground truth already in the result
 * cache and exports model.drift.* metrics; a model whose observed
 * error degrades past --drift-threshold times its training-time CV
 * error fires a one-shot model_drift event (see drift_monitor.hh).
 *
 * Stops cleanly on SIGINT/SIGTERM. Archives need no flush on the way
 * out, so a SIGKILL loses no simulation either. PPM_LOG=stderr logs
 * new simulation contexts, answered EVAL requests and failed requests
 * as JSONL events.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "serve/fault_injector.hh"
#include "serve/remote_oracle.hh"
#include "serve/sim_server.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket PATH | --listen HOST:PORT] [--workers N]"
        " [--archive-dir DIR] [--predict SNAPSHOT] [--model-dir DIR]"
        " [--model-poll-ms N] [--cache-mb N] [--fault-spec SPEC]\n"
        "  --socket PATH       Unix socket to listen on (default:\n"
        "                      first entry of $PPM_SERVE_SOCKET, else\n"
        "                      /tmp/ppm_serve.sock)\n"
        "  --listen HOST:PORT  TCP endpoint to listen on instead\n"
        "                      (port 0 = kernel-assigned; printed on\n"
        "                      startup). Unauthenticated: bind\n"
        "                      loopback or a trusted network only\n"
        "  --workers N         concurrent request workers (default 1)\n"
        "  --archive-dir DIR   persist results to DIR (CRC-checked\n"
        "                      append-only archive, replayed on reuse)\n"
        "  --predict SNAPSHOT  serve PREDICT queries from this model\n"
        "                      snapshot (see ppm_publish)\n"
        "  --model-dir DIR     watch DIR for *.ppmm snapshots and\n"
        "                      hot-swap to newer model versions\n"
        "                      (default: $PPM_MODEL_DIR when set)\n"
        "  --model-poll-ms N   model directory poll interval\n"
        "                      (default 200)\n"
        "  --cache-mb N        shared result-cache budget in MiB\n"
        "                      (default: $PPM_CACHE_MB, else 16)\n"
        "  --fault-spec SPEC   install the deterministic transport\n"
        "                      fault injector (chaos rehearsal), e.g.\n"
        "                      seed=1;drop=0.1;delay=0.1;delay_ms=5\n"
        "  --drift-sample N    shadow-check every Nth served PREDICT\n"
        "                      point against cached ground truth\n"
        "                      (default: $PPM_DRIFT_SAMPLE, else off)\n"
        "  --drift-threshold X fire the model_drift event when mean\n"
        "                      relative error exceeds X times the\n"
        "                      snapshot's training CV error"
        " (default 2.0)\n"
        "  --drift-min-samples N  residuals required before the event\n"
        "                      can fire (default 32)\n",
        argv0);
}

std::string
defaultSocket()
{
    const auto env = ppm::serve::socketsFromEnv();
    return env.empty() ? std::string("/tmp/ppm_serve.sock")
                       : env.front();
}

} // namespace

int
main(int argc, char **argv)
{
    ppm::serve::ServerOptions options;
    options.socket_path = defaultSocket();
    if (const char *dir = std::getenv("PPM_MODEL_DIR"))
        options.model_dir = dir;
    if (const char *sample = std::getenv("PPM_DRIFT_SAMPLE"))
        options.drift.sample_every = static_cast<std::uint32_t>(
            std::strtoul(sample, nullptr, 10));

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if ((arg == "--socket" || arg == "--listen") && has_value) {
            options.socket_path = argv[++i];
        } else if (arg == "--fault-spec" && has_value) {
            try {
                ppm::serve::FaultInjector::install(
                    std::make_shared<ppm::serve::FaultInjector>(
                        ppm::serve::FaultSpec::parse(argv[++i])));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "ppm_serve: %s\n", e.what());
                return 2;
            }
        } else if (arg == "--workers" && has_value) {
            options.num_workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--archive-dir" && has_value) {
            options.archive_dir = argv[++i];
        } else if (arg == "--predict" && has_value) {
            options.predict_snapshot = argv[++i];
        } else if (arg == "--model-dir" && has_value) {
            options.model_dir = argv[++i];
        } else if (arg == "--model-poll-ms" && has_value) {
            options.model_poll_ms = static_cast<int>(
                std::strtol(argv[++i], nullptr, 10));
        } else if (arg == "--cache-mb" && has_value) {
            options.cache_mb = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--drift-sample" && has_value) {
            options.drift.sample_every = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--drift-threshold" && has_value) {
            options.drift.threshold_ratio = std::atof(argv[++i]);
        } else if (arg == "--drift-min-samples" && has_value) {
            options.drift.min_samples = std::strtoull(
                argv[++i], nullptr, 10);
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

    // Block the shutdown signals before spawning workers so every
    // thread inherits the mask and sigwait() below gets them.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    ppm::serve::SimServer server(options);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ppm_serve: failed to start: %s\n",
                     e.what());
        return 1;
    }
    // Print the *bound* endpoint: for --listen host:0 this carries
    // the kernel-assigned port clients must connect to.
    std::fprintf(stderr,
                 "ppm_serve: listening on %s (%u worker%s%s%s)\n",
                 server.endpointSpec().c_str(), options.num_workers,
                 options.num_workers == 1 ? "" : "s",
                 options.archive_dir.empty() ? "" : ", archive ",
                 options.archive_dir.c_str());
    if (server.modelVersion() != 0)
        std::fprintf(stderr, "ppm_serve: serving model v%llu\n",
                     static_cast<unsigned long long>(
                         server.modelVersion()));

    int caught = 0;
    sigwait(&signals, &caught);
    std::fprintf(stderr, "ppm_serve: caught %s after %llu requests, "
                         "%llu simulations; shutting down\n",
                 caught == SIGINT ? "SIGINT" : "SIGTERM",
                 static_cast<unsigned long long>(
                     server.requestsServed()),
                 static_cast<unsigned long long>(
                     server.totalEvaluations()));
    server.stop();
    return 0;
}
