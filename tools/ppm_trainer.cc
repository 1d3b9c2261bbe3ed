/**
 * @file
 * ppm_trainer: the continuous-training daemon — tails shard result
 * archives, folds fresh points into the model incrementally, and
 * republishes hot-swappable snapshots.
 *
 *   ppm_trainer --model-dir DIR (--archive-dir DIR | --archive FILE)...
 *               [--state FILE] [--out FILE.ppmm]
 *               [--benchmark NAME] [--trace-length N] [--warmup N]
 *               [--poll-ms N] [--once] [--model-version V]
 *               [--min-train N] [--refit-growth F]
 *               [--push ENDPOINT]
 *               [--arm-on-drift --stats ENDPOINT] [--verbose]
 *
 * Each --archive-dir contributes one shard archive (the canonical
 * file for the oracle context inside that directory — the file
 * `ppm_serve --archive-dir` writes); --archive names an archive file
 * directly. All archives are tailed from byte offsets persisted in
 * the state file (default `ppm_trainer.state` in --model-dir), so a
 * crashed or restarted trainer resumes exactly where it stopped: no
 * result is ever folded twice or skipped.
 *
 * Snapshots are published atomically to --out (default: the
 * canonical `<benchmark>_t<N>_w<N>_<METRIC>.ppmm` in --model-dir,
 * where a watching `ppm_serve --predict --model-dir` hot-swaps to
 * them) and optionally pushed to a running server with --push.
 *
 * --arm-on-drift holds publishing back until the serve plane's
 * DriftMonitor reports a drift event: the trainer keeps tailing and
 * folding, polls `model.drift.events` on the --stats endpoint, and
 * starts publishing once the counter rises above its value at
 * trainer startup — the drift alert becomes the retrain trigger.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "dspace/paper_space.hh"
#include "serve/model_snapshot.hh"
#include "serve/protocol.hh"
#include "serve/result_archive.hh"
#include "serve/socket_io.hh"
#include "train/online_trainer.hh"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --model-dir DIR | --out FILE.ppmm\n"
        "          (--archive-dir DIR | --archive FILE)...\n"
        "  --model-dir DIR    publish snapshots (and keep state) in\n"
        "                     this directory (the one a ppm_serve\n"
        "                     --predict --model-dir watches)\n"
        "  --out FILE.ppmm    explicit snapshot path (overrides the\n"
        "                     canonical name in --model-dir)\n"
        "  --state FILE       resume-offset checkpoint (default\n"
        "                     ppm_trainer.state in --model-dir)\n"
        "  --archive-dir DIR  tail the shard archive for this oracle\n"
        "                     context inside DIR (repeatable)\n"
        "  --archive FILE     tail this archive file (repeatable)\n"
        "  --benchmark NAME   benchmark profile (default twolf)\n"
        "  --trace-length N   trace instructions (default 100000)\n"
        "  --warmup N         warmup instructions (default 0)\n"
        "  --poll-ms N        tail poll interval (default 500)\n"
        "  --once             run one tail/fold/publish epoch and\n"
        "                     exit (0 = idle epoch, 3 = folded work)\n"
        "  --model-version V  fixed published version (default:\n"
        "                     monotone, derived from state)\n"
        "  --min-train N      points before the first full fit\n"
        "                     (default 8)\n"
        "  --refit-growth F   full refit when points grow by this\n"
        "                     factor (default 2.0)\n"
        "  --push ENDPOINT    push each published snapshot to a\n"
        "                     running ppm_serve\n"
        "  --arm-on-drift     publish only after a drift event\n"
        "  --stats ENDPOINT   STATS endpoint polled for\n"
        "                     model.drift.events (with\n"
        "                     --arm-on-drift)\n"
        "  --verbose          log epochs to stderr\n",
        argv0);
}

/** Sum of the server's model.drift.events counters; -1 on failure. */
long long
pollDriftEvents(const std::string &endpoint)
{
    using namespace ppm;
    try {
        const obs::Snapshot snap = serve::parseStatsResponse(
            serve::requestOnce(endpoint, serve::encodeStatsRequest(1),
                               serve::MsgType::StatsResponse, 5000)
                .payload);
        long long events = 0;
        for (const auto &counter : snap.counters) {
            if (counter.name == "model.drift.events")
                events += static_cast<long long>(counter.value);
        }
        return events;
    } catch (const std::exception &) {
        return -1; // server busy or briefly away; retry next epoch
    }
}

/** Push the snapshot to a running server; true when acknowledged. */
bool
pushSnapshot(const ppm::serve::ModelSnapshot &snap,
             const std::string &endpoint)
{
    using namespace ppm;
    const serve::ModelPushAck ack = serve::parseModelPushAck(
        serve::requestOnce(endpoint,
                           serve::encodeModelPush(
                               serve::encodeSnapshot(snap)),
                           serve::MsgType::ModelPushAck, 30000)
            .payload);
    if (!ack.accepted)
        std::fprintf(stderr, "ppm_trainer: push rejected at v%llu%s%s\n",
                     static_cast<unsigned long long>(
                         ack.model_version),
                     ack.message.empty() ? "" : ": ",
                     ack.message.c_str());
    return ack.accepted;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ppm;

    std::string model_dir;
    std::string out;
    std::string state;
    std::vector<std::string> archive_dirs;
    std::vector<std::string> archives;
    std::string benchmark = "twolf";
    std::uint64_t trace_length = 100000;
    std::uint64_t warmup = 0;
    std::uint64_t poll_ms = 500;
    bool once = false;
    std::uint64_t model_version = 0;
    std::size_t min_train = 8;
    double refit_growth = 2.0;
    std::string push_endpoint;
    bool arm_on_drift = false;
    std::string stats_endpoint;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--model-dir" && has_value) {
            model_dir = argv[++i];
        } else if (arg == "--out" && has_value) {
            out = argv[++i];
        } else if (arg == "--state" && has_value) {
            state = argv[++i];
        } else if (arg == "--archive-dir" && has_value) {
            archive_dirs.push_back(argv[++i]);
        } else if (arg == "--archive" && has_value) {
            archives.push_back(argv[++i]);
        } else if (arg == "--benchmark" && has_value) {
            benchmark = argv[++i];
        } else if (arg == "--trace-length" && has_value) {
            trace_length = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--warmup" && has_value) {
            warmup = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--poll-ms" && has_value) {
            poll_ms = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--model-version" && has_value) {
            model_version = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--min-train" && has_value) {
            min_train = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--refit-growth" && has_value) {
            refit_growth = std::strtod(argv[++i], nullptr);
        } else if (arg == "--push" && has_value) {
            push_endpoint = argv[++i];
        } else if (arg == "--arm-on-drift") {
            arm_on_drift = true;
        } else if (arg == "--stats" && has_value) {
            stats_endpoint = argv[++i];
        } else if (arg == "--verbose") {
            verbose = true;
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
    if ((model_dir.empty() && out.empty()) ||
        (archive_dirs.empty() && archives.empty()) ||
        (arm_on_drift && stats_endpoint.empty())) {
        usage(argv[0]);
        return 2;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    try {
        const core::Metric metric = core::Metric::Cpi;
        const std::string archive_name = serve::ResultArchive::
            fileNameFor(benchmark, trace_length, warmup, metric);
        if (out.empty())
            out = model_dir + "/" + benchmark + "_t" +
                  std::to_string(trace_length) + "_w" +
                  std::to_string(warmup) + "_" +
                  core::metricName(metric) + ".ppmm";
        if (state.empty() && !model_dir.empty())
            state = model_dir + "/ppm_trainer.state";

        train::OnlineTrainerOptions options;
        options.benchmark = benchmark;
        options.trace_length = trace_length;
        options.warmup = warmup;
        options.metric = metric;
        options.state_path = state;
        options.out_path = out;
        options.model_version = model_version;
        options.min_train_points = min_train;
        options.refit_growth = refit_growth;

        train::OnlineTrainer trainer(dspace::paperTrainSpace(),
                                     std::move(options));
        for (const auto &dir : archive_dirs)
            trainer.addArchive(dir + "/" + archive_name);
        for (const auto &path : archives)
            trainer.addArchive(path);

        long long drift_baseline = -1;
        if (arm_on_drift) {
            trainer.setArmed(false);
            drift_baseline = pollDriftEvents(stats_endpoint);
            if (verbose)
                std::fprintf(stderr,
                             "ppm_trainer: disarmed (drift events "
                             "baseline %lld)\n",
                             drift_baseline);
        }

        std::uint64_t total_folded = 0;
        std::uint64_t pushed_version = 0;
        while (g_stop == 0) {
            if (arm_on_drift && !trainer.armed()) {
                const long long events =
                    pollDriftEvents(stats_endpoint);
                if (events >= 0 && drift_baseline < 0)
                    drift_baseline = events; // first reachable poll
                if (events > drift_baseline && drift_baseline >= 0) {
                    trainer.setArmed(true);
                    std::fprintf(stderr,
                                 "ppm_trainer: drift event observed "
                                 "(%lld > %lld), armed\n",
                                 events, drift_baseline);
                }
            }

            const std::size_t folded = trainer.step();
            total_folded += folded;
            if (verbose && folded > 0)
                std::fprintf(
                    stderr,
                    "ppm_trainer: epoch folded %zu (total %llu "
                    "points, %llu refits, model v%llu)\n",
                    folded,
                    static_cast<unsigned long long>(trainer.folds()),
                    static_cast<unsigned long long>(
                        trainer.refits()),
                    static_cast<unsigned long long>(
                        trainer.modelVersion()));

            if (!push_endpoint.empty() &&
                trainer.publishes() > 0 &&
                trainer.modelVersion() != pushed_version) {
                if (pushSnapshot(trainer.lastPublished(),
                                 push_endpoint))
                    pushed_version = trainer.modelVersion();
            }

            if (once)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(poll_ms));
        }

        std::fprintf(
            stderr,
            "ppm_trainer: exiting with %llu points (%llu folded this "
            "run), %llu refits, %llu publishes, model v%llu\n",
            static_cast<unsigned long long>(trainer.folds()),
            static_cast<unsigned long long>(total_folded),
            static_cast<unsigned long long>(trainer.refits()),
            static_cast<unsigned long long>(trainer.publishes()),
            static_cast<unsigned long long>(trainer.modelVersion()));
        if (once)
            return total_folded > 0 ? 3 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ppm_trainer: %s\n", e.what());
        return 1;
    }
    return 0;
}
