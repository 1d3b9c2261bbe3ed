/**
 * @file
 * ppm_publish: train a CPI model and publish it as a versioned,
 * CRC-checked snapshot that ppm_serve --predict can host — the
 * sim → train → serve loop in one command.
 *
 *   ppm_publish --out FILE.ppmm [--benchmark NAME]
 *               [--trace-length N] [--warmup N] [--samples N]
 *               [--seed N] [--archive FILE] [--model-version V]
 *               [--push ENDPOINT] [--verbose]
 *
 * Two training-data modes:
 *
 *   default           generate the benchmark trace, draw the paper's
 *                     discrepancy-optimized latin hypercube sample,
 *                     and simulate it through serve::makeOracle() —
 *                     so PPM_SERVE_SOCKET shards the simulations and
 *                     PPM_ARCHIVE_DIR persists them, unchanged.
 *   --archive FILE    no simulation at all: train from the design
 *                     points already recorded in a ResultArchive
 *                     (e.g. one written by ppm_serve --archive-dir).
 *
 * The published snapshot carries the trained RBF network, the linear
 * baseline, and the design-space metadata servers validate queries
 * against. Publishing is atomic (temp file + rename): a watching
 * ppm_serve hot-swaps to it with zero downtime. When --out already
 * holds a loadable snapshot the new model_version defaults to its
 * version + 1, so repeated publishes always roll servers forward.
 *
 * --push additionally sends the image to a running server as a MODEL
 * push frame and reports the acknowledged version.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "linreg/model_selection.hh"
#include "math/rng.hh"
#include "obs/trace_context.hh"
#include "rbf/trainer.hh"
#include "sampling/sample_gen.hh"
#include "serve/model_snapshot.hh"
#include "serve/oracle_factory.hh"
#include "serve/result_archive.hh"
#include "serve/socket_io.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --out FILE.ppmm [--benchmark NAME]"
        " [--trace-length N] [--warmup N] [--samples N] [--seed N]"
        " [--archive FILE] [--model-version V] [--push ENDPOINT]"
        " [--verbose]\n"
        "  --out FILE.ppmm    snapshot to publish (atomic replace);\n"
        "                     required\n"
        "  --benchmark NAME   benchmark profile (default twolf)\n"
        "  --trace-length N   trace instructions (default 100000)\n"
        "  --warmup N         warmup instructions (default 0)\n"
        "  --samples N        training sample size (default 30)\n"
        "  --seed N           sampling seed (default 1)\n"
        "  --archive FILE     train from this ResultArchive instead\n"
        "                     of simulating (context must match the\n"
        "                     benchmark/trace-length/warmup above)\n"
        "  --model-version V  published version (default: version of\n"
        "                     the existing --out file + 1, else 1)\n"
        "  --push ENDPOINT    also push the image to a running\n"
        "                     ppm_serve (Unix path or host:port)\n"
        "  --verbose          log training detail to stderr\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ppm;

    std::string out;
    std::string benchmark = "twolf";
    std::uint64_t trace_length = 100000;
    std::uint64_t warmup = 0;
    int samples = 30;
    std::uint64_t seed = 1;
    std::string archive_path;
    std::uint64_t model_version = 0; // 0 = derive from --out
    std::string push_endpoint;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--out" && has_value) {
            out = argv[++i];
        } else if (arg == "--benchmark" && has_value) {
            benchmark = argv[++i];
        } else if (arg == "--trace-length" && has_value) {
            trace_length = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--warmup" && has_value) {
            warmup = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--samples" && has_value) {
            samples = static_cast<int>(
                std::strtol(argv[++i], nullptr, 10));
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--archive" && has_value) {
            archive_path = argv[++i];
        } else if (arg == "--model-version" && has_value) {
            model_version = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--push" && has_value) {
            push_endpoint = argv[++i];
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
    if (out.empty()) {
        usage(argv[0]);
        return 2;
    }

    try {
        const auto space = dspace::paperTrainSpace();
        const core::Metric metric = core::Metric::Cpi;

        // Sample -> train -> CV is one offline build: one trace root.
        std::vector<dspace::UnitPoint> xs;
        rbf::TrainedRbf trained;
        linreg::SelectedLinearModel linear;
        double cv_error = 0.0;
        {
            obs::TraceRoot trace_root("publish.build");
            // Training data: archived results, or fresh simulations.
            std::vector<dspace::DesignPoint> points;
            std::vector<double> ys;
            if (!archive_path.empty()) {
                // Archive keys are the memo-cache keys; invert them
                // to raw points.
                const std::string context =
                    serve::ResultArchive::contextFor(
                        benchmark, trace_length, warmup, metric);
                serve::ResultArchive archive(archive_path, context);
                archive.load([&](const core::ResultStore::Key &key,
                                 double value) {
                    dspace::DesignPoint point =
                        core::SimulatorOracle::pointFromKey(key);
                    if (point.size() != space.size() ||
                        !space.contains(point))
                        return; // foreign or out-of-space record
                    points.push_back(std::move(point));
                    ys.push_back(value);
                });
                if (points.empty())
                    throw std::runtime_error(
                        "archive holds no usable records for context " +
                        context);
            } else {
                const auto trace = trace::generateTrace(
                    trace::profileByName(benchmark),
                    static_cast<std::size_t>(trace_length));
                sim::SimOptions sim_options;
                sim_options.warmup_instructions = warmup;
                const auto oracle = serve::makeOracle(
                    space, benchmark, trace, sim_options, metric);
                math::Rng rng(seed);
                points = sampling::bestLatinHypercube(space, samples, 32,
                                                      rng)
                             .points;
                ys = oracle->evaluateAll(points);
            }

            xs.reserve(points.size());
            for (const auto &p : points)
                xs.push_back(space.toUnit(p));

            if (verbose)
                std::fprintf(stderr,
                             "ppm_publish: training on %zu points\n",
                             xs.size());
            trained = rbf::trainRbfModel(xs, ys);
            linear = linreg::fitSelectedLinearModel(xs, ys);

            // Training-time cross-validated relative error: the drift
            // monitor's baseline (snapshot format 2). Deterministic
            // k-fold with a round-robin split (no RNG) refitting at the
            // winning (p_min, alpha) only, so repeated publishes of the
            // same data store the same baseline bit-for-bit.
            const std::size_t folds =
                std::min<std::size_t>(5, xs.size() / 2);
            if (folds >= 2) {
                rbf::TrainerOptions fold_options;
                fold_options.p_min_grid = {trained.p_min};
                fold_options.alpha_grid = {trained.alpha};
                double err_sum = 0.0;
                std::size_t err_n = 0;
                for (std::size_t f = 0; f < folds; ++f) {
                    std::vector<dspace::UnitPoint> train_xs, test_xs;
                    std::vector<double> train_ys, test_ys;
                    for (std::size_t i = 0; i < xs.size(); ++i) {
                        if (i % folds == f) {
                            test_xs.push_back(xs[i]);
                            test_ys.push_back(ys[i]);
                        } else {
                            train_xs.push_back(xs[i]);
                            train_ys.push_back(ys[i]);
                        }
                    }
                    try {
                        const rbf::TrainedRbf fold = rbf::trainRbfModel(
                            train_xs, train_ys, fold_options);
                        for (std::size_t i = 0; i < test_xs.size(); ++i) {
                            const double pred =
                                fold.network.predict(test_xs[i]);
                            err_sum += std::abs(pred - test_ys[i]) /
                                       std::max(std::abs(test_ys[i]),
                                                1e-12);
                            ++err_n;
                        }
                    } catch (const std::exception &) {
                        // A fold too small to fit leaves the estimate to
                        // the remaining folds.
                    }
                }
                if (err_n > 0)
                    cv_error = err_sum / static_cast<double>(err_n);
                if (verbose)
                    std::fprintf(stderr,
                                 "ppm_publish: %zu-fold CV relative error"
                                 " %.4f (%zu held-out points)\n",
                                 folds, cv_error, err_n);
            }
        }

        serve::ModelSnapshot snap;
        if (model_version == 0) {
            model_version = 1;
            try {
                model_version =
                    serve::loadSnapshot(out).model_version + 1;
            } catch (const serve::SnapshotError &) {
                // absent or unreadable: start at version 1
            }
        }
        snap.model_version = model_version;
        snap.benchmark = benchmark;
        snap.metric = metric;
        snap.trace_length = trace_length;
        snap.warmup = warmup;
        snap.train_points = static_cast<std::uint32_t>(xs.size());
        snap.p_min = static_cast<std::uint32_t>(trained.p_min);
        snap.alpha = trained.alpha;
        snap.cv_error = cv_error;
        snap.space = space;
        snap.network = trained.network;
        snap.linear = linear.model;
        serve::saveSnapshot(snap, out);
        std::fprintf(stderr,
                     "ppm_publish: published %s v%llu (%s, %u train "
                     "points, %zu centers, %zu linear terms)\n",
                     out.c_str(),
                     static_cast<unsigned long long>(
                         snap.model_version),
                     benchmark.c_str(), snap.train_points,
                     snap.network.bases().size(),
                     snap.linear.terms().size());

        if (!push_endpoint.empty()) {
            const serve::ModelPushAck ack = serve::parseModelPushAck(
                serve::requestOnce(push_endpoint,
                                   serve::encodeModelPush(
                                       serve::encodeSnapshot(snap)),
                                   serve::MsgType::ModelPushAck, 30000)
                    .payload);
            std::fprintf(stderr,
                         "ppm_publish: push %s (server at v%llu)%s%s\n",
                         ack.accepted ? "accepted" : "rejected",
                         static_cast<unsigned long long>(
                             ack.model_version),
                         ack.message.empty() ? "" : ": ",
                         ack.message.c_str());
            if (!ack.accepted)
                return 1;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ppm_publish: %s\n", e.what());
        return 1;
    }
    return 0;
}
