/**
 * @file
 * ppm_e2e: the end-to-end benchmark of the two costs a user of this
 * repository pays — building a model at the paper's Table 3
 * configuration (build_cold, build_warm) and serving PREDICT queries
 * from it (predict_point, predict_batch).
 *
 *   ppm_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--out FILE] [--work-dir DIR] [--commit SHA]
 *   ppm_e2e --smoke        all four workloads at toy scale, both modes,
 *                          plus a server killed mid-phase
 *   ppm_e2e --print-golden golden.json for this host's SIMD tier
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 times each
 * layer from outside and reports the per-layer metrics. The last line
 * of stdout is one JSON object: correct, attempted, failed and the
 * metrics BENCHMARK.json lists for the mode. The exit code is non-zero
 * on any correctness failure or failed operation.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hh"
#include "rbf/rbf_batch.hh"
#include "util/thread_pool.hh"

extern char **environ;

namespace {

using namespace ppm::e2e;

const char *const kWorkloads[] = {"build_cold", "build_warm",
                                  "predict_point", "predict_batch"};

void
usage()
{
    std::fprintf(stderr,
                 "usage: ppm_e2e --workload NAME [--seed N] [--seconds S]"
                 " [--trace 0|1] [--out FILE] [--work-dir DIR]"
                 " [--commit SHA]\n"
                 "       ppm_e2e --smoke | --print-golden\n"
                 "workloads: build_cold build_warm predict_point"
                 " predict_batch\n");
}

/**
 * Unset every PPM_* variable: each one (sockets, archive, cache size,
 * SIMD tier, fault spec, ...) would change the program being measured.
 * Children inherit the cleaned environment plus PPM_THREADS.
 */
std::vector<std::string>
clearKnobs(unsigned threads)
{
    std::vector<std::string> names;
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("PPM_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("PPM_THREADS", std::to_string(threads).c_str(), 1);
    return names;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

double
loadAverage()
{
    double load[1] = {0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** The metrics BENCHMARK.json lists under @p key. */
std::vector<MetricSpec>
listedMetrics(const Json &bench, const char *key)
{
    std::vector<MetricSpec> out;
    for (const Json &m : bench.at(key).array)
        out.push_back({m.at("name").string, m.at("unit").string});
    return out;
}

/** Everything printed and written about one finished run. */
struct RunResult
{
    std::string summary_line;
    std::string full_json;
    bool correct = false;
    std::uint64_t failed = 0;
    bool ok = false;
};

RunResult
finish(const RunConfig &config, const Json &bench, Report &report,
       const std::vector<std::string> &cleared, double load_start)
{
    const std::vector<MetricSpec> listed = listedMetrics(
        bench, config.traced ? "per_layer" : "end_to_end");
    std::string line_metrics;
    std::string not_exercised;
    for (const MetricSpec &spec : listed) {
        const auto it = report.metrics().find(spec.name);
        double value = 0.0;
        if (it == report.metrics().end()) {
            // A per-layer metric of the other workload family: this
            // workload does not run that layer.
            report.check(config.traced,
                         "end-to-end metric " + spec.name +
                             " not produced");
            not_exercised += (not_exercised.empty() ? "" : ",") +
                             jsonString(spec.name);
        } else {
            value = it->second.value;
            report.check(it->second.unit == spec.unit,
                         spec.name + " unit " + it->second.unit +
                             " differs from BENCHMARK.json");
        }
        line_metrics += (line_metrics.empty() ? "" : ", ") +
                        jsonString(spec.name) + ": {\"value\": " +
                        jsonNumber(value) +
                        ", \"unit\": " + jsonString(spec.unit) + "}";
    }

    std::printf("\n%s  seed=%llu  %s  %.1f s\n", config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.traced ? "per-layer (traced)" : "end-to-end",
                config.seconds);
    for (const auto &[name, m] : report.metrics())
        std::printf("  %-28s %14.6g %-9s (n=%llu)\n", name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    for (const auto &[key, value] : report.notes())
        std::printf("  %-28s %s\n", key.c_str(), value.c_str());
    for (const std::string &failure : report.failures())
        std::printf("  FAILED CHECK: %s\n", failure.c_str());
    std::printf("  ops: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));

    RunResult result;
    result.correct = report.correct();
    result.failed = report.failed;
    result.ok = report.correct() && report.failed == 0 &&
                report.attempted > 0;
    result.summary_line =
        std::string("{\"correct\": ") +
        (report.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(report.attempted) +
        ", \"failed\": " + std::to_string(report.failed) +
        ", \"metrics\": {" + line_metrics + "}}";

    std::string metrics, notes, failures, knobs;
    for (const auto &[name, m] : report.metrics())
        metrics += (metrics.empty() ? "" : ",\n    ") + jsonString(name) +
                   ": {\"value\": " + jsonNumber(m.value) +
                   ", \"unit\": " + jsonString(m.unit) +
                   ", \"samples\": " + std::to_string(m.samples) + "}";
    for (const auto &[key, value] : report.notes())
        notes += (notes.empty() ? "" : ", ") + jsonString(key) + ": " +
                 value;
    for (const std::string &f : report.failures())
        failures += (failures.empty() ? "" : ", ") + jsonString(f);
    for (const std::string &k : cleared)
        knobs += (knobs.empty() ? "" : ", ") + jsonString(k);
    const Scale &s = config.scale;
    const double attempted = static_cast<double>(report.attempted);
    result.full_json =
        "{\"workload\": " + jsonString(config.workload) +
        ", \"seed\": " + std::to_string(config.seed) +
        ", \"trace\": " + (config.traced ? "1" : "0") +
        ", \"correct\": " + (report.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(report.attempted) +
        ", \"failed\": " + std::to_string(report.failed) +
        ", \"failed_frac\": " +
        jsonNumber(attempted > 0 ? double(report.failed) / attempted : 1.0) +
        ",\n  \"meta\": {\"nproc\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"threads\": " + std::to_string(config.threads) +
        ", \"cpu_model\": " + jsonString(cpuModel()) +
        ", \"compiler\": " + jsonString(PPM_E2E_COMPILER) +
        ", \"build_type\": " + jsonString(PPM_E2E_BUILD_TYPE) +
        ", \"simd\": " +
        jsonString(ppm::rbf::simdKindName(ppm::rbf::activeSimd())) +
        ", \"commit\": " + jsonString(config.commit) +
        ", \"loadavg_start\": " + jsonNumber(load_start) +
        ", \"loadavg_end\": " + jsonNumber(loadAverage()) +
        ", \"seconds\": " + jsonNumber(config.seconds) +
        ", \"smoke\": " + (config.smoke ? "true" : "false") +
        ", \"scale\": {\"trace_length\": " +
        std::to_string(s.trace_length) +
        ", \"warmup\": " + std::to_string(s.warmup) +
        ", \"samples\": " + std::to_string(s.samples) +
        ", \"test_points\": " + std::to_string(s.test_points) +
        ", \"lhs_candidates\": " + std::to_string(s.lhs_candidates) +
        "}, \"cleared_env\": [" + knobs + "]},\n  \"notes\": {" + notes +
        "},\n  \"not_exercised\": [" + not_exercised +
        "],\n  \"failures\": [" + failures + "],\n  \"metrics\": {\n    " +
        metrics + "}}\n";
    return result;
}

/** Run one workload in this process. */
RunResult
runOne(const RunConfig &config, const Binaries &bins, const Json &bench,
       const std::vector<std::string> &cleared, double kill_server_at = 0.0)
{
    const double load_start = loadAverage();
    Report report;
    SpanLog spans;
    SpanLog *log = config.traced ? &spans : nullptr;
    try {
        if (config.workload.rfind("build_", 0) == 0)
            runBuildWorkload(config, bins, report, log);
        else
            runPredictWorkload(config, bins, report, log, kill_server_at);
    } catch (const std::exception &e) {
        report.check(false, std::string("run aborted: ") + e.what());
    }
    if (log)
        spans.writeJsonl(config.work_dir + "/spans-" + config.workload +
                         ".jsonl");
    return finish(config, bench, report, cleared, load_start);
}

/**
 * ctest -L e2e: every workload in both modes at toy scale, then a
 * server killed mid-phase, which must show up as failed operations
 * while every value stays correct.
 */
int
runSmoke(RunConfig config, const Binaries &bins, const Json &bench,
         const std::vector<std::string> &cleared)
{
    int bad = 0;
    for (const char *workload : kWorkloads) {
        for (bool traced : {false, true}) {
            config.workload = workload;
            config.traced = traced;
            const RunResult r = runOne(config, bins, bench, cleared);
            std::printf("%s\nsmoke %s trace=%d: %s\n",
                        r.summary_line.c_str(), workload, traced ? 1 : 0,
                        r.ok ? "ok" : "FAILED");
            bad += r.ok ? 0 : 1;
        }
    }
    config.workload = "predict_point";
    config.traced = false;
    const RunResult killed = runOne(config, bins, bench, cleared,
                                    /*kill_server_at=*/0.1);
    const bool saw_failures = killed.correct && killed.failed > 0;
    std::printf("%s\nsmoke killed-server: %s\n", killed.summary_line.c_str(),
                saw_failures ? "ok (failed_frac > 0, values correct)"
                             : "FAILED (expected failed ops, correct values)");
    bad += saw_failures ? 0 : 1;
    std::printf("smoke: %d failure(s)\n", bad);
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string out;
    bool smoke = false, print_golden = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            config.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            config.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            config.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            config.traced = std::string(argv[++i]) == "1";
        } else if (arg == "--out" && has_value) {
            out = argv[++i];
        } else if (arg == "--work-dir" && has_value) {
            config.work_dir = argv[++i];
        } else if (arg == "--commit" && has_value) {
            config.commit = argv[++i];
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--print-golden") {
            print_golden = true;
        } else {
            usage();
            return 2;
        }
    }

    if (std::strcmp(PPM_E2E_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "ppm_e2e: refusing to measure a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     PPM_E2E_BUILD_TYPE);
        return 2;
    }
    config.threads = std::max(1u, std::thread::hardware_concurrency());
    const std::vector<std::string> cleared = clearKnobs(config.threads);
    ppm::util::setGlobalThreads(config.threads);
    mkdir(config.work_dir.c_str(), 0755);

    const Binaries bins{PPM_E2E_SERVE_BIN, PPM_E2E_PUBLISH_BIN,
                        PPM_E2E_SOURCE_DIR "/golden.json"};
    Json bench;
    try {
        if (print_golden) {
            std::fputs(goldenJson(config).c_str(), stdout);
            return 0;
        }
        bench = readJsonFile(PPM_E2E_SOURCE_DIR "/../../BENCHMARK.json");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ppm_e2e: %s\n", e.what());
        return 2;
    }

    if (smoke) {
        config.smoke = true;
        config.scale = {5'000, 1'000, 30, 10, 10};
        config.seconds = 0.5;
        if (config.workload.empty())
            return runSmoke(config, bins, bench, cleared);
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || config.workload == w;
    if (!known || config.seconds <= 0) {
        usage();
        return 2;
    }

    const RunResult result = runOne(config, bins, bench, cleared);
    if (!out.empty()) {
        std::ofstream file(out);
        file << result.full_json;
    }
    std::printf("%s\n", result.summary_line.c_str());
    return result.ok ? 0 : 1;
}
