/**
 * @file
 * build_cold and build_warm: the paper's BuildRBFmodel procedure at the
 * Table 3 configuration for 181.mcf and 255.vortex, through
 * core::ModelBuilder::build.
 *
 * build_cold gives every build a fresh oracle, so each of the 250
 * lookups per program misses and simulates (the cache insert path);
 * simulation is ~90% of its wall time. build_warm builds on oracles a
 * CPI cold build filled during setup, so every lookup hits and the RBF
 * grid search dominates. One simulation prices every metric, so the
 * fill also holds the EPI and ED2P responses (paper Sec 6): a warm rep
 * builds all three models per program. Their six grid searches, not
 * two, make the rep's cost steady across seeds; one grid search alone
 * varies by ~30% with the sample it is given. A simulator change
 * should move only build_cold; a trainer change shows on build_warm.
 *
 * The traced run replays build() from its public steps in the same RNG
 * order, timing each module from outside, and must reproduce build()'s
 * SizeResult and test responses bit for bit.
 */

#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cache/result_cache.hh"
#include "core/evaluator.hh"
#include "core/model_builder.hh"
#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "e2e.hh"
#include "math/rng.hh"
#include "rbf/rbf_batch.hh"
#include "rbf/rbf_rt.hh"
#include "rbf/trainer.hh"
#include "sampling/sample_gen.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "tree/regression_tree.hh"
#include "util/thread_pool.hh"

namespace ppm::e2e {

namespace {

/** mcf stresses the memory side, vortex the front end. */
const char *const kPrograms[] = {"mcf", "vortex"};

const core::Metric kMetrics[] = {core::Metric::Cpi,
                                 core::Metric::EnergyPerInst,
                                 core::Metric::EnergyDelaySquared};

core::BuildOptions
table3Options(const RunConfig &config)
{
    core::BuildOptions opts;
    opts.sample_sizes = {config.scale.samples};
    opts.target_mean_error = 0.0; // always build the full size
    opts.lhs_candidates = config.scale.lhs_candidates;
    opts.num_test_points = config.scale.test_points;
    opts.seed = config.seed;
    opts.trainer.p_min_grid = {1, 2};
    opts.trainer.alpha_grid = {4, 6, 8, 10, 12};
    return opts;
}

/** What one build produced, compared bit for bit. */
struct BuildOutcome
{
    core::SizeResult size;
    std::vector<double> test_responses;
    std::uint64_t simulations = 0;
};

/** Bit-identical SizeResult and test responses (simulations aside). */
bool
identical(const BuildOutcome &a, const BuildOutcome &b)
{
    const core::SizeResult &x = a.size;
    const core::SizeResult &y = b.size;
    return x.sample_size == y.sample_size &&
           sameBits(x.discrepancy, y.discrepancy) && x.p_min == y.p_min &&
           sameBits(x.alpha, y.alpha) && x.num_centers == y.num_centers &&
           sameBits(x.rbf_error.mean_error, y.rbf_error.mean_error) &&
           sameBits(x.rbf_error.std_error, y.rbf_error.std_error) &&
           sameBits(x.rbf_error.max_error, y.rbf_error.max_error) &&
           sameBits(x.rbf_error.errors, y.rbf_error.errors) &&
           sameBits(a.test_responses, b.test_responses);
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Check @p outcome against the golden entry of @p program. */
bool
checkGolden(const Json &golden, const std::string &program,
            const BuildOutcome &outcome, Report &report)
{
    const Json &g = golden.at(program);
    const core::SizeResult &s = outcome.size;
    bool all = true;
    const auto expect = [&](bool ok, const char *field) {
        report.check(ok, "golden " + program + "." + field);
        all = all && ok;
    };
    expect(sameBits(s.rbf_error.mean_error, g.at("mean_error").number),
           "mean_error");
    expect(sameBits(s.rbf_error.max_error, g.at("max_error").number),
           "max_error");
    expect(sameBits(s.rbf_error.std_error, g.at("std_error").number),
           "std_error");
    expect(s.p_min == static_cast<int>(g.at("p_min").number), "p_min");
    expect(sameBits(s.alpha, g.at("alpha").number), "alpha");
    expect(s.num_centers ==
               static_cast<std::size_t>(g.at("centers").number),
           "centers");
    expect(outcome.simulations ==
               static_cast<std::uint64_t>(g.at("simulations").number),
           "simulations");
    expect(hex64(fnv1a(outcome.test_responses)) ==
               g.at("responses_fnv1a").string,
           "responses_fnv1a");
    return all;
}

/**
 * Golden CPI builds for this run, or nullptr when none apply: they pin
 * seed 1 at the Table 3 scale, per SIMD tier (training evaluates its
 * design matrices through the active kernel).
 */
const Json *
goldenFor(const RunConfig &config, const Json &file, Report &report)
{
    if (config.smoke || config.seed != file.at("seed").number)
        return nullptr;
    const std::string tier = rbf::simdKindName(rbf::activeSimd());
    const Json &tiers = file.at("simd");
    if (!tiers.has(tier)) {
        report.note("golden", "no entry for SIMD tier " + tier);
        return nullptr;
    }
    report.note("golden", "checked (" + tier + ")");
    return &tiers.at(tier);
}

/** One model a rep builds: a program's trace and a metric. */
struct Build
{
    std::string program;
    const trace::Trace *trace = nullptr;
    core::Metric metric = core::Metric::Cpi;
    /** build_warm: the oracle the fill left warm. */
    std::unique_ptr<core::SimulatorOracle> warm;
    /** First outcome; every later build must equal it. */
    std::optional<BuildOutcome> reference;

    std::string
    name() const
    {
        return program + "/" + core::metricName(metric);
    }
};

/** Per-layer timings of one traced replay of one build. */
struct LayerSample
{
    double lhs_s = 0, sim_wall_s = 0, sim_cpu_s = 0, train_s = 0;
    double tree_busy_s = 0, select_busy_s = 0, validate_s = 0;
    double wall_s = 0, covered_s = 0;
    std::uint64_t fresh = 0, hits = 0, centers = 0;

    void
    add(const LayerSample &o)
    {
        lhs_s += o.lhs_s;
        sim_wall_s += o.sim_wall_s;
        sim_cpu_s += o.sim_cpu_s;
        train_s += o.train_s;
        tree_busy_s += o.tree_busy_s;
        select_busy_s += o.select_busy_s;
        validate_s += o.validate_s;
        wall_s += o.wall_s;
        covered_s += o.covered_s;
        fresh += o.fresh;
        hits += o.hits;
        centers += o.centers;
    }
};

class BuildWorkload
{
  public:
    BuildWorkload(const RunConfig &config, const Binaries &bins,
                  Report &report)
        : config_(config), report_(report),
          warm_(config.workload == "build_warm"),
          train_(dspace::paperTrainSpace()),
          test_(dspace::paperTestSpace()), opts_(table3Options(config)),
          golden_file_(readJsonFile(bins.golden)),
          golden_(goldenFor(config, golden_file_, report))
    {
        sim_.warmup_instructions = config.scale.warmup;
    }

    void
    run(SpanLog *spans)
    {
        const double fill_s = setup();
        std::vector<double> rep_s, replay_s;
        // Per program, one LayerSample summed over its builds per rep.
        std::map<std::string, std::vector<LayerSample>> layers;
        const Clock::time_point start = Clock::now();
        do {
            rep_s.push_back(buildRep());
            if (!spans)
                continue;
            std::map<std::string, LayerSample> rep;
            double wall = 0;
            for (Build &b : builds_) {
                const LayerSample sample = replay(b, *spans);
                wall += sample.wall_s;
                rep[b.program].add(sample);
            }
            replay_s.push_back(wall);
            for (const auto &[program, sample] : rep)
                layers[program].push_back(sample);
        } while (secondsSince(start) < config_.seconds);

        const double points = static_cast<double>(
            (config_.scale.samples + config_.scale.test_points) *
            builds_.size());
        double total_s = 0;
        for (double s : rep_s)
            total_s += s;
        const auto reps = static_cast<std::uint64_t>(rep_s.size());
        report_.set("latency_p50_ms", median(rep_s) * 1e3, "ms", reps);
        report_.set("points_per_s", points * double(reps) / total_s,
                    "points/s", reps);
        report_.set("peak_rss_mb", peakRssMb(), "MiB", 1);
        // The host's single-thread speed drifts over seconds, so as many
        // trace rounds again run after the measurement.
        for (int round = 0; round < kSetupRounds; ++round)
            (void)generateTraces();
        report_.set("setup_s", median(trace_rounds_s_) + fill_s, "s",
                    trace_rounds_s_.size());
        report_.note("reps", double(reps));
        report_.note("builds_per_rep", double(builds_.size()));
        for (const Build &b : builds_) {
            const core::ErrorReport &err = b.reference->size.rbf_error;
            report_.note("model_err_mean_pct." + b.name(), err.mean_error);
            report_.note("model_err_max_pct." + b.name(), err.max_error);
        }
        if (spans)
            reportLayers(layers, replay_s, rep_s);
    }

  private:
    /** One set-up round: both programs' traces, timed. */
    std::vector<std::unique_ptr<trace::Trace>>
    generateTraces()
    {
        const Clock::time_point start = Clock::now();
        std::vector<std::unique_ptr<trace::Trace>> traces;
        for (const char *name : kPrograms) {
            const Clock::time_point gen_start = Clock::now();
            traces.push_back(std::make_unique<trace::Trace>(
                trace::generateTrace(trace::profileByName(name),
                                     config_.scale.trace_length)));
            gen_s_[name].push_back(secondsSince(gen_start));
        }
        trace_rounds_s_.push_back(secondsSince(start));
        return traces;
    }

    /**
     * Traces for both programs, kSetupRounds times; build_warm then
     * fills a shared cache per program with one CPI cold build, which
     * also prices EPI and ED2P. Returns the fill's wall time.
     */
    double
    setup()
    {
        for (int round = 0; round < kSetupRounds; ++round)
            traces_ = generateTraces();
        for (std::size_t p = 0; p < traces_.size(); ++p)
            for (core::Metric metric : kMetrics) {
                if (!warm_ && metric != core::Metric::Cpi)
                    continue;
                Build b;
                b.program = kPrograms[p];
                b.trace = traces_[p].get();
                b.metric = metric;
                builds_.push_back(std::move(b));
            }

        if (!warm_)
            return 0.0;
        const Clock::time_point start = Clock::now();
        std::shared_ptr<cache::ResultCache> cache;
        for (Build &b : builds_) {
            if (b.metric == core::Metric::Cpi) {
                cache::CacheConfig config;
                config.key_words = train_.size() + 1;
                cache = std::make_shared<cache::ResultCache>(config);
            }
            b.warm = std::make_unique<core::SimulatorOracle>(
                train_, *b.trace, sim_, b.metric);
            b.warm->attachSharedCache(cache, 0);
            if (b.metric == core::Metric::Cpi)
                verify(b, build(b), /*cold=*/true);
        }
        const double fill_s = secondsSince(start);
        report_.note("fill_s", fill_s);
        return fill_s;
    }

    /**
     * The oracle a build runs against: build_warm's filled one, or for
     * build_cold a fresh one with an empty private cache, kept alive
     * in @p fresh.
     */
    core::SimulatorOracle &
    oracleFor(Build &b, std::unique_ptr<core::SimulatorOracle> &fresh)
    {
        if (warm_)
            return *b.warm;
        fresh = std::make_unique<core::SimulatorOracle>(train_, *b.trace,
                                                        sim_, b.metric);
        return *fresh;
    }

    BuildOutcome
    build(Build &b)
    {
        std::unique_ptr<core::SimulatorOracle> fresh;
        core::ModelBuilder builder(train_, test_, oracleFor(b, fresh));
        const core::BuildResult result = builder.build(opts_);
        return {result.final(), builder.testResponses(),
                result.simulations};
    }

    /** One rep: every build in turn; returns the rep's wall time. */
    double
    buildRep()
    {
        const Clock::time_point start = Clock::now();
        for (Build &b : builds_) {
            ++report_.attempted;
            try {
                if (!verify(b, build(b), !warm_))
                    ++report_.failed;
            } catch (const std::exception &e) {
                ++report_.failed;
                report_.check(false, b.name() + " build threw: " + e.what());
            }
        }
        return secondsSince(start);
    }

    /**
     * Check one build: the first CPI build must match golden.json
     * (when it applies), every later one must equal the first bit for
     * bit. Cold builds simulate every point, warm builds none.
     */
    bool
    verify(Build &b, const BuildOutcome &outcome, bool cold)
    {
        const std::uint64_t expected_sims =
            cold ? static_cast<std::uint64_t>(config_.scale.samples +
                                              config_.scale.test_points)
                 : 0;
        bool ok = outcome.simulations == expected_sims;
        report_.check(ok, b.name() + ": " +
                              std::to_string(outcome.simulations) +
                              " simulations, expected " +
                              std::to_string(expected_sims));
        if (!b.reference) {
            b.reference = outcome;
            if (golden_ && b.metric == core::Metric::Cpi)
                ok = checkGolden(*golden_, b.program, outcome, report_) && ok;
        } else if (!identical(*b.reference, outcome)) {
            ok = false;
            report_.check(false, b.name() + ": build differs from the "
                                            "first build of this run");
        }
        return ok;
    }

    /** Replay build() step by step under spans; see file comment. */
    LayerSample
    replay(Build &b, SpanLog &log)
    {
        LayerSample out;
        std::unique_ptr<core::SimulatorOracle> fresh;
        core::SimulatorOracle &oracle = oracleFor(b, fresh);
        const std::uint64_t evals0 = oracle.evaluations();
        const std::uint64_t hits0 = oracle.cacheHits();
        const std::string owner = b.name();
        ++report_.attempted;

        const std::int64_t root = log.open("build.replay", -1, owner);
        double unused = 0, sim_a = 0, sim_b = 0;
        math::Rng rng(opts_.seed);
        math::Rng test_rng = rng.split();
        const auto test_points =
            timed(&log, "sampling.test_set", root, owner, unused, [&] {
                return sampling::randomTestSet(
                    test_, opts_.num_test_points, test_rng);
            });
        double cpu0 = processCpuSeconds();
        const auto test_responses =
            timed(&log, "sim.evaluate_test", root, owner, sim_a,
                  [&] { return oracle.evaluateAll(test_points); });
        out.sim_cpu_s += processCpuSeconds() - cpu0;
        const auto sample =
            timed(&log, "sampling.lhs", root, owner, out.lhs_s, [&] {
                return sampling::bestLatinHypercube(
                    train_, opts_.sample_sizes.front(),
                    opts_.lhs_candidates, rng);
            });
        cpu0 = processCpuSeconds();
        const auto responses =
            timed(&log, "sim.evaluate_sample", root, owner, sim_b,
                  [&] { return oracle.evaluateAll(sample.points); });
        out.sim_cpu_s += processCpuSeconds() - cpu0;
        const auto unit =
            timed(&log, "core.to_unit", root, owner, unused, [&] {
                std::vector<dspace::UnitPoint> xs;
                xs.reserve(sample.points.size());
                for (const auto &point : sample.points)
                    xs.push_back(train_.toUnit(point));
                return xs;
            });
        rbf::TrainedRbf trained =
            timed(&log, "rbf.train", root, owner, out.train_s, [&] {
                return rbf::trainRbfModel(unit, responses, opts_.trainer);
            });
        BuildOutcome outcome;
        outcome.size.sample_size = opts_.sample_sizes.front();
        outcome.size.discrepancy = sample.discrepancy;
        outcome.size.p_min = trained.p_min;
        outcome.size.alpha = trained.alpha;
        outcome.size.num_centers = trained.num_centers;
        const auto model =
            timed(&log, "core.make_model", root, owner, unused, [&] {
                return std::make_shared<core::RbfPerformanceModel>(
                    train_, std::move(trained));
            });
        outcome.size.rbf_error =
            timed(&log, "core.validate", root, owner, out.validate_s, [&] {
                return core::evaluateModel(*model, test_points,
                                           test_responses);
            });
        outcome.test_responses = test_responses;
        out.wall_s = log.close(root);
        out.covered_s = log.childSeconds(root);
        out.sim_wall_s = sim_a + sim_b;
        out.fresh = oracle.evaluations() - evals0;
        out.hits = oracle.cacheHits() - hits0;
        out.centers = outcome.size.num_centers;

        const bool same = identical(*b.reference, outcome);
        report_.check(same, owner + ": traced replay differs from build()");
        if (!same)
            ++report_.failed;
        subPass(owner, unit, responses, outcome.size, out);
        return out;
    }

    /**
     * Sequential sub-pass over the trainer's grid: tree busy time per
     * p_min, subset-selection busy time per (p_min, alpha) cell. It
     * must pick the cell trainRbfModel picked.
     */
    void
    subPass(const std::string &owner,
            const std::vector<dspace::UnitPoint> &unit,
            const std::vector<double> &responses,
            const core::SizeResult &chosen, LayerSample &out)
    {
        double best = std::numeric_limits<double>::infinity();
        int best_p = 0;
        double best_alpha = 0;
        std::size_t best_centers = 0;
        for (int p_min : opts_.trainer.p_min_grid) {
            const Clock::time_point tree_start = Clock::now();
            const tree::RegressionTree tree(unit, responses, p_min);
            out.tree_busy_s += secondsSince(tree_start);
            for (double alpha : opts_.trainer.alpha_grid) {
                rbf::RbfRtOptions rt;
                rt.alpha = alpha;
                rt.criterion = opts_.trainer.criterion;
                rt.selection = opts_.trainer.selection;
                rt.max_centers = opts_.trainer.max_centers;
                const Clock::time_point select_start = Clock::now();
                const rbf::RbfRtResult fit =
                    rbf::buildRbfFromTree(tree, unit, responses, rt);
                out.select_busy_s += secondsSince(select_start);
                if (fit.criterion_value < best) {
                    best = fit.criterion_value;
                    best_p = p_min;
                    best_alpha = alpha;
                    best_centers = fit.network.numBases();
                }
            }
        }
        report_.check(best_p == chosen.p_min &&
                          sameBits(best_alpha, chosen.alpha) &&
                          best_centers == chosen.num_centers,
                      owner + ": sequential grid pass disagrees with "
                              "trainRbfModel");
    }

    void
    reportLayers(
        const std::map<std::string, std::vector<LayerSample>> &layers,
        const std::vector<double> &replay_s, const std::vector<double> &rep_s)
    {
        const double threads = util::globalPool().size();
        for (const auto &[program, samples] : layers) {
            const auto n = static_cast<std::uint64_t>(samples.size());
            const auto med = [&](auto field) {
                std::vector<double> v;
                for (const LayerSample &s : samples)
                    v.push_back(field(s));
                return median(v);
            };
            const double wall = med([](auto &s) { return s.sim_wall_s; });
            const double cpu = med([](auto &s) { return s.sim_cpu_s; });
            const double fresh = med([](auto &s) { return double(s.fresh); });
            const double hits = med([](auto &s) { return double(s.hits); });
            const std::string p = "." + program;
            const std::vector<double> &gen = gen_s_.at(program);
            report_.set("trace.generate_s" + p, median(gen), "s", gen.size());
            report_.set("sampling.lhs_s" + p,
                        med([](auto &s) { return s.lhs_s; }), "s", n);
            report_.set("sim.wall_s" + p, wall, "s", n);
            report_.set("sim.cpu_s" + p, cpu, "s", n);
            report_.set("sim.fresh" + p, fresh, "count", n);
            report_.set("cache.hit_ratio" + p,
                        hits + fresh > 0 ? hits / (hits + fresh) : 0.0,
                        "ratio", n);
            report_.set("sim.minstr_per_s" + p,
                        fresh * double(config_.scale.trace_length) / wall /
                            1e6,
                        "Minstr/s", n);
            report_.set("sim.pool_util" + p, cpu / (wall * threads), "ratio",
                        n);
            report_.set("rbf.train_s" + p,
                        med([](auto &s) { return s.train_s; }), "s", n);
            report_.set("rbf.tree_busy_s" + p,
                        med([](auto &s) { return s.tree_busy_s; }), "s", n);
            report_.set("rbf.select_busy_s" + p,
                        med([](auto &s) { return s.select_busy_s; }), "s", n);
            report_.set("rbf.centers" + p,
                        med([](auto &s) { return double(s.centers); }),
                        "count", n);
            report_.set("core.validate_s" + p,
                        med([](auto &s) { return s.validate_s; }), "s", n);
            report_.set("build.coverage" + p,
                        med([](auto &s) { return s.covered_s / s.wall_s; }),
                        "ratio", n);
        }
        report_.set("trace.overhead", median(replay_s) / median(rep_s) - 1.0,
                    "ratio", replay_s.size());
    }

    const RunConfig &config_;
    Report &report_;
    const bool warm_;
    const dspace::DesignSpace train_;
    const dspace::DesignSpace test_;
    const core::BuildOptions opts_;
    const Json golden_file_;
    const Json *const golden_;
    sim::SimOptions sim_;
    std::vector<std::unique_ptr<trace::Trace>> traces_;
    std::vector<Build> builds_;
    std::map<std::string, std::vector<double>> gen_s_;
    std::vector<double> trace_rounds_s_;
};

} // namespace

void
runBuildWorkload(const RunConfig &config, const Binaries &bins,
                 Report &report, SpanLog *spans)
{
    BuildWorkload(config, bins, report).run(spans);
}

std::string
goldenJson(const RunConfig &config)
{
    const dspace::DesignSpace train = dspace::paperTrainSpace();
    const dspace::DesignSpace test = dspace::paperTestSpace();
    sim::SimOptions sim;
    sim.warmup_instructions = config.scale.warmup;
    const Scale &s = config.scale;
    std::string out = "{\n  \"seed\": " + std::to_string(config.seed) +
                      ",\n  \"scale\": {\"trace_length\": " +
                      std::to_string(s.trace_length) +
                      ", \"warmup\": " + std::to_string(s.warmup) +
                      ", \"samples\": " + std::to_string(s.samples) +
                      ", \"test_points\": " +
                      std::to_string(s.test_points) +
                      ", \"lhs_candidates\": " +
                      std::to_string(s.lhs_candidates) +
                      "},\n  \"simd\": {\n    " +
                      jsonString(rbf::simdKindName(rbf::activeSimd())) +
                      ": {";
    const char *sep = "\n";
    for (const char *name : kPrograms) {
        const trace::Trace trace = trace::generateTrace(
            trace::profileByName(name), s.trace_length);
        core::SimulatorOracle oracle(train, trace, sim);
        core::ModelBuilder builder(train, test, oracle);
        const core::BuildResult result =
            builder.build(table3Options(config));
        const core::SizeResult &r = result.final();
        out += sep;
        out += "      " + jsonString(name) + ": {" +
               "\"mean_error\": " + jsonNumber(r.rbf_error.mean_error) +
               ", \"max_error\": " + jsonNumber(r.rbf_error.max_error) +
               ", \"std_error\": " + jsonNumber(r.rbf_error.std_error) +
               ",\n        \"p_min\": " + std::to_string(r.p_min) +
               ", \"alpha\": " + jsonNumber(r.alpha) +
               ", \"centers\": " + std::to_string(r.num_centers) +
               ", \"simulations\": " + std::to_string(result.simulations) +
               ",\n        \"responses_fnv1a\": " +
               jsonString(hex64(fnv1a(builder.testResponses()))) + "}";
        sep = ",\n";
    }
    return out + "\n    }\n  }\n}\n";
}

} // namespace ppm::e2e
