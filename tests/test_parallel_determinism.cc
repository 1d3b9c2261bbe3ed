/**
 * @file
 * Parallel-vs-serial equivalence suite: the headline guarantee of the
 * parallel experiment engine is that every batched result — oracle
 * batches, best-of-N LHS selection, and the trained RBF network — is
 * BIT-identical between PPM_THREADS=1 and PPM_THREADS=4, because all
 * randomness derives from (base seed, item index) streams and all
 * reductions run serially in index order.
 *
 * EXPECT_EQ on doubles below is deliberate: equality must be exact,
 * not within a tolerance.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model_builder.hh"
#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "rbf/trainer.hh"
#include "sampling/sample_gen.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "util/thread_pool.hh"

namespace {

using namespace ppm;

constexpr std::size_t kTraceLen = 12000;
constexpr int kSampleSize = 30;
constexpr int kLhsCandidates = 8;
constexpr std::uint64_t kSeed = 42;

/** Everything the pipeline produces that must be thread-invariant. */
struct PipelineResult
{
    std::vector<dspace::DesignPoint> lhs_points;
    double lhs_discrepancy = 0.0;
    std::vector<double> responses;
    rbf::TrainedRbf trained;
    std::vector<double> predictions;
    std::uint64_t simulations = 0;
};

/**
 * Run sample selection -> batched simulation -> RBF training ->
 * prediction for one benchmark with the given pool size.
 */
PipelineResult
runPipeline(const std::string &benchmark, unsigned threads)
{
    util::setGlobalThreads(threads);
    auto space = dspace::paperTrainSpace();
    const auto tr = trace::generateTrace(
        trace::profileByName(benchmark), kTraceLen);
    sim::SimOptions sim_opts;
    sim_opts.warmup_instructions = 2000;
    core::SimulatorOracle oracle(space, tr, sim_opts);

    PipelineResult out;
    math::Rng rng(kSeed);
    auto best = sampling::bestLatinHypercube(
        space, kSampleSize, kLhsCandidates, rng);
    out.lhs_points = best.points;
    out.lhs_discrepancy = best.discrepancy;

    out.responses = oracle.evaluateAll(out.lhs_points);
    out.simulations = oracle.evaluations();

    rbf::TrainerOptions trainer;
    trainer.p_min_grid = {1, 2};
    trainer.alpha_grid = {4, 8, 12};
    const auto unit = sampling::toUnitSample(space, out.lhs_points);
    out.trained = rbf::trainRbfModel(unit, out.responses, trainer);

    // Probe the network at points the oracle never saw.
    math::Rng probe_rng(7);
    for (int i = 0; i < 20; ++i)
        out.predictions.push_back(out.trained.network.predict(
            space.toUnit(space.randomPoint(probe_rng))));

    util::setGlobalThreads(0);
    return out;
}

/** Assert two pipeline runs produced bit-identical artifacts. */
void
expectIdentical(const PipelineResult &serial,
                const PipelineResult &parallel)
{
    // LHS: same winning hypercube, point for point.
    EXPECT_EQ(serial.lhs_discrepancy, parallel.lhs_discrepancy);
    ASSERT_EQ(serial.lhs_points.size(), parallel.lhs_points.size());
    for (std::size_t i = 0; i < serial.lhs_points.size(); ++i)
        EXPECT_EQ(serial.lhs_points[i], parallel.lhs_points[i])
            << "LHS point " << i;

    // Oracle batch: same responses from the same number of runs.
    EXPECT_EQ(serial.responses, parallel.responses);
    EXPECT_EQ(serial.simulations, parallel.simulations);

    // Trainer: same grid winner and an identical network.
    EXPECT_EQ(serial.trained.p_min, parallel.trained.p_min);
    EXPECT_EQ(serial.trained.alpha, parallel.trained.alpha);
    EXPECT_EQ(serial.trained.criterion_value,
              parallel.trained.criterion_value);
    EXPECT_EQ(serial.trained.train_sse, parallel.trained.train_sse);
    const auto &sn = serial.trained.network;
    const auto &pn = parallel.trained.network;
    ASSERT_EQ(sn.numBases(), pn.numBases());
    EXPECT_EQ(sn.weights(), pn.weights());
    for (std::size_t j = 0; j < sn.numBases(); ++j) {
        EXPECT_EQ(sn.bases()[j].center(), pn.bases()[j].center())
            << "center " << j;
        EXPECT_EQ(sn.bases()[j].radius(), pn.bases()[j].radius())
            << "radius " << j;
    }

    // And identical predictions everywhere we probed.
    EXPECT_EQ(serial.predictions, parallel.predictions);
}

TEST(ParallelDeterminism, McfPipelineBitIdentical1v4)
{
    expectIdentical(runPipeline("mcf", 1), runPipeline("mcf", 4));
}

TEST(ParallelDeterminism, VortexPipelineBitIdentical1v4)
{
    expectIdentical(runPipeline("vortex", 1), runPipeline("vortex", 4));
}

TEST(ParallelDeterminism, ModelBuilderBitIdentical1v4)
{
    // The full BuildRBFmodel driver, end to end, over the simulator.
    auto build = [](unsigned threads) {
        util::setGlobalThreads(threads);
        auto space = dspace::paperTrainSpace();
        const auto tr = trace::generateTrace(
            trace::profileByName("mcf"), kTraceLen);
        sim::SimOptions sim_opts;
        sim_opts.warmup_instructions = 2000;
        core::SimulatorOracle oracle(space, tr, sim_opts);
        core::ModelBuilder builder(space, dspace::paperTestSpace(),
                                   oracle);
        core::BuildOptions opts;
        opts.sample_sizes = {kSampleSize};
        opts.target_mean_error = 0.0;
        opts.lhs_candidates = kLhsCandidates;
        opts.num_test_points = 20;
        opts.trainer.p_min_grid = {1, 2};
        opts.trainer.alpha_grid = {4, 8};
        opts.fit_linear_baseline = true;
        auto result = builder.build(opts);
        util::setGlobalThreads(0);
        const linreg::LinearModel &linear =
            result.linear_model->selected().model;
        std::vector<std::uint64_t> linear_bits;
        for (double c : linear.coefficients())
            linear_bits.push_back(std::bit_cast<std::uint64_t>(c));
        // The linear baseline's selection runs on the pool too.
        return std::tuple(result.simulations,
                          result.final().rbf_error.mean_error,
                          result.final().rbf_error.errors,
                          result.final().linear_error.mean_error,
                          result.final().linear_error.errors,
                          linear.terms(), linear_bits,
                          builder.testResponses());
    };
    EXPECT_EQ(build(1), build(4));
}

TEST(ParallelDeterminism, ConcurrentDuplicateBatchDeduplicates)
{
    // A batch full of duplicates must simulate each unique point
    // exactly once even when requests for the same point are in
    // flight concurrently — and every duplicate must receive the
    // identical memoized value.
    util::setGlobalThreads(4);
    auto space = dspace::paperTrainSpace();
    const auto tr = trace::generateTrace(
        trace::profileByName("mcf"), kTraceLen);
    sim::SimOptions sim_opts;
    sim_opts.warmup_instructions = 2000;
    core::SimulatorOracle oracle(space, tr, sim_opts);

    // 4 unique points, each repeated 8 times, interleaved so that
    // concurrent duplicate requests are likely.
    math::Rng rng(3);
    std::vector<dspace::DesignPoint> unique;
    for (int i = 0; i < 4; ++i)
        unique.push_back(space.randomPoint(rng));
    std::vector<dspace::DesignPoint> batch;
    for (int rep = 0; rep < 8; ++rep)
        for (const auto &p : unique)
            batch.push_back(p);

    const auto ys = oracle.evaluateAll(batch);
    ASSERT_EQ(ys.size(), batch.size());

    // Exactly one simulator invocation per unique point; everything
    // else was a cache hit (completed or in-flight).
    EXPECT_EQ(oracle.evaluations(), unique.size());
    EXPECT_EQ(oracle.cacheHits(), batch.size() - unique.size());

    // All copies of a point got the identical value.
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(ys[i], ys[i % unique.size()]);

    // A second identical batch is pure cache: no new simulations, and
    // values match the first batch bit for bit.
    const auto again = oracle.evaluateAll(batch);
    EXPECT_EQ(oracle.evaluations(), unique.size());
    EXPECT_EQ(again, ys);
    util::setGlobalThreads(0);
}

} // namespace

