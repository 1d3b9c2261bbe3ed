#include "core/adaptive.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/event_log.hh"
#include "obs/trace_span.hh"
#include "sampling/sample_gen.hh"
#include "tree/regression_tree.hh"

namespace ppm::core {

AdaptiveSampler::AdaptiveSampler(dspace::DesignSpace train_space,
                                 dspace::DesignSpace test_space,
                                 CpiOracle &oracle)
    : train_space_(std::move(train_space)),
      test_space_(std::move(test_space)), oracle_(oracle)
{
}

AdaptiveResult
AdaptiveSampler::build(const AdaptiveOptions &options)
{
    if (options.initial_size < 10)
        throw std::invalid_argument("AdaptiveOptions: initial_size");
    if (options.batch_size < 1)
        throw std::invalid_argument("AdaptiveOptions: batch_size");
    if (options.max_samples < options.initial_size)
        throw std::invalid_argument("AdaptiveOptions: max_samples");
    if (options.num_test_points < 1)
        throw std::invalid_argument("AdaptiveOptions: test points");
    if (options.candidate_pool < 1)
        throw std::invalid_argument("AdaptiveOptions: candidate_pool");
    if (options.lhs_candidates < 1)
        throw std::invalid_argument("AdaptiveOptions: lhs_candidates");
    if (options.batch_strategy ==
            sampling::BatchStrategy::Determinantal &&
        options.candidate_pool < options.batch_size)
        throw std::invalid_argument(
            "AdaptiveOptions: candidate_pool < batch_size");

    obs::TraceRoot trace_root("adaptive.build");
    const std::uint64_t evals_before = oracle_.evaluations();
    math::Rng rng(options.seed);

    // Fixed validation set.
    math::Rng test_rng = rng.split();
    const auto test_points = sampling::randomTestSet(
        test_space_, options.num_test_points, test_rng);
    const auto test_ys = oracle_.evaluateAll(test_points);

    AdaptiveResult result;

    // Round 0: discrepancy-optimized LHS seed sample.
    result.sample = sampling::bestLatinHypercube(
        train_space_, options.initial_size, options.lhs_candidates,
        rng).points;
    std::vector<double> ys = oracle_.evaluateAll(result.sample);
    std::vector<dspace::UnitPoint> unit;
    for (const auto &p : result.sample)
        unit.push_back(train_space_.toUnit(p));

    auto refit_and_record =
        [&](const sampling::AcquisitionStats &acquisition) {
            OBS_SPAN("adaptive.refit");
            rbf::TrainedRbf trained =
                rbf::trainRbfModel(unit, ys, options.trainer);
            result.model = std::make_shared<RbfPerformanceModel>(
                train_space_, std::move(trained));
            AdaptiveRound round;
            round.samples = static_cast<int>(result.sample.size());
            round.error =
                evaluateModel(*result.model, test_points, test_ys);
            round.acquisition = acquisition;
            result.history.push_back(round);
            return result.history.back().error.mean_error;
        };

    double err = refit_and_record({});

    while (err > options.target_mean_error &&
           static_cast<int>(result.sample.size()) <
               options.max_samples) {
        const int want = std::min(
            options.batch_size,
            options.max_samples -
                static_cast<int>(result.sample.size()));

        // Infill batch: far from the sample, in high-variance tree
        // regions. The variability proxy is the response standard
        // deviation of the leaf containing the candidate.
        sampling::AcquiredBatch batch = [&] {
            OBS_SPAN("adaptive.acquire");
            const tree::RegressionTree tree(unit, ys, 8);
            sampling::BatchAcquisitionOptions acq;
            acq.batch_size = want;
            acq.candidate_pool = options.candidate_pool;
            acq.distance_weight = options.distance_weight;
            acq.kernel_bandwidth = options.kernel_bandwidth;
            return sampling::acquireBatch(
                options.batch_strategy, train_space_, unit,
                [&tree](const dspace::UnitPoint &x) {
                    return tree.leafStd(x);
                },
                acq, rng);
        }();

        // Simulate the whole batch in one dispatch (a RemoteOracle
        // shards it across server processes) and refit.
        const std::vector<double> batch_ys = [&] {
            OBS_SPAN("adaptive.simulate_batch");
            return oracle_.evaluateAll(batch.points);
        }();
        for (std::size_t i = 0; i < batch.points.size(); ++i) {
            ys.push_back(batch_ys[i]);
            result.sample.push_back(std::move(batch.points[i]));
            unit.push_back(std::move(batch.unit[i]));
        }
        err = refit_and_record(batch.stats);
        OBS_STATIC_COUNTER(rounds, "adaptive.rounds");
        OBS_ADD(rounds, 1);
        obs::logEvent(obs::LogLevel::Info, "adaptive", "round_done",
                      {{"samples", result.sample.size()},
                       {"mean_error", err}});
    }

    result.converged = err <= options.target_mean_error;
    result.simulations = oracle_.evaluations() - evals_before;
    return result;
}

} // namespace ppm::core
