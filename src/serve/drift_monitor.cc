#include "serve/drift_monitor.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "core/oracle.hh"
#include "obs/event_log.hh"
#include "obs/trace_span.hh"

namespace ppm::serve {

namespace {

/** Gauges export doubles as integers; parts-per-million keeps 6
 * significant digits of relative error in an int64. */
std::int64_t
toPpm(double v)
{
    return static_cast<std::int64_t>(std::llround(v * 1e6));
}

} // namespace

void
DriftMonitor::configure(const DriftOptions &options)
{
    threshold_ratio_ = options.threshold_ratio;
    baseline_floor_ = options.baseline_floor;
    min_samples_ = options.min_samples;
    sample_every_.store(options.sample_every,
                        std::memory_order_relaxed);
}

void
DriftMonitor::observeBatch(
    const cache::ResultCache *cache, std::int64_t context_word,
    std::uint64_t model_version, double cv_error,
    const std::vector<dspace::DesignPoint> &points,
    const std::vector<double> &predicted)
{
    const std::uint32_t every =
        sample_every_.load(std::memory_order_relaxed);
    if (every == 0 || points.empty() ||
        points.size() != predicted.size())
        return;

    // One counter window covers the whole batch, so the set of
    // sampled points depends only on the arrival order of points —
    // not on threads, timing, or any RNG.
    const std::uint64_t base = seen_points_.fetch_add(
        points.size(), std::memory_order_relaxed);
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < points.size(); ++i)
        if ((base + i) % every == 0)
            picked.push_back(i);
    if (picked.empty())
        return;

    OBS_SPAN("drift.probe");

    // Rebuild the oracle memo keys and probe the shared cache: truth
    // is whatever the serve plane already simulated (live requests or
    // archive reload) — never a fresh simulation.
    std::vector<double> truths(picked.size(), 0.0);
    std::vector<bool> found(picked.size());
    if (cache != nullptr)
        for (std::size_t k = 0; k < picked.size(); ++k)
            found[k] = cache->lookup(
                core::SimulatorOracle::cacheKey(context_word,
                                                points[picked[k]]),
                &truths[k]);

    OBS_STATIC_COUNTER(sampled_counter, "model.drift.sampled");
    OBS_ADD(sampled_counter, picked.size());

    double mean = 0.0;
    std::uint64_t scored_now = 0;
    bool fire = false;
    std::uint64_t fire_scored = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        VersionStats &vs = stats_[model_version];
        vs.sampled += picked.size();
        for (std::size_t k = 0; k < picked.size(); ++k) {
            if (!found[k])
                continue;
            const double truth = truths[k];
            const double pred = predicted[picked[k]];
            const double rel =
                std::abs(pred - truth) /
                std::max(std::abs(truth), 1e-12);
            ++vs.scored;
            ++scored_now;
            const double delta = rel - vs.mean;
            vs.mean += delta / static_cast<double>(vs.scored);
            vs.m2 += delta * (rel - vs.mean);
            const std::uint64_t scaled = static_cast<std::uint64_t>(
                std::llround(rel * 1e9));
            vs.buckets[std::min<std::uint64_t>(
                std::bit_width(scaled), 63)] += 1;
        }
        mean = vs.mean;
        const double baseline =
            cv_error > 0.0 ? cv_error : baseline_floor_;
        if (!vs.fired && vs.scored >= min_samples_ &&
            vs.mean > threshold_ratio_ * baseline) {
            vs.fired = true;
            fire = true;
            fire_scored = vs.scored;
        }
    }
    if (scored_now != 0) {
        OBS_STATIC_COUNTER(scored_counter, "model.drift.scored");
        OBS_ADD(scored_counter, scored_now);
        obs::Registry::instance()
            .gauge("model.drift.mean_rel_err_ppm")
            .set(toPpm(mean));
        obs::Registry::instance()
            .gauge("model.drift.p90_rel_err_ppm")
            .set(toPpm(statsFor(model_version).p90_rel_err));
        obs::Registry::instance()
            .gauge("model.drift.version")
            .set(static_cast<std::int64_t>(model_version));
    }
    if (fire) {
        OBS_STATIC_COUNTER(events_counter, "model.drift.events");
        OBS_ADD(events_counter, 1);
        const double baseline =
            cv_error > 0.0 ? cv_error : baseline_floor_;
        obs::logEvent(obs::LogLevel::Warn, "drift", "model_drift",
                      {{"model_version", model_version},
                       {"scored", fire_scored},
                       {"mean_rel_err", mean},
                       {"baseline", baseline},
                       {"threshold", threshold_ratio_ * baseline}});
    }
}

double
DriftMonitor::p90FromBuckets(const VersionStats &vs)
{
    if (vs.scored == 0)
        return 0.0;
    // Smallest bucket upper bound covering >= 90% of residuals. The
    // bound is 2^b - 1 in 1e-9 units (bit_width(x) == b means
    // x <= 2^b - 1).
    const std::uint64_t want = (vs.scored * 9 + 9) / 10;
    std::uint64_t cum = 0;
    for (int b = 0; b < 64; ++b) {
        cum += vs.buckets[b];
        if (cum >= want)
            return static_cast<double>((std::uint64_t{1} << b) - 1) /
                   1e9;
    }
    return 0.0;
}

DriftStats
DriftMonitor::statsFor(std::uint64_t model_version) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stats_.find(model_version);
    DriftStats out;
    if (it == stats_.end())
        return out;
    const VersionStats &vs = it->second;
    out.sampled = vs.sampled;
    out.scored = vs.scored;
    out.mean_rel_err = vs.mean;
    out.variance = vs.scored > 0
                       ? vs.m2 / static_cast<double>(vs.scored)
                       : 0.0;
    out.p90_rel_err = p90FromBuckets(vs);
    out.fired = vs.fired;
    return out;
}

} // namespace ppm::serve
