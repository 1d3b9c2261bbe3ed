/**
 * @file
 * Online model-drift monitoring for the prediction plane: a
 * deterministic 1-in-N sample of served PREDICT points is
 * shadow-checked against ground truth the serve plane already has —
 * the server's shared result cache (fed by live EvalRequests and by
 * the archives a simulation context preloads when it is created) — so
 * drift detection never runs a duplicate simulation. Points whose
 * truth is not cached are simply not scored.
 *
 * Per snapshot version the monitor keeps streaming error statistics
 * (Welford mean/variance of relative error, a power-of-two residual
 * histogram for P90) and exports them as `model.drift.*` metrics.
 * When the observed mean relative error of a version degrades past
 * `threshold_ratio x baseline` — where baseline is the snapshot's
 * training-time cross-validation error (`ModelSnapshot::cv_error`,
 * snapshot format 2) or `baseline_floor` when unknown — a `drift`
 * event is emitted once per version to the JSONL event log and the
 * `model.drift.events` counter increments.
 *
 * Determinism: sampling is a relaxed point counter (never an RNG —
 * the zero-perturbation rule), so a serialized request stream yields
 * bit-identical statistics at any PPM_THREADS.
 */

#ifndef PPM_SERVE_DRIFT_MONITOR_HH
#define PPM_SERVE_DRIFT_MONITOR_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "cache/result_cache.hh"
#include "dspace/design_space.hh"

namespace ppm::serve {

struct DriftOptions
{
    /** Shadow-check every Nth served PREDICT point; 0 = off. */
    std::uint32_t sample_every = 0;
    /** Degraded when mean rel. error > threshold_ratio x baseline. */
    double threshold_ratio = 2.0;
    /** Baseline when the snapshot carries no cv_error (format 1). */
    double baseline_floor = 0.02;
    /** Residuals required before a version can fire the event. */
    std::uint64_t min_samples = 32;
};

/** Streaming error state of one snapshot version (test/API view). */
struct DriftStats
{
    std::uint64_t sampled = 0; //!< points probed against the cache
    std::uint64_t scored = 0;  //!< residuals recorded (cache hits)
    double mean_rel_err = 0.0;
    double variance = 0.0; //!< Welford population variance
    double p90_rel_err = 0.0;
    bool fired = false; //!< drift event emitted for this version
};

class DriftMonitor
{
  public:
    DriftMonitor() = default;

    void configure(const DriftOptions &options);
    bool enabled() const
    {
        return sample_every_.load(std::memory_order_relaxed) != 0;
    }

    /**
     * Shadow-check a served batch: deterministically sample points,
     * probe @p cache for their ground truth (keys are the oracle memo
     * keys, core::SimulatorOracle::cacheKey(@p context_word, point))
     * and fold |predicted - truth| / |truth| into the stats of
     * @p model_version. A null @p cache holds no truth: the sampled
     * points count, none is scored. @p cv_error is the snapshot's
     * training-time baseline (0 = unknown).
     */
    void observeBatch(const cache::ResultCache *cache,
                      std::int64_t context_word,
                      std::uint64_t model_version, double cv_error,
                      const std::vector<dspace::DesignPoint> &points,
                      const std::vector<double> &predicted);

    /** Snapshot the stats of @p model_version (zeros if unseen). */
    DriftStats statsFor(std::uint64_t model_version) const;

  private:
    struct VersionStats
    {
        std::uint64_t sampled = 0;
        std::uint64_t scored = 0;
        // Welford accumulators, updated in arrival order.
        double mean = 0.0;
        double m2 = 0.0;
        // Power-of-two histogram of rel. error scaled by 1e9: bucket
        // b counts residuals with bit_width(rel * 1e9) == b.
        std::uint64_t buckets[64] = {};
        bool fired = false;
    };

    static double p90FromBuckets(const VersionStats &vs);

    std::atomic<std::uint32_t> sample_every_{0};
    double threshold_ratio_ = 2.0;
    double baseline_floor_ = 0.02;
    std::uint64_t min_samples_ = 32;

    /** Deterministic sampler: counts every served point. */
    std::atomic<std::uint64_t> seen_points_{0};

    mutable std::mutex mutex_;
    std::map<std::uint64_t, VersionStats> stats_;
};

} // namespace ppm::serve

#endif // PPM_SERVE_DRIFT_MONITOR_HH
