/**
 * @file
 * CPI oracles: the expensive function the predictive models
 * approximate. The production oracle runs the cycle-level simulator on
 * a benchmark trace and memoizes results; an analytic oracle backs
 * fast tests of the model-building machinery.
 *
 * Memoization is delegated to cache::ResultCache (src/cache/), the
 * budgeted memo table: the simulator oracle renders design points to
 * fixed-point keys (SimulatorOracle::cacheKey), prefixes them with a
 * context word, and runs the table's exactly-once getOrCompute
 * protocol. Durability is the oracle's alone: every value a
 * simulation prices is written through to its metric's store, when
 * one is attached, before any of them is published, so the table
 * never holds the only copy of an archived value.
 */

#ifndef PPM_CORE_ORACLE_HH
#define PPM_CORE_ORACLE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_cache.hh"
#include "core/result_store.hh"
#include "dspace/design_space.hh"
#include "obs/trace_span.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

namespace ppm::core {

/**
 * Source of CPI responses over a design space.
 */
class CpiOracle
{
  public:
    virtual ~CpiOracle() = default;

    /** CPI at a raw design point. */
    virtual double cpi(const dspace::DesignPoint &point) = 0;

    /** Number of expensive evaluations performed so far. */
    virtual std::uint64_t evaluations() const = 0;

    /** CPI at many points, strictly in order on the calling thread. */
    std::vector<double>
    cpiAll(const std::vector<dspace::DesignPoint> &points)
    {
        std::vector<double> out;
        out.reserve(points.size());
        for (const auto &p : points)
            out.push_back(cpi(p));
        return out;
    }

    /**
     * CPI at many points, possibly evaluated in parallel. Results are
     * returned in input order and are bit-identical to cpiAll() for
     * every thread count. The default forwards to cpiAll(); oracles
     * whose cpi() is thread-safe override it to fan the batch out
     * across the global pool.
     */
    virtual std::vector<double>
    evaluateAll(const std::vector<dspace::DesignPoint> &points)
    {
        return cpiAll(points);
    }
};

/**
 * Which simulated response a SimulatorOracle reports. CPI is the
 * paper's metric; the energy metrics implement its proposed extension
 * to power modeling (Sec 6) via the activity-based model in
 * sim/power.hh.
 */
enum class Metric
{
    Cpi,                //!< cycles per instruction
    EnergyPerInst,      //!< model-nJ per committed instruction
    EnergyDelaySquared, //!< EPI * CPI^2
};

/** Short name of a Metric ("CPI", "EPI", "ED2P"). */
std::string metricName(Metric metric);

/** Every Metric, in metricIndex() order: one simulation prices all. */
inline constexpr std::array<Metric, 3> kMetrics = {
    Metric::Cpi, Metric::EnergyPerInst, Metric::EnergyDelaySquared};

/** Zero-based index of @p metric, as packed into cache key words. */
int metricIndex(Metric metric);

/**
 * Oracle backed by the cycle-level simulator running one benchmark
 * trace. Results are memoized, so re-simulating a previously seen
 * configuration is free — mirroring how a real study would archive
 * simulation results.
 *
 * cpi() is thread-safe: the memo layer is a cache::ResultCache, which
 * deduplicates concurrent requests for the same point — exactly one
 * simulation runs and every other requester blocks on (and shares)
 * its result. evaluateAll() exploits this to simulate a batch across
 * the global thread pool.
 *
 * By default each oracle lazily creates a private table sized by
 * PPM_CACHE_MB. Alternatively attachSharedCache() points several
 * oracles at one process-wide table: each oracle's entries are
 * distinguished by a context word packed from its context id and
 * metric, and one simulation populates the sibling metrics of its
 * context (a CPI oracle's run also fills the EPI and ED2P entries),
 * so sibling-metric oracles never re-simulate a paid-for point.
 *
 * Each Metric has one store slot. A fresh simulation appends every
 * metric's value to that metric's attached store before it publishes
 * any of them (write-through), so with a store attached for each
 * metric a killed process loses no paid-for simulation.
 *
 * Despite the interface name, the oracle can report any Metric; the
 * model-building machinery is agnostic to what response it models.
 */
class SimulatorOracle : public CpiOracle
{
  public:
    /**
     * @param space Design space the points belong to (paper layout).
     * @param trace Benchmark trace (held by reference; must outlive
     *              the oracle).
     * @param options Simulation options applied to every run.
     * @param metric Response reported by cpi().
     */
    SimulatorOracle(const dspace::DesignSpace &space,
                    const trace::Trace &trace,
                    const sim::SimOptions &options = {},
                    Metric metric = Metric::Cpi);

    double cpi(const dspace::DesignPoint &point) override;
    std::vector<double> evaluateAll(
        const std::vector<dspace::DesignPoint> &points) override;

    /**
     * Attach the persistent store of @p metric's values (by default
     * the oracle's own metric). Every fresh simulation appends its
     * @p metric value to the store before publishing any value. The
     * own metric's store is also preloaded into the memo cache, so
     * requesting an archived result never simulates; a sibling
     * metric's store is preloaded by that metric's oracle. Attach
     * before issuing requests; results simulated earlier by this
     * oracle are not retroactively archived.
     */
    void attachStore(std::shared_ptr<ResultStore> store);
    void attachStore(Metric metric, std::shared_ptr<ResultStore> store);

    /**
     * Memoize through @p cache (shared with other oracles) instead of
     * a private table. This oracle's keys carry
     * cache::contextWord(@p context_id, metricIndex(metric())), and a
     * fresh simulation also inserts the sibling-metric values for the
     * same context id. Call before the first cpi()/attachStore();
     * @p cache must outlive the oracle's requests and its key width
     * must be the design-point size + 1.
     */
    void attachSharedCache(std::shared_ptr<cache::ResultCache> cache,
                           std::int64_t context_id);

    /** Results preloaded from the own metric's store. */
    std::uint64_t
    archivedResults() const
    {
        return archived_.load(std::memory_order_relaxed);
    }

    /**
     * Memo-cache key of @p point: a fixed-point rendering
     * (llround(v * 1e6) per coordinate), so float noise cannot split
     * logically identical configurations. This is also the key
     * persisted by an attached ResultStore.
     */
    static ResultStore::Key cacheKey(const dspace::DesignPoint &point);

    /** The in-table key: @p context_word, then cacheKey(@p point). */
    static ResultStore::Key cacheKey(std::int64_t context_word,
                                     const dspace::DesignPoint &point);

    /** Inverse of cacheKey(point): the raw point a stored key names. */
    static dspace::DesignPoint pointFromKey(const ResultStore::Key &key);

    std::uint64_t
    evaluations() const override
    {
        return evaluations_.load(std::memory_order_relaxed);
    }

    /**
     * Memoization hits so far. A request that arrives while the same
     * point is still being simulated counts as a hit: it consumes no
     * extra simulation.
     */
    std::uint64_t
    cacheHits() const
    {
        return cache_hits_.load(std::memory_order_relaxed);
    }

    /** The metric this oracle reports. */
    Metric metric() const { return metric_; }

  private:
    /** Create the private table on first use (PPM_CACHE_MB-sized). */
    void ensureCache();
    /**
     * Run one simulation of @p point, whose in-table key is @p key,
     * and return the requested metric's value.
     */
    double simulatePoint(const dspace::DesignPoint &point,
                         const ResultStore::Key &key);

    const dspace::DesignSpace &space_;
    const trace::Trace &trace_;
    sim::SimOptions options_;
    Metric metric_;

    std::once_flag cache_once_;
    std::shared_ptr<cache::ResultCache> cache_;
    bool shared_cache_ = false;
    std::int64_t context_id_ = 0;

    std::mutex store_mutex_;
    /** Attached stores, indexed by metricIndex(). */
    std::array<std::shared_ptr<ResultStore>, kMetrics.size()> stores_;

    std::atomic<std::uint64_t> evaluations_{0};
    std::atomic<std::uint64_t> cache_hits_{0};
    std::atomic<std::uint64_t> archived_{0};
};

/**
 * Oracle defined by an arbitrary function of the raw design point.
 * Used by unit tests and by synthetic accuracy studies where ground
 * truth must be known exactly. Every cpi() call invokes the function
 * (no memo), keeping evaluation counting exact for tests.
 */
class FunctionOracle : public CpiOracle
{
  public:
    using Fn = std::function<double(const dspace::DesignPoint &)>;

    explicit FunctionOracle(Fn fn) : fn_(std::move(fn)) {}

    double cpi(const dspace::DesignPoint &point) override;

    std::uint64_t
    evaluations() const override
    {
        return evaluations_.load(std::memory_order_relaxed);
    }

  private:
    Fn fn_;
    std::atomic<std::uint64_t> evaluations_{0};
};

} // namespace ppm::core

#endif // PPM_CORE_ORACLE_HH
