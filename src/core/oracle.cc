#include "core/oracle.hh"

#include <cmath>
#include <utility>

#include "obs/trace_span.hh"
#include "sim/power.hh"
#include "util/thread_pool.hh"

namespace ppm::core {

std::string
metricName(Metric metric)
{
    switch (metric) {
      case Metric::Cpi:
        return "CPI";
      case Metric::EnergyPerInst:
        return "EPI";
      case Metric::EnergyDelaySquared:
        return "ED2P";
    }
    return "unknown";
}

int
metricIndex(Metric metric)
{
    switch (metric) {
      case Metric::EnergyPerInst:
        return 1;
      case Metric::EnergyDelaySquared:
        return 2;
      default:
        return 0;
    }
}

SimulatorOracle::SimulatorOracle(const dspace::DesignSpace &space,
                                 const trace::Trace &trace,
                                 const sim::SimOptions &options,
                                 Metric metric)
    : space_(space), trace_(trace), options_(options), metric_(metric)
{
}

ResultStore::Key
SimulatorOracle::cacheKey(const dspace::DesignPoint &point)
{
    ResultStore::Key key;
    key.reserve(point.size());
    for (double v : point)
        key.push_back(static_cast<std::int64_t>(std::llround(v * 1e6)));
    return key;
}

ResultStore::Key
SimulatorOracle::cacheKey(std::int64_t context_word,
                          const dspace::DesignPoint &point)
{
    ResultStore::Key key = cacheKey(point);
    key.insert(key.begin(), context_word);
    return key;
}

dspace::DesignPoint
SimulatorOracle::pointFromKey(const ResultStore::Key &key)
{
    dspace::DesignPoint point(key.size());
    for (std::size_t d = 0; d < key.size(); ++d)
        point[d] = static_cast<double>(key[d]) / 1e6;
    return point;
}

void
SimulatorOracle::ensureCache()
{
    std::call_once(cache_once_, [this] {
        if (cache_)
            return; // attachSharedCache() supplied one
        cache::CacheConfig config;
        config.key_words = space_.size() + 1;
        cache_ = std::make_shared<cache::ResultCache>(config);
    });
}

void
SimulatorOracle::attachSharedCache(
    std::shared_ptr<cache::ResultCache> cache, std::int64_t context_id)
{
    std::call_once(cache_once_, [&] {
        cache_ = std::move(cache);
        shared_cache_ = true;
        context_id_ = context_id;
    });
}

void
SimulatorOracle::attachStore(std::shared_ptr<ResultStore> store)
{
    attachStore(metric_, std::move(store));
}

void
SimulatorOracle::attachStore(Metric metric,
                             std::shared_ptr<ResultStore> store)
{
    if (metric == metric_) {
        ensureCache();
        std::uint64_t loaded = 0;
        const std::int64_t ctx =
            cache::contextWord(context_id_, metricIndex(metric_));
        store->load([&](const ResultStore::Key &bare, double value) {
            ResultStore::Key key;
            key.reserve(bare.size() + 1);
            key.push_back(ctx);
            key.insert(key.end(), bare.begin(), bare.end());
            if (cache_->insert(key, value)) {
                archived_.fetch_add(1, std::memory_order_relaxed);
                ++loaded;
            }
        });
        OBS_STATIC_COUNTER(preloaded, "oracle.preloaded");
        OBS_ADD(preloaded, loaded);
    }
    std::lock_guard<std::mutex> lock(store_mutex_);
    stores_[metricIndex(metric)] = std::move(store);
}

double
SimulatorOracle::simulatePoint(const dspace::DesignPoint &point,
                               const ResultStore::Key &key)
{
    OBS_SPAN("oracle.simulate");
    OBS_STATIC_COUNTER(simulations, "oracle.simulations");
    OBS_ADD(simulations, 1);
    const auto config =
        sim::ProcessorConfig::fromDesignPoint(space_, point);
    const sim::SimStats stats =
        sim::simulate(trace_, config, options_);
    const sim::PowerReport power = sim::computePower(config, stats);
    const double values[kMetrics.size()] = {
        stats.cpi(), power.epi(stats), power.ed2p(stats)};
    // Archive every metric before publishing any: if a store cannot
    // persist its value, fail the request rather than hand out a
    // value that a replay would have to re-simulate.
    std::array<std::shared_ptr<ResultStore>, kMetrics.size()> stores;
    {
        std::lock_guard<std::mutex> lock(store_mutex_);
        stores = stores_;
    }
    const ResultStore::Key bare(key.begin() + 1, key.end());
    for (std::size_t m = 0; m < stores.size(); ++m)
        if (stores[m])
            stores[m]->append(bare, values[m]);
    // One simulation prices every metric: on a shared table, publish
    // the sibling-metric entries of this context so a sibling oracle
    // (same design-space config, different Metric) never re-simulates
    // this point.
    if (shared_cache_) {
        for (const Metric sibling : kMetrics) {
            if (sibling == metric_)
                continue;
            const int m = metricIndex(sibling);
            ResultStore::Key sibling_key = key;
            sibling_key.front() = cache::contextWord(context_id_, m);
            cache_->insert(sibling_key, values[m]);
        }
    }
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    return values[metricIndex(metric_)];
}

double
SimulatorOracle::cpi(const dspace::DesignPoint &point)
{
    ensureCache();
    const ResultStore::Key key = cacheKey(
        cache::contextWord(context_id_, metricIndex(metric_)), point);
    const cache::ResultCache::GetResult result = cache_->getOrCompute(
        key, [&] { return simulatePoint(point, key); });
    switch (result.outcome) {
      case cache::Outcome::Hit: {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        OBS_STATIC_COUNTER(memo_hits, "oracle.cache_hits");
        OBS_ADD(memo_hits, 1);
        break;
      }
      case cache::Outcome::DedupWait: {
        // Still no extra simulation: another thread paid for it.
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        OBS_STATIC_COUNTER(dedup_waits, "oracle.dedup_waits");
        OBS_ADD(dedup_waits, 1);
        break;
      }
      default:
        break; // Computed/Bypassed counted via oracle.simulations
    }
    return result.value;
}

std::vector<double>
SimulatorOracle::evaluateAll(const std::vector<dspace::DesignPoint> &points)
{
    ensureCache();
    return util::parallelMap(points, [this](const dspace::DesignPoint &p) {
        return cpi(p);
    });
}

double
FunctionOracle::cpi(const dspace::DesignPoint &point)
{
    // Relaxed atomic: function oracles must stay safe under a
    // parallel evaluateAll() override, matching SimulatorOracle.
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    OBS_STATIC_COUNTER(fn_evals, "oracle.fn_evals");
    OBS_ADD(fn_evals, 1);
    return fn_(point);
}

} // namespace ppm::core
