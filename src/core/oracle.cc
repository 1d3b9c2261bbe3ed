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
    ensureCache();
    std::uint64_t loaded = 0;
    const std::int64_t ctx =
        cache::contextWord(context_id_, metricIndex(metric_));
    store->load([&](const ResultStore::Key &bare, double value) {
        ResultStore::Key key;
        key.reserve(bare.size() + 1);
        key.push_back(ctx);
        key.insert(key.end(), bare.begin(), bare.end());
        // Archived results are durable by definition: insert clean.
        if (cache_->insert(key, value, /*dirty=*/false)) {
            archived_.fetch_add(1, std::memory_order_relaxed);
            ++loaded;
        }
    });
    {
        std::lock_guard<std::mutex> lock(store_mutex_);
        store_ = std::move(store);
    }
    OBS_STATIC_COUNTER(preloaded, "oracle.preloaded");
    OBS_ADD(preloaded, loaded);
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
    const double values[3] = {stats.cpi(), power.epi(stats),
                              power.ed2p(stats)};
    const double value = values[metricIndex(metric_)];
    // Archive before publishing: if the store cannot persist the
    // result, fail the request rather than hand out a value that a
    // replay would have to re-simulate.
    std::shared_ptr<ResultStore> store;
    {
        std::lock_guard<std::mutex> lock(store_mutex_);
        store = store_;
    }
    if (store)
        store->append(ResultStore::Key(key.begin() + 1, key.end()),
                      value);
    // One simulation prices every metric: on a shared table, populate
    // the sibling-metric entries of this context so a sibling oracle
    // (same design-space config, different Metric) never re-simulates
    // this point. Siblings are dirty — durability belongs to *their*
    // archives, reached via their registered spill routes.
    if (shared_cache_) {
        for (int m = 0; m < 3; ++m) {
            if (m == metricIndex(metric_))
                continue;
            ResultStore::Key sibling = key;
            sibling.front() = cache::contextWord(context_id_, m);
            cache_->insert(sibling, values[m], /*dirty=*/true);
        }
    }
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    return value;
}

double
SimulatorOracle::cpi(const dspace::DesignPoint &point)
{
    ensureCache();
    const ResultStore::Key key = cacheKey(
        cache::contextWord(context_id_, metricIndex(metric_)), point);
    const cache::ResultCache::GetResult result = cache_->getOrCompute(
        key, [&] { return simulatePoint(point, key); },
        /*publish_dirty=*/false);
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
    const auto evaluate = [&] {
        // Relaxed atomic: function oracles must stay safe under a
        // parallel evaluateAll() override, matching SimulatorOracle.
        evaluations_.fetch_add(1, std::memory_order_relaxed);
        OBS_STATIC_COUNTER(fn_evals, "oracle.fn_evals");
        OBS_ADD(fn_evals, 1);
        return fn_(point);
    };
    if (!cache_)
        return evaluate();
    return cache_
        ->getOrCompute(SimulatorOracle::cacheKey(ctx_word_, point),
                       evaluate, write_behind_)
        .value;
}

void
FunctionOracle::attachCache(std::shared_ptr<cache::ResultCache> cache,
                            std::shared_ptr<ResultStore> store,
                            std::int64_t context_id)
{
    cache_ = std::move(cache);
    ctx_word_ = cache::contextWord(context_id, 0);
    write_behind_ = store != nullptr;
    if (!store)
        return;
    cache_->registerSpillStore(ctx_word_, store);
    store->load([&](const ResultStore::Key &bare, double value) {
        ResultStore::Key key;
        key.reserve(bare.size() + 1);
        key.push_back(ctx_word_);
        key.insert(key.end(), bare.begin(), bare.end());
        if (cache_->insert(key, value, /*dirty=*/false))
            archived_.fetch_add(1, std::memory_order_relaxed);
    });
}

std::size_t
FunctionOracle::flushDirty()
{
    return cache_ ? cache_->flushDirty() : 0;
}

} // namespace ppm::core
