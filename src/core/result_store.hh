/**
 * @file
 * ResultStore: the persistent backing-store interface of the
 * memoizing oracles (core/oracle.hh); serve::ResultArchive is the
 * on-disk implementation. The result cache never sees a store: the
 * oracles write every value through before they cache it.
 */

#ifndef PPM_CORE_RESULT_STORE_HH
#define PPM_CORE_RESULT_STORE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace ppm::core {

/**
 * Persistent backing store for simulation results of one metric. A
 * SimulatorOracle preloads every archived (design-point key → value)
 * pair of its own metric's store into its memo cache at attach time,
 * and appends every metric value of a fresh simulation to that
 * metric's attached store before publishing any of them, so results
 * survive the process (a SIGKILL included) and are shared across
 * concurrent processes.
 *
 * Implementations must make append() safe to call concurrently; the
 * canonical implementation is serve::ResultArchive (an append-only,
 * CRC-checked on-disk log). The store is scoped to one oracle context
 * (benchmark, trace length, options, metric) — keys from different
 * contexts must go to different stores.
 */
class ResultStore
{
  public:
    /** Memo key: the fixed-point rendering of a design point. */
    using Key = std::vector<std::int64_t>;

    virtual ~ResultStore() = default;

    /** Invoke @p sink for every archived (key, value) pair. */
    virtual void load(
        const std::function<void(const Key &, double)> &sink) = 0;

    /** Durably record one fresh result. Thread-safe. */
    virtual void append(const Key &key, double value) = 0;
};

} // namespace ppm::core

#endif // PPM_CORE_RESULT_STORE_HH
