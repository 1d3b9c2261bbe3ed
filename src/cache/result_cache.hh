/**
 * @file
 * ResultCache: the budgeted point→value memo table every simulated
 * result funnels through (simulator and function oracles, the
 * SimServer's shared table, drift probes); see DESIGN.md "Result
 * cache".
 *
 * One mutex guards an ordered map from key to entry. Entries are
 * allocated as they are inserted, and each is charged a measured
 * upper bound on its heap bytes (map node, key words, clock node)
 * against the memory budget (PPM_CACHE_MB), which caps the entry
 * count. A full table evicts by second chance over insertion order.
 * The table is a plain memo: it holds no state that a restart needs,
 * because the oracles write every result through to their archives
 * before publishing it here (core/oracle.hh).
 *
 * Key layout contract: key[0] is the caller's context word (oracle
 * context id and metric; 0 for single-context private tables); the
 * remaining words are the fixed-point design-point rendering.
 */

#ifndef PPM_CACHE_RESULT_CACHE_HH
#define PPM_CACHE_RESULT_CACHE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.hh"

namespace ppm::cache {

/** PPM_CACHE_MB in bytes; @p fallback_mb when unset or invalid. */
std::size_t budgetBytesFromEnv(std::size_t fallback_mb = 16);

struct CacheConfig
{
    /** Key width in int64 words, including the context word. */
    std::size_t key_words = 0;
    /** Memory budget in bytes; 0 = budgetBytesFromEnv(). */
    std::size_t budget_bytes = 0;
};

/** How a getOrCompute() request was satisfied. */
enum class Outcome
{
    Hit,       //!< published value found
    DedupWait, //!< waited on another thread's in-flight computation
    Computed,  //!< this thread claimed the key and computed
    Bypassed,  //!< table full of in-flight entries; computed
               //!< without caching
};

class ResultCache
{
  public:
    using Key = std::vector<std::int64_t>;

    /** @throws std::invalid_argument on a zero key width. */
    explicit ResultCache(const CacheConfig &config);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    std::size_t keyWords() const { return key_words_; }
    /** Entries the budget admits. */
    std::size_t capacitySlots() const { return capacity_; }
    /** Bytes charged for the entries held right now (≤ budget). */
    std::size_t footprintBytes() const
    {
        return liveEntries() * entry_bytes_;
    }

    /**
     * Returns true and sets @p out when a published value for @p key
     * is present. An in-flight entry reads as a miss. Counts
     * cache.hit / cache.miss.
     */
    bool lookup(const Key &key, double *out) const;

    struct GetResult
    {
        double value = 0.0;
        Outcome outcome = Outcome::Hit;
    };

    /**
     * The full memo protocol: return the published value for @p key,
     * or wait (on a condition variable) for a racing computation of
     * it, or claim the key and run @p compute exactly once, outside
     * the lock, publishing its result. If the table holds only
     * in-flight entries, computes without caching
     * (Outcome::Bypassed).
     *
     * If @p compute throws, the claimed entry is erased, waiters are
     * woken (one of them claims the key), and the exception
     * propagates.
     */
    GetResult getOrCompute(const Key &key,
                           const std::function<double()> &compute);

    /**
     * Directly publish a known value (archive preloads, sibling
     * metrics of one simulation). An existing entry is left in place.
     * Returns true when the entry was newly placed; false when the
     * key was already present (or in flight), or the table was full
     * of in-flight entries and nothing could be placed.
     */
    bool insert(const Key &key, double value);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t dedup_waits = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t bypasses = 0;
    };

    Stats stats() const;

    /** Entries held right now, in flight included. */
    std::size_t liveEntries() const;

  private:
    struct Entry;
    /** The map's element; the clock list points at it. */
    using Slot = std::pair<const Key, Entry>;

    struct Entry
    {
        double value = 0.0;
        bool pending = false; //!< claimed, compute still running
        mutable bool referenced = true; //!< second-chance bit
        std::list<Slot *>::iterator order; //!< place in clock_
    };

    void checkWidth(const Key &key) const;
    // These three run under mutex_.

    /** Evict one entry; false when every entry is in flight. */
    bool evictOne();
    /** Add absent @p key, evicting as needed; nullptr when it can't. */
    Slot *place(const Key &key);
    void erase(Slot *slot);

    std::size_t key_words_;
    std::size_t entry_bytes_;
    std::size_t capacity_;

    mutable std::mutex mutex_;
    /** Notified when an in-flight entry is published or erased. */
    std::condition_variable settled_;
    std::map<Key, Entry> entries_;
    std::list<Slot *> clock_; //!< insertion order, oldest first

    // Per-table statistics; the matching process-wide cache.* obs
    // counters are bumped at the same call sites. Mutable: the const
    // lookup() path still counts.
    mutable obs::Counter hits_;
    mutable obs::Counter misses_;
    obs::Counter dedup_waits_;
    obs::Counter inserts_;
    obs::Counter evictions_;
    obs::Counter bypasses_;
};

/** Pack an oracle context id and metric index into a key[0] word. */
constexpr std::int64_t
contextWord(std::int64_t context_id, int metric_index)
{
    return (context_id << 2) | (metric_index & 3);
}

} // namespace ppm::cache

#endif // PPM_CACHE_RESULT_CACHE_HH
