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
 * count. A full table evicts by second chance over insertion order;
 * dirty victims are spilled through the core::ResultStore registered
 * for their context word, so budget pressure never loses work that a
 * restart would otherwise re-simulate.
 *
 * Key layout contract: key[0] is the caller's context/routing word
 * (oracle context id and metric; 0 for single-context private
 * tables); the remaining words are the fixed-point design-point
 * rendering. Spills strip key[0] and append the bare point key to the
 * store registered for that word, matching the on-disk archive
 * format.
 */

#ifndef PPM_CACHE_RESULT_CACHE_HH
#define PPM_CACHE_RESULT_CACHE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/result_store.hh"
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
    using Key = core::ResultStore::Key;

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
     * the lock, publishing its result. When @p publish_dirty is true
     * the entry is marked not-yet-durable and will be spilled on
     * eviction; pass false when @p compute already persisted the
     * result (write-through). If the table holds only in-flight
     * entries, computes without caching (Outcome::Bypassed).
     *
     * If @p compute throws, the claimed entry is erased, waiters are
     * woken (one of them claims the key), and the exception
     * propagates.
     */
    GetResult getOrCompute(const Key &key,
                           const std::function<double()> &compute,
                           bool publish_dirty);

    /**
     * Directly publish a known value (archive preloads, sibling
     * metrics of one simulation). An existing published entry is left
     * in place — except that inserting clean over a dirty entry
     * clears the dirty bit (the caller vouches the value is durable).
     * Returns true when the entry was newly placed; false when the
     * key was already present (or in flight), or the table was full
     * of in-flight entries and nothing could be placed.
     */
    bool insert(const Key &key, double value, bool dirty);

    /**
     * Route spills of dirty entries whose key[0] == @p ctx_word
     * through @p store. Entries with an unregistered context word are
     * dropped on eviction (counted, never blocking).
     */
    void registerSpillStore(std::int64_t ctx_word,
                            std::shared_ptr<core::ResultStore> store);

    /**
     * Spill every dirty entry through its registered store and mark
     * it clean; entries without a store stay dirty. Returns the
     * number spilled. A racing flush may append an entry twice, which
     * preload deduplication absorbs.
     */
    std::size_t flushDirty();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t dedup_waits = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t spills = 0;
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
        bool dirty = false;   //!< not yet durable: spill on eviction
        mutable bool referenced = true; //!< second-chance bit
        std::list<Slot *>::iterator order; //!< place in clock_
    };

    /** A dirty entry copied out under the lock, persisted after. */
    struct Spilled
    {
        std::shared_ptr<core::ResultStore> store;
        Key key;
        double value = 0.0;
    };

    void checkWidth(const Key &key) const;
    // These four run under mutex_. Evicted dirty entries with a spill
    // route go to @p spilled, for spill() once the lock is released.

    /** Evict one entry; false when every entry is in flight. */
    bool evictOne(std::vector<Spilled> &spilled);
    /** Add absent @p key, evicting as needed; nullptr when it can't. */
    Slot *place(const Key &key, std::vector<Spilled> &spilled);
    void erase(Slot *slot);
    std::shared_ptr<core::ResultStore> storeFor(std::int64_t ctx_word) const;

    /** Append each entry to its store, context word stripped. */
    void spill(const std::vector<Spilled> &spilled);

    std::size_t key_words_;
    std::size_t entry_bytes_;
    std::size_t capacity_;

    mutable std::mutex mutex_;
    /** Notified when an in-flight entry is published or erased. */
    std::condition_variable settled_;
    std::map<Key, Entry> entries_;
    std::list<Slot *> clock_; //!< insertion order, oldest first
    std::map<std::int64_t, std::shared_ptr<core::ResultStore>> stores_;

    // Per-table statistics; the matching process-wide cache.* obs
    // counters are bumped at the same call sites. Mutable: the const
    // lookup() path still counts.
    mutable obs::Counter hits_;
    mutable obs::Counter misses_;
    obs::Counter dedup_waits_;
    obs::Counter inserts_;
    obs::Counter evictions_;
    obs::Counter spills_;
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
