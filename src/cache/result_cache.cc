#include "cache/result_cache.hh"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "obs/trace_span.hh"

namespace ppm::cache {

namespace {

/**
 * Heap bytes glibc malloc spends on a request of @p n bytes: the
 * request plus one size word, rounded up to 16 bytes, at least 32.
 */
constexpr std::size_t
heapChunk(std::size_t n)
{
    return std::max<std::size_t>(32,
                                 (n + sizeof(std::size_t) + 15) / 16 * 16);
}

} // namespace

std::size_t
budgetBytesFromEnv(std::size_t fallback_mb)
{
    std::size_t mb = fallback_mb;
    if (const char *env = std::getenv("PPM_CACHE_MB")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v > 0)
            mb = static_cast<std::size_t>(v);
    }
    return mb * 1024 * 1024;
}

ResultCache::ResultCache(const CacheConfig &config)
    : key_words_(config.key_words)
{
    if (key_words_ == 0)
        throw std::invalid_argument(
            "ResultCache: key_words must be positive");
    // One entry allocates three blocks: the map node (at most four
    // words of tree links ahead of the key's vector header and the
    // Entry), the key's words, and the clock's list node (two links
    // and the slot pointer). test_result_cache checks the sum against
    // the allocator's own count.
    entry_bytes_ = heapChunk(4 * sizeof(void *) + sizeof(Slot)) +
                   heapChunk(key_words_ * sizeof(std::int64_t)) +
                   heapChunk(3 * sizeof(void *));
    const std::size_t budget = config.budget_bytes != 0
                                   ? config.budget_bytes
                                   : budgetBytesFromEnv();
    capacity_ = budget / entry_bytes_;
}

void
ResultCache::checkWidth(const Key &key) const
{
    if (key.size() != key_words_)
        throw std::invalid_argument("ResultCache: key width mismatch");
}

bool
ResultCache::evictOne()
{
    // Second chance over insertion order: a referenced entry loses its
    // bit and moves to the back; the oldest settled, unreferenced
    // entry is the victim. Two rounds either find one or prove that
    // every entry is in flight.
    for (std::size_t steps = 2 * clock_.size(); steps != 0; --steps) {
        Slot *oldest = clock_.front();
        Entry &entry = oldest->second;
        if (!entry.pending && !entry.referenced) {
            erase(oldest);
            evictions_.add(1);
            OBS_STATIC_COUNTER(evict_counter, "cache.evict");
            OBS_ADD(evict_counter, 1);
            return true;
        }
        entry.referenced = false;
        clock_.splice(clock_.end(), clock_, clock_.begin());
    }
    return false;
}

ResultCache::Slot *
ResultCache::place(const Key &key)
{
    while (entries_.size() >= capacity_)
        if (!evictOne())
            return nullptr;
    Slot *slot = &*entries_.try_emplace(key).first;
    slot->second.order = clock_.insert(clock_.end(), slot);
    return slot;
}

void
ResultCache::erase(Slot *slot)
{
    clock_.erase(slot->second.order);
    entries_.erase(entries_.find(slot->first));
}

bool
ResultCache::lookup(const Key &key, double *out) const
{
    checkWidth(key);
    bool hit = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && !it->second.pending) {
            it->second.referenced = true;
            *out = it->second.value;
            hit = true;
        }
    }
    if (hit) {
        hits_.add(1);
        OBS_STATIC_COUNTER(hit_counter, "cache.hit");
        OBS_ADD(hit_counter, 1);
    } else {
        misses_.add(1);
        OBS_STATIC_COUNTER(miss_counter, "cache.miss");
        OBS_ADD(miss_counter, 1);
    }
    return hit;
}

ResultCache::GetResult
ResultCache::getOrCompute(const Key &key,
                          const std::function<double()> &compute)
{
    checkWidth(key);
    Slot *claimed = nullptr;
    {
        OBS_SPAN("cache.lookup");
        std::unique_lock<std::mutex> lock(mutex_);
        bool waited = false;
        for (auto it = entries_.find(key); it != entries_.end();
             it = entries_.find(key)) {
            Entry &entry = it->second;
            if (!entry.pending) {
                entry.referenced = true;
                const double value = entry.value;
                lock.unlock();
                hits_.add(1);
                OBS_STATIC_COUNTER(hit_counter, "cache.hit");
                OBS_ADD(hit_counter, 1);
                return {value,
                        waited ? Outcome::DedupWait : Outcome::Hit};
            }
            if (!waited) {
                dedup_waits_.add(1);
                OBS_STATIC_COUNTER(dedup_counter, "cache.dedup_wait");
                OBS_ADD(dedup_counter, 1);
            }
            waited = true;
            settled_.wait(lock);
        }
        claimed = place(key);
        if (claimed != nullptr)
            claimed->second.pending = true;
    }

    if (claimed == nullptr) {
        // Every entry is in flight for other keys: compute without
        // caching rather than block on strangers.
        bypasses_.add(1);
        OBS_STATIC_COUNTER(bypass_counter, "cache.bypass");
        OBS_ADD(bypass_counter, 1);
        return {compute(), Outcome::Bypassed};
    }
    // The claimed entry is in flight, so no other thread evicts or
    // erases it: the pointer stays valid without the lock.
    double value = 0.0;
    try {
        value = compute();
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            erase(claimed);
        }
        settled_.notify_all();
        throw;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        claimed->second.value = value;
        claimed->second.pending = false;
    }
    settled_.notify_all();
    misses_.add(1);
    OBS_STATIC_COUNTER(miss_counter, "cache.miss");
    OBS_ADD(miss_counter, 1);
    return {value, Outcome::Computed};
}

bool
ResultCache::insert(const Key &key, double value)
{
    checkWidth(key);
    bool placed = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // A present or in-flight key keeps its entry: results are
        // deterministic per key, so it holds (or will hold) this
        // very value.
        if (!entries_.contains(key)) {
            if (Slot *slot = place(key)) {
                slot->second.value = value;
                placed = true;
            }
        }
    }
    if (placed) {
        inserts_.add(1);
        OBS_STATIC_COUNTER(insert_counter, "cache.insert");
        OBS_ADD(insert_counter, 1);
    }
    return placed;
}

ResultCache::Stats
ResultCache::stats() const
{
    Stats out;
    out.hits = hits_.value();
    out.misses = misses_.value();
    out.dedup_waits = dedup_waits_.value();
    out.inserts = inserts_.value();
    out.evictions = evictions_.value();
    out.bypasses = bypasses_.value();
    return out;
}

std::size_t
ResultCache::liveEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace ppm::cache
