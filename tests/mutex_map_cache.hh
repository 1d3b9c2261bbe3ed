/**
 * @file
 * MutexMapCache: an independent memo table, one mutex around an
 * ordered std::map from key to shared_future, written apart from
 * cache::ResultCache. The bit-equivalence tests in
 * test_cache_concurrency.cc compute their expected CPI values through
 * it.
 *
 * Header-only and deliberately boring: correctness by one big lock.
 */

#ifndef PPM_TESTS_MUTEX_MAP_CACHE_HH
#define PPM_TESTS_MUTEX_MAP_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <vector>

namespace ppm::cache {

class MutexMapCache
{
  public:
    using Key = std::vector<std::int64_t>;

    /**
     * The classic memo protocol: first thread in claims the key with
     * a promise and computes; racers block on the shared_future.
     */
    double getOrCompute(const Key &key,
                        const std::function<double()> &compute)
    {
        std::promise<double> promise;
        std::shared_future<double> fut;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto [it, inserted] =
                memo_.try_emplace(key, promise.get_future().share());
            fut = it->second;
            owner = inserted;
        }
        if (!owner)
            return fut.get();
        try {
            promise.set_value(compute());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                memo_.erase(key);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
        return fut.get();
    }

  private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<double>> memo_;
};

} // namespace ppm::cache

#endif // PPM_TESTS_MUTEX_MAP_CACHE_HH
