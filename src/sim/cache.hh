/**
 * @file
 * Set-associative cache tag store with true-LRU replacement and
 * write-back/write-allocate policy. Only tags are modeled (the
 * simulator is trace driven and needs timing, not data).
 */

#ifndef PPM_SIM_CACHE_HH
#define PPM_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace ppm::sim {

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** A dirty line was evicted; its address is victim_addr. */
    bool writeback = false;
    /** Line-aligned address of the evicted dirty line. */
    std::uint64_t victim_addr = 0;
};

/**
 * One level of cache.
 *
 * The set count is capacity / (line_size * assoc) and need not be a
 * power of two (validation design points carry arbitrary capacities),
 * so set indexing uses modulo, or a mask when the count is a power of
 * two.
 */
class Cache
{
  public:
    /**
     * @param name Statistic label ("il1", "dl1", "l2").
     * @param size_bytes Total capacity (>= line_size * assoc).
     * @param assoc Ways per set.
     * @param line_size Line size in bytes (power of two).
     */
    Cache(std::string name, std::uint64_t size_bytes, int assoc,
          int line_size);

    /**
     * Access the line containing @p addr.
     *
     * On a miss the line is allocated (write-allocate); the LRU victim
     * is evicted and reported if dirty.
     *
     * @param addr Byte address.
     * @param is_write Marks the (possibly newly allocated) line dirty.
     */
    CacheAccessResult access(std::uint64_t addr, bool is_write);

    /** True iff the line containing @p addr is present (no update). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate all lines and reset statistics. */
    void reset();

    const CacheStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }
    std::uint64_t numSets() const { return num_sets_; }
    int assoc() const { return assoc_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        /** Last-use stamp << 1 | dirty bit; 0 = invalid slot. */
        std::uint64_t stamp = 0;
    };

    std::string name_;
    int assoc_;
    int line_shift_;
    std::uint64_t num_sets_;
    /** num_sets_ - 1 when num_sets_ is a power of two, else 0. */
    std::uint64_t set_mask_ = 0;
    std::vector<Line> lines_; //!< num_sets * assoc, set-major
    std::uint64_t use_counter_ = 0;
    CacheStats stats_;

    std::uint64_t setIndex(std::uint64_t line_addr) const;
};

} // namespace ppm::sim

#endif // PPM_SIM_CACHE_HH
