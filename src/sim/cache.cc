#include "sim/cache.hh"

#include <cassert>
#include <stdexcept>

namespace ppm::sim {

namespace {

int
log2Exact(int v)
{
    int shift = 0;
    while ((1 << shift) < v)
        ++shift;
    if ((1 << shift) != v)
        throw std::invalid_argument("Cache: line size not a power of 2");
    return shift;
}

} // namespace

Cache::Cache(std::string name, std::uint64_t size_bytes, int assoc,
             int line_size)
    : name_(std::move(name)), assoc_(assoc),
      line_shift_(log2Exact(line_size))
{
    if (assoc_ < 1)
        throw std::invalid_argument("Cache: assoc must be >= 1");
    const std::uint64_t line_bytes = static_cast<std::uint64_t>(
        line_size);
    num_sets_ = size_bytes / (line_bytes * static_cast<std::uint64_t>(
        assoc_));
    if (num_sets_ == 0)
        throw std::invalid_argument(
            "Cache: capacity below one set (" + name_ + ")");
    lines_.assign(num_sets_ * static_cast<std::uint64_t>(assoc_),
                  Line{});
    if ((num_sets_ & (num_sets_ - 1)) == 0)
        set_mask_ = num_sets_ - 1;
}

std::uint64_t
Cache::setIndex(std::uint64_t line_addr) const
{
    return set_mask_ != 0 ? line_addr & set_mask_ : line_addr % num_sets_;
}

CacheAccessResult
Cache::access(std::uint64_t addr, bool is_write)
{
    ++stats_.accesses;
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = setIndex(line_addr);
    Line *base = &lines_[set * static_cast<std::uint64_t>(assoc_)];

    CacheAccessResult result;
    // The replacement candidate is the first invalid slot, else the
    // least recently used line: the smallest stamp, first on ties.
    Line *victim = base;
    for (int w = 0; w < assoc_; ++w) {
        Line &line = base[w];
        if (line.stamp != 0 && line.tag == line_addr) {
            line.stamp = (++use_counter_ << 1) | (line.stamp & 1) |
                (is_write ? 1 : 0);
            result.hit = true;
            return result;
        }
        if (line.stamp < victim->stamp)
            victim = &line;
    }

    ++stats_.misses;
    if (victim->stamp & 1) {
        ++stats_.writebacks;
        result.writeback = true;
        result.victim_addr = victim->tag << line_shift_;
    }
    victim->tag = line_addr;
    victim->stamp = (++use_counter_ << 1) | (is_write ? 1 : 0);
    return result;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = setIndex(line_addr);
    const Line *base = &lines_[set * static_cast<std::uint64_t>(assoc_)];
    for (int w = 0; w < assoc_; ++w)
        if (base[w].stamp != 0 && base[w].tag == line_addr)
            return true;
    return false;
}

void
Cache::reset()
{
    for (auto &line : lines_)
        line = Line{};
    use_counter_ = 0;
    stats_ = CacheStats{};
}

} // namespace ppm::sim
