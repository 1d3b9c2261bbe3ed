#include "sim/functional_units.hh"

#include <algorithm>

namespace ppm::sim {

FunctionalUnits::FunctionalUnits(const ProcessorConfig &config)
{
    pools_[kIntAlu].assign(static_cast<std::size_t>(config.num_int_alu), 0);
    pools_[kIntMul].assign(static_cast<std::size_t>(config.num_int_mul), 0);
    pools_[kFp].assign(static_cast<std::size_t>(config.num_fp_units), 0);
    pools_[kMem].assign(static_cast<std::size_t>(config.num_mem_ports), 0);
}

Tick
FunctionalUnits::nextFree(trace::OpClass op) const
{
    const auto &pool = pools_[kOps[index(op)].pool];
    return *std::min_element(pool.begin(), pool.end());
}

} // namespace ppm::sim
