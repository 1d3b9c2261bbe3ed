/**
 * @file
 * Functional unit pools and operation latencies. Pipelined units
 * accept a new operation every cycle while busy units (integer and FP
 * divide) block their pool until done; loads and stores contend for
 * cache ports.
 */

#ifndef PPM_SIM_FUNCTIONAL_UNITS_HH
#define PPM_SIM_FUNCTIONAL_UNITS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/dram.hh"
#include "trace/instruction.hh"

namespace ppm::sim {

/**
 * Tracks availability of the execution resources.
 */
class FunctionalUnits
{
  public:
    explicit FunctionalUnits(const ProcessorConfig &config);

    /**
     * Execution latency of @p op in cycles, excluding memory time
     * (loads add cache access latency on top of address generation).
     */
    static int latency(trace::OpClass op) { return kOps[index(op)].latency; }

    /**
     * Try to claim a unit of the right class at @p cycle. On success
     * the unit is booked (for 1 cycle if pipelined, else for the full
     * latency) and true is returned.
     */
    bool
    tryIssue(trace::OpClass op, Tick cycle)
    {
        const OpInfo &info = kOps[index(op)];
        for (Tick &busy_until : pools_[info.pool]) {
            if (busy_until <= cycle) {
                busy_until = cycle + info.busy;
                return true;
            }
        }
        return false;
    }

    /**
     * Earliest cycle at which a unit for @p op is free. After a failed
     * tryIssue() no unit of the pool frees earlier: only a successful
     * one books a unit.
     */
    Tick nextFree(trace::OpClass op) const;

  private:
    enum Pool : std::uint8_t
    {
        kIntAlu,  //!< also executes branches
        kIntMul,  //!< multiply + divide
        kFp,      //!< FP add/mul/div pipes
        kMem,     //!< cache ports
        kNumPools,
    };

    struct OpInfo
    {
        Pool pool;
        std::uint8_t latency;
        /** Cycles one op books its unit: 1 if pipelined, else latency. */
        std::uint8_t busy;
    };

    /** Indexed by OpClass; loads and stores add memory time on top. */
    static constexpr OpInfo kOps[] = {
        {kIntAlu, 1, 1},  // IntAlu
        {kIntMul, 3, 1},  // IntMul
        {kIntMul, 20, 20}, // IntDiv
        {kFp, 3, 1},      // FpAlu
        {kFp, 4, 1},      // FpMul
        {kFp, 24, 24},    // FpDiv
        {kMem, 1, 1},     // Load (address generation)
        {kMem, 1, 1},     // Store
        {kIntAlu, 1, 1},  // BranchCond
        {kIntAlu, 1, 1},  // BranchUncond
        {kIntAlu, 1, 1},  // BranchCall
        {kIntAlu, 1, 1},  // BranchRet
    };
    static_assert(std::size(kOps) ==
                  static_cast<std::size_t>(trace::OpClass::BranchRet) + 1);

    static std::size_t index(trace::OpClass op)
    {
        return static_cast<std::size_t>(op);
    }

    std::array<std::vector<Tick>, kNumPools> pools_;
};

} // namespace ppm::sim

#endif // PPM_SIM_FUNCTIONAL_UNITS_HH
