/**
 * @file
 * Functional unit pools and operation latencies. Pipelined units
 * accept a new operation every cycle while busy units (integer and FP
 * divide) block their pool until done; loads and stores contend for
 * cache ports.
 */

#ifndef PPM_SIM_FUNCTIONAL_UNITS_HH
#define PPM_SIM_FUNCTIONAL_UNITS_HH

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
    int latency(trace::OpClass op) const;

    /** True iff units for @p op accept one new op per cycle. */
    bool pipelined(trace::OpClass op) const;

    /**
     * Try to claim a unit of the right class at @p cycle. On success
     * the unit is booked (for 1 cycle if pipelined, else for the full
     * latency) and true is returned.
     */
    bool tryIssue(trace::OpClass op, Tick cycle);

  private:
    std::vector<Tick> &poolFor(trace::OpClass op);

    std::vector<Tick> int_alu_;  //!< also executes branches
    std::vector<Tick> int_mul_;  //!< multiply + divide
    std::vector<Tick> fp_;       //!< FP add/mul/div pipes
    std::vector<Tick> mem_;      //!< cache ports
};

} // namespace ppm::sim

#endif // PPM_SIM_FUNCTIONAL_UNITS_HH
