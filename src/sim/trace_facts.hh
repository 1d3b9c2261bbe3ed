/**
 * @file
 * Per-trace facts of the timing model: what every simulation of one
 * trace would otherwise recompute, whatever the design point.
 *
 *  - Register dataflow: for each source operand, its producer (the
 *    last earlier writer of the register).
 *  - Memory dataflow: for each load and store, the previous store to
 *    its 8-byte word. Following these links from a load visits every
 *    older store to the load's word, youngest first.
 *  - Branch outcomes: fetch runs in trace order on the correct path,
 *    so whether each branch mispredicts or takes a BTB bubble depends
 *    only on the trace and on the predictor geometry (gshare_bits,
 *    btb_entries, btb_assoc, ras_entries), which no design point of
 *    the paper's space varies.
 *
 * A link is a distance back in trace order, saturated at 16 bits. The
 * core follows a link only while its target can still be in the ROB
 * (rob_size <= 512), so the saturated value only has to read as far.
 * Facts cost 8 bytes per instruction.
 */

#ifndef PPM_SIM_TRACE_FACTS_HH
#define PPM_SIM_TRACE_FACTS_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace ppm::sim {

/** Stores forward to loads within one 8-byte word. */
inline constexpr int kStoreWordShift = 3;

/**
 * The facts of one trace under one predictor geometry. Immutable once
 * built, so any number of simulations may share one concurrently.
 */
class TraceFacts
{
  public:
    /** Link value: no earlier instruction. */
    static constexpr std::uint16_t kNoLink = 0;
    /** Largest link; every farther distance saturates to it. */
    static constexpr std::uint16_t kFarLink = 0xffff;

    /** What a branch does to fetch, beyond ending a taken group. */
    enum BranchOutcome : std::uint16_t
    {
        kPredicted = 0,  //!< right direction and target (or not a branch)
        kMispredict = 1, //!< full redirect when the branch executes
        kBtbBubble = 2,  //!< right direction, target found at decode
    };

    /** The facts of one instruction. */
    struct Inst
    {
        /** Distance to the producer of each source operand. */
        std::uint16_t producer[2] = {kNoLink, kNoLink};
        /** Loads and stores: distance to the previous same-word store. */
        std::uint16_t prev_store = kNoLink;
        /** A BranchOutcome. */
        std::uint16_t branch = kPredicted;
    };

    /**
     * One pass over @p trace: a rename table, a per-word store index
     * and a BranchPredictor replay with @p config's geometry.
     *
     * @throws std::invalid_argument for an invalid @p config, or a
     *         register id outside the architectural file.
     */
    TraceFacts(const trace::Trace &trace, const ProcessorConfig &config);

    /** True iff @p config has the predictor geometry of these facts. */
    bool fits(const ProcessorConfig &config) const;

    std::size_t size() const { return insts_.size(); }
    const Inst &operator[](std::size_t seq) const { return insts_[seq]; }
    const Inst *data() const { return insts_.data(); }

    /** Branch statistics of the whole trace. */
    const BranchStats &branchStats() const { return branch_stats_; }

  private:
    std::vector<Inst> insts_;
    BranchStats branch_stats_;
    int gshare_bits_;
    int btb_entries_;
    int btb_assoc_;
    int ras_entries_;
};

} // namespace ppm::sim

#endif // PPM_SIM_TRACE_FACTS_HH
