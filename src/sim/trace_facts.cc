#include "sim/trace_facts.hh"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <unordered_map>

#include "sim/branch_predictor.hh"

namespace ppm::sim {

namespace {

/** Saturated distance from @p seq back to @p earlier (< seq). */
std::uint16_t
link(std::uint64_t seq, std::uint64_t earlier)
{
    return static_cast<std::uint16_t>(
        std::min<std::uint64_t>(seq - earlier, TraceFacts::kFarLink));
}

} // namespace

TraceFacts::TraceFacts(const trace::Trace &trace,
                       const ProcessorConfig &config)
    : gshare_bits_(config.gshare_bits), btb_entries_(config.btb_entries),
      btb_assoc_(config.btb_assoc), ras_entries_(config.ras_entries)
{
    config.validate();
    insts_.resize(trace.size());
    BranchPredictor predictor(config);
    // Last writer of each register and last store to each word, as
    // trace index + 1 (0: none yet).
    std::array<std::uint64_t, trace::kNumArchRegs> writer{};
    std::unordered_map<std::uint64_t, std::uint64_t> last_store;

    for (std::uint64_t seq = 0; seq < trace.size(); ++seq) {
        const trace::TraceInstruction &inst = trace[seq];
        Inst &facts = insts_[seq];
        for (int k = 0; k < 2; ++k) {
            const trace::RegId reg = inst.src[k];
            if (reg == trace::kNoReg)
                continue;
            if (reg >= trace::kNumArchRegs)
                throw std::invalid_argument(
                    "TraceFacts: source register out of range");
            if (writer[reg] != 0)
                facts.producer[k] = link(seq, writer[reg] - 1);
        }
        if (inst.isMem()) {
            const std::uint64_t word = inst.mem_addr >> kStoreWordShift;
            if (inst.isStore()) {
                std::uint64_t &last = last_store[word];
                if (last != 0)
                    facts.prev_store = link(seq, last - 1);
                last = seq + 1;
            } else if (const auto it = last_store.find(word);
                       it != last_store.end()) {
                facts.prev_store = link(seq, it->second - 1);
            }
        }
        if (inst.isBr()) {
            const auto res =
                predictor.update(inst, predictor.predict(inst));
            facts.branch = res.mispredict ? kMispredict
                : res.btb_bubble          ? kBtbBubble
                                          : kPredicted;
        }
        if (inst.dest != trace::kNoReg) {
            if (inst.dest >= trace::kNumArchRegs)
                throw std::invalid_argument(
                    "TraceFacts: destination register out of range");
            writer[inst.dest] = seq + 1;
        }
    }
    branch_stats_ = predictor.stats();
}

bool
TraceFacts::fits(const ProcessorConfig &config) const
{
    return config.gshare_bits == gshare_bits_ &&
        config.btb_entries == btb_entries_ &&
        config.btb_assoc == btb_assoc_ &&
        config.ras_entries == ras_entries_;
}

} // namespace ppm::sim
