/**
 * @file
 * Hand-built instruction traces for the core's unit tests.
 */

#ifndef PPM_TESTS_TRACE_BUILDER_HH
#define PPM_TESTS_TRACE_BUILDER_HH

#include <cstdint>
#include <utility>

#include "trace/trace.hh"

namespace ppm::test {

/** Builds consistent straight-line or branching traces. */
class TraceBuilder
{
  public:
    TraceBuilder() : trace_("handmade") {}

    /** Append a non-branch op at the next sequential PC. */
    TraceBuilder &
    op(trace::OpClass cls, trace::RegId dest = trace::kNoReg,
       trace::RegId src0 = trace::kNoReg,
       trace::RegId src1 = trace::kNoReg,
       std::uint64_t addr = 0)
    {
        trace::TraceInstruction i;
        i.pc = pc_;
        i.op = cls;
        i.dest = dest;
        i.src[0] = src0;
        i.src[1] = src1;
        i.mem_addr = addr;
        trace_.push(i);
        pc_ += 4;
        return *this;
    }

    /** Append a conditional branch; the next PC follows the outcome. */
    TraceBuilder &
    branch(bool taken, std::uint64_t target)
    {
        trace::TraceInstruction i;
        i.pc = pc_;
        i.op = trace::OpClass::BranchCond;
        i.branch_target = target;
        i.taken = taken;
        trace_.push(i);
        pc_ = taken ? target : pc_ + 4;
        return *this;
    }

    /** Append an unconditional jump (used to close loops). */
    TraceBuilder &
    jump(std::uint64_t target)
    {
        trace::TraceInstruction i;
        i.pc = pc_;
        i.op = trace::OpClass::BranchUncond;
        i.branch_target = target;
        i.taken = true;
        trace_.push(i);
        pc_ = target;
        return *this;
    }

    std::uint64_t pc() const { return pc_; }

    trace::Trace take() { return std::move(trace_); }

  private:
    trace::Trace trace_;
    std::uint64_t pc_ = 0x400000;
};

} // namespace ppm::test

#endif // PPM_TESTS_TRACE_BUILDER_HH
