#include "sim/functional_units.hh"

namespace ppm::sim {

using trace::OpClass;

FunctionalUnits::FunctionalUnits(const ProcessorConfig &config)
{
    int_alu_.assign(static_cast<std::size_t>(config.num_int_alu), 0);
    int_mul_.assign(static_cast<std::size_t>(config.num_int_mul), 0);
    fp_.assign(static_cast<std::size_t>(config.num_fp_units), 0);
    mem_.assign(static_cast<std::size_t>(config.num_mem_ports), 0);
}

int
FunctionalUnits::latency(OpClass op) const
{
    switch (op) {
      case OpClass::IntAlu:
        return 1;
      case OpClass::IntMul:
        return 3;
      case OpClass::IntDiv:
        return 20;
      case OpClass::FpAlu:
        return 3;
      case OpClass::FpMul:
        return 4;
      case OpClass::FpDiv:
        return 24;
      case OpClass::Load:
      case OpClass::Store:
        return 1; // address generation; memory time added separately
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::BranchCall:
      case OpClass::BranchRet:
        return 1;
    }
    return 1;
}

bool
FunctionalUnits::pipelined(OpClass op) const
{
    return op != OpClass::IntDiv && op != OpClass::FpDiv;
}

std::vector<Tick> &
FunctionalUnits::poolFor(OpClass op)
{
    switch (op) {
      case OpClass::IntMul:
      case OpClass::IntDiv:
        return int_mul_;
      case OpClass::FpAlu:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        return fp_;
      case OpClass::Load:
      case OpClass::Store:
        return mem_;
      default:
        return int_alu_;
    }
}

bool
FunctionalUnits::tryIssue(OpClass op, Tick cycle)
{
    auto &pool = poolFor(op);
    for (auto &busy_until : pool) {
        if (busy_until <= cycle) {
            busy_until = cycle +
                (pipelined(op) ? 1 : static_cast<Tick>(latency(op)));
            return true;
        }
    }
    return false;
}

} // namespace ppm::sim
