#ifndef IMS_SIM_REGISTER_FILE_HPP
#define IMS_SIM_REGISTER_FILE_HPP

#include <cassert>
#include <map>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "sim/sequential_interpreter.hpp"
#include "sim/value.hpp"
#include "support/error.hpp"

namespace ims::sim {

/**
 * EVR-style register file shared by both execution engines: every
 * (register, iteration) pair has its own slot, pure live-ins read their
 * invariant value at any iteration, and negative iterations read the
 * SimSpec seeds (falling back to the live-in value, then 0).
 */
class RegisterFile
{
  public:
    RegisterFile(const ir::Loop& loop, const SimSpec& spec, int trip_count)
        : loop_(loop), tripCount_(trip_count)
    {
        values_.assign(loop.numRegisters(),
                       std::vector<Value>(trip_count, 0.0));
        written_.assign(loop.numRegisters(),
                        std::vector<bool>(trip_count, false));
        liveIn_.assign(loop.numRegisters(), 0.0);
        for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
            const auto& name = loop.reg(reg).name;
            if (auto it = spec.liveIn.find(name); it != spec.liveIn.end())
                liveIn_[reg] = it->second;
            if (auto it = spec.seeds.find(name); it != spec.seeds.end())
                seeds_.emplace(reg, it->second);
        }
    }

    /** Value of `reg` at (possibly negative) iteration `iter`. */
    Value
    read(ir::RegId reg, int iter) const
    {
        if (loop_.definingOp(reg) < 0)
            return liveIn_[reg];
        if (iter < 0) {
            const auto it = seeds_.find(reg);
            const int k = -1 - iter;
            if (it != seeds_.end() &&
                k < static_cast<int>(it->second.size())) {
                return it->second[k];
            }
            return liveIn_[reg];
        }
        support::check(written_[reg][iter], [&] {
            return "read of register '" + loop_.reg(reg).name +
                   "' at iteration " + std::to_string(iter) +
                   " before its definition executed (body not in "
                   "topological order, or schedule bug)";
        });
        return values_[reg][iter];
    }

    /** Operand read helper at base iteration `iter`. */
    Value
    readOperand(const ir::Operand& operand, int iter) const
    {
        if (!operand.isRegister())
            return operand.immediate;
        return read(operand.reg, iter - operand.distance);
    }

    void
    write(ir::RegId reg, int iter, Value value)
    {
        assert(iter >= 0 && iter < tripCount_);
        values_[reg][iter] = value;
        written_[reg][iter] = true;
    }

  private:
    const ir::Loop& loop_;
    int tripCount_;
    std::vector<std::vector<Value>> values_;
    std::vector<std::vector<bool>> written_;
    std::vector<Value> liveIn_;
    std::map<ir::RegId, std::vector<Value>> seeds_;
};

/**
 * Every in-loop register's value at the last iteration, `trip - 1`: the
 * SimResult::finalRegisters of a run that entered all `trip` iterations.
 * Empty for a zero trip (nothing executed) and for a loop with an early
 * exit (post-exit values are speculative).
 */
std::map<std::string, Value> finalRegisters(const ir::Loop& loop,
                                            const RegisterFile& registers,
                                            int trip);

} // namespace ims::sim

#endif // IMS_SIM_REGISTER_FILE_HPP
