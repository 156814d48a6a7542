#include "transform/load_store_elim.hpp"

#include <map>
#include <optional>

#include "support/error.hpp"

namespace ims::transform {

namespace {

/** Forwarding plan for one eliminated load. */
struct Plan
{
    ir::OpId load = -1;
    /** Replacement operand template (extra distance added per read). */
    ir::Operand value;
    /** Iteration distance between the store and the load. */
    int distance = 0;
};

} // namespace

ForwardingResult
eliminateRedundantLoads(const ir::Loop& loop)
{
    loop.validate();

    // Stores per array; arrays with several stores are skipped outright.
    std::map<ir::ArrayId, std::vector<const ir::Operation*>> stores;
    for (const auto& op : loop.operations()) {
        if (op.isStore())
            stores[op.memRef->array].push_back(&op);
    }

    std::map<ir::OpId, Plan> plans;
    for (const auto& op : loop.operations()) {
        if (!op.isLoad() || op.guard)
            continue;
        const auto it = stores.find(op.memRef->array);
        if (it == stores.end() || it->second.size() != 1)
            continue;
        const ir::Operation& store = *it->second.front();
        if (store.guard || store.memRef->stride != op.memRef->stride)
            continue;
        const int stride = store.memRef->stride;
        const int diff = store.memRef->offset - op.memRef->offset;
        if (diff % stride != 0)
            continue;
        const int distance = diff / stride;
        if (distance < 0)
            continue;
        if (distance == 0 && store.id > op.id)
            continue; // cell written after the load within the iteration
        // Keep the seeding story simple: only forward same-iteration
        // values (the stored operand read at distance 0) or immediates.
        if (store.sources[1].isRegister() &&
            store.sources[1].distance != 0) {
            continue;
        }
        Plan plan;
        plan.load = op.id;
        plan.value = store.sources[1];
        plan.distance = distance;
        plans.emplace(op.id, plan);
    }

    ForwardingResult result{ir::Loop(loop.name() + "_fwd"), 0, {}};
    if (plans.empty()) {
        // Nothing to do: return a verbatim rebuild.
        result.loop = loop;
        return result;
    }

    // Registers that now carry values across iterations get promoted to
    // live-in (they need pre-loop seeds).
    std::vector<bool> promote(loop.numRegisters(), false);
    for (const auto& [load_id, plan] : plans) {
        if (plan.value.isRegister() && plan.distance > 0)
            promote[plan.value.reg] = true;
    }

    for (const auto& array : loop.arrays())
        result.loop.addArray(array);
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        ir::RegisterInfo info = loop.reg(reg);
        info.isLiveIn = info.isLiveIn || promote[reg];
        result.loop.addRegister(info);
    }

    // Operand rewriting: reads of an eliminated load's destination become
    // reads of the stored value, shifted by the forwarding distance.
    auto rewrite = [&](const ir::Operand& src) -> ir::Operand {
        if (!src.isRegister())
            return src;
        const ir::OpId def = loop.definingOp(src.reg);
        const auto it = def >= 0 ? plans.find(def) : plans.end();
        if (it == plans.end())
            return src;
        const Plan& plan = it->second;
        if (!plan.value.isRegister())
            return ir::Operand::makeImm(plan.value.immediate);
        return ir::Operand::makeReg(
            plan.value.reg,
            plan.value.distance + plan.distance + src.distance);
    };

    // Old op ids shift as loads disappear; only operands (by register)
    // matter, so a straight copy works.
    for (const auto& op : loop.operations()) {
        if (plans.count(op.id) != 0) {
            ++result.eliminatedLoads;
            continue; // load eliminated
        }
        ir::Operation clone = op;
        clone.id = -1;
        for (auto& src : clone.sources)
            src = rewrite(src);
        if (clone.guard)
            clone.guard = rewrite(*clone.guard);
        result.loop.addOperation(std::move(clone));
    }

    for (const auto& [load_id, plan] : plans) {
        if (!plan.value.isRegister() || plan.distance == 0)
            continue;
        const auto& load_ref = *loop.operation(load_id).memRef;
        ForwardSeedRule rule;
        rule.reg = loop.reg(plan.value.reg).name;
        rule.array = loop.arrays()[load_ref.array].name;
        // The value register at iteration j mirrors the cell the store
        // writes at iteration j: offset_store = offset_load + d*stride.
        rule.offset = load_ref.offset + plan.distance * load_ref.stride;
        rule.stride = load_ref.stride;
        result.seedRules.push_back(rule);
    }

    result.loop.validate();
    return result;
}

sim::SimSpec
forwardedSimSpec(const ForwardingResult& result, const sim::SimSpec& spec)
{
    sim::SimSpec out = spec;
    const int depth = result.loop.maxDistance();
    for (const auto& rule : result.seedRules) {
        const auto array_it = spec.arrays.find(rule.array);
        support::check(array_it != spec.arrays.end(), [&] {
            return "forwarded array '" + rule.array +
                   "' has no initial image in the spec";
        });
        const int first = array_it->second.first;
        const auto& contents = array_it->second.second;
        std::vector<sim::Value> seeds;
        for (int k = 0; k < depth; ++k) {
            // Value register at iteration j = -1-k mirrors the cell
            // array[stride*j + offset].
            const int index = rule.stride * (-1 - k) + rule.offset;
            const int cell = index - first;
            seeds.push_back(cell >= 0 &&
                                    cell < static_cast<int>(
                                               contents.size())
                                ? contents[cell]
                                : 0.0);
        }
        out.seeds[rule.reg] = std::move(seeds);
    }
    return out;
}

} // namespace ims::transform
