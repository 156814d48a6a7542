#include "frontend/region_builder.hpp"

#include <cassert>

#include "support/error.hpp"

namespace ims::frontend {

using ir::Opcode;

RegionBuilder::RegionBuilder(std::string name)
    : builder_(std::move(name))
{
}

RegionBuilder&
RegionBuilder::liveIn(const std::string& name)
{
    support::check(kinds_.count(name) == 0, [&] {
        return "variable '" + name + "' already declared";
    });
    kinds_[name] = VarKind::kInvariant;
    builder_.liveIn(name);
    return *this;
}

RegionBuilder&
RegionBuilder::recurrence(const std::string& name)
{
    support::check(kinds_.count(name) == 0, [&] {
        return "variable '" + name + "' already declared";
    });
    kinds_[name] = VarKind::kRecurrence;
    builder_.liveIn(name);
    return *this;
}

std::string
RegionBuilder::freshName(const std::string& base)
{
    return base + "%" + std::to_string(nextId_++);
}

std::string
RegionBuilder::lookupVersion(const std::string& name) const
{
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
        const auto& active =
            it->inElse ? it->elseVersions : it->thenVersions;
        if (auto found = active.find(name); found != active.end())
            return found->second;
    }
    if (auto found = topVersions_.find(name); found != topVersions_.end())
        return found->second;
    return "";
}

void
RegionBuilder::recordVersion(const std::string& name,
                             const std::string& version)
{
    if (frames_.empty()) {
        topVersions_[name] = version;
        return;
    }
    Frame& frame = frames_.back();
    (frame.inElse ? frame.elseVersions : frame.thenVersions)[name] =
        version;
}

ir::Operand
RegionBuilder::use(const std::string& name, int distance)
{
    const auto kind_it = kinds_.find(name);
    if (distance > 0) {
        support::check(kind_it != kinds_.end() &&
                           kind_it->second == VarKind::kRecurrence,
                       [&] {
                           return "cross-iteration read of non-recurrence "
                                  "variable '" + name + "'";
                       });
        return builder_.reg(name, distance);
    }
    const std::string version = lookupVersion(name);
    if (!version.empty())
        return builder_.reg(version);
    support::check(kind_it != kinds_.end(), [&] {
        return "read of undeclared, unassigned variable '" + name + "'";
    });
    if (kind_it->second == VarKind::kRecurrence) {
        // Source semantics: the not-yet-assigned carried variable holds
        // the previous iteration's final value.
        return builder_.reg(name, 1);
    }
    return builder_.reg(name); // invariant
}

ir::Operand
RegionBuilder::imm(double value)
{
    return builder_.imm(value);
}

void
RegionBuilder::assign(Opcode opcode, const std::string& name,
                      std::vector<ir::Operand> sources)
{
    support::check(!finished_, "builder already finished");
    const auto kind_it = kinds_.find(name);
    support::check(kind_it == kinds_.end() ||
                       kind_it->second != VarKind::kInvariant,
                   [&] {
                       return "cannot assign to invariant '" + name + "'";
                   });
    if (kind_it == kinds_.end())
        kinds_[name] = VarKind::kLocal;
    const std::string version = freshName(name);
    builder_.op(opcode, version, std::move(sources));
    recordVersion(name, version);
}

void
RegionBuilder::load(const std::string& name, const std::string& array,
                    int offset, const ir::Operand& address, int stride)
{
    support::check(!finished_, "builder already finished");
    const auto kind_it = kinds_.find(name);
    support::check(kind_it == kinds_.end() ||
                       kind_it->second != VarKind::kInvariant,
                   [&] {
                       return "cannot assign to invariant '" + name + "'";
                   });
    if (kind_it == kinds_.end())
        kinds_[name] = VarKind::kLocal;
    const std::string version = freshName(name);
    builder_.load(version, array, offset, address, "", stride);
    recordVersion(name, version);
}

void
RegionBuilder::store(const std::string& array, int offset,
                     const ir::Operand& address, const ir::Operand& value,
                     int stride)
{
    support::check(!finished_, "builder already finished");
    const auto guard = activeGuard();
    if (guard) {
        builder_.storeIf(array, offset, address, value, *guard, stride);
    } else {
        builder_.store(array, offset, address, value, "", stride);
    }
}

void
RegionBuilder::beginIf(const ir::Operand& condition)
{
    support::check(!finished_, "builder already finished");
    Frame frame;
    frame.condition = freshName("cond");
    // 0/1 condition value: condition > 0.
    builder_.op(Opcode::kCmpGt, frame.condition,
                {condition, builder_.imm(0.0)});
    frames_.push_back(std::move(frame));
}

void
RegionBuilder::elseBranch()
{
    support::check(!frames_.empty(), "elseBranch() outside any if");
    support::check(!frames_.back().inElse,
                   "elseBranch() called twice for the same if");
    frames_.back().inElse = true;
}

std::string
RegionBuilder::materializePath(std::size_t depth, bool else_branch)
{
    Frame& frame = frames_[depth];
    std::string& slot = else_branch ? frame.elsePath : frame.thenPath;
    if (!slot.empty())
        return slot;

    // The branch's own 0/1 factor.
    std::string factor = frame.condition;
    if (else_branch) {
        const std::string inverted = freshName("ncond");
        builder_.op(Opcode::kSub, inverted,
                    {builder_.imm(1.0), builder_.reg(frame.condition)});
        factor = inverted;
    }
    if (depth == 0) {
        slot = factor;
        return slot;
    }
    const std::string parent =
        materializePath(depth - 1, frames_[depth - 1].inElse);
    const std::string combined = freshName("path");
    builder_.op(Opcode::kMul, combined,
                {builder_.reg(parent), builder_.reg(factor)});
    slot = combined;
    return slot;
}

std::string
RegionBuilder::activePath()
{
    if (frames_.empty())
        return "";
    return materializePath(frames_.size() - 1, frames_.back().inElse);
}

std::optional<ir::Operand>
RegionBuilder::activeGuard()
{
    const std::string path = activePath();
    if (path.empty())
        return std::nullopt;
    auto it = guardCache_.find(path);
    if (it != guardCache_.end())
        return builder_.reg(it->second);
    const std::string guard = freshName("guard");
    builder_.op(Opcode::kPredSet, guard,
                {builder_.reg(path), builder_.imm(0.0)});
    guardCache_.emplace(path, guard);
    return builder_.reg(guard);
}

void
RegionBuilder::endIf()
{
    support::check(!frames_.empty(), "endIf() outside any if");
    Frame frame = std::move(frames_.back());
    frames_.pop_back();

    // Merge every variable assigned in either branch.
    std::map<std::string, bool> touched;
    for (const auto& [name, version] : frame.thenVersions)
        touched[name] = true;
    for (const auto& [name, version] : frame.elseVersions)
        touched[name] = true;

    for (const auto& [name, unused] : touched) {
        (void)unused;
        auto resolve = [&](const std::map<std::string, std::string>&
                               branch) -> std::optional<ir::Operand> {
            if (auto it = branch.find(name); it != branch.end())
                return builder_.reg(it->second);
            // Not assigned on this path: the value visible outside.
            const std::string outer = lookupVersion(name);
            if (!outer.empty())
                return builder_.reg(outer);
            const auto kind_it = kinds_.find(name);
            if (kind_it != kinds_.end() &&
                kind_it->second == VarKind::kRecurrence) {
                return builder_.reg(name, 1);
            }
            return std::nullopt;
        };
        const auto then_value = resolve(frame.thenVersions);
        const auto else_value = resolve(frame.elseVersions);
        if (!then_value || !else_value) {
            // A branch-local temporary with no outside value: it simply
            // goes out of scope at the join.
            continue;
        }
        if (then_value->reg == else_value->reg &&
            then_value->distance == else_value->distance) {
            continue; // both paths agree
        }
        const std::string merged = freshName(name);
        builder_.op(Opcode::kSelect, merged,
                    {builder_.reg(frame.condition), *then_value,
                     *else_value});
        recordVersion(name, merged);
    }
}

ir::Loop
RegionBuilder::finish()
{
    support::check(!finished_, "finish() called twice");
    support::check(frames_.empty(),
                   "finish() with unclosed if (missing endIf())");
    finished_ = true;

    // Close assigned recurrence variables into their canonical registers
    // so next-iteration reads (name[d]) observe the final merged value.
    for (const auto& [name, kind] : kinds_) {
        if (kind != VarKind::kRecurrence)
            continue;
        const auto it = topVersions_.find(name);
        if (it == topVersions_.end())
            continue; // never assigned: pure seed
        builder_.op(Opcode::kCopy, name, {builder_.reg(it->second)},
                    "recurrence carry");
    }

    builder_.closeLoopBackSubstituted("region_n");
    return builder_.build();
}

} // namespace ims::frontend
