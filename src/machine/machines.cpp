#include "machine/machines.hpp"

#include "machine/cydra5.hpp"
#include "machine/machine_builder.hpp"

namespace ims::machine {

namespace {

using ir::Opcode;

/** Opcodes that run on the (integer/floating-point) adder class. */
constexpr Opcode kAdderOps[] = {Opcode::kAdd,   Opcode::kSub,
                                Opcode::kMin,   Opcode::kMax,
                                Opcode::kAbs,   Opcode::kCmpGt,
                                Opcode::kSelect, Opcode::kCopy};

} // namespace

MachineModel
clean64()
{
    MachineBuilder b("clean64");
    const ResourceId mem0 = b.addResource("mem-port-0");
    const ResourceId mem1 = b.addResource("mem-port-1");
    const ResourceId aalu0 = b.addResource("addr-alu-0");
    const ResourceId aalu1 = b.addResource("addr-alu-1");
    const ResourceId adder = b.addResource("adder");
    const ResourceId mult = b.addResource("multiplier");
    const ResourceId instr = b.addResource("instr-unit");

    b.opcode(Opcode::kLoad, 20)
        .simpleAlternative("mem-port-0", mem0)
        .simpleAlternative("mem-port-1", mem1);
    b.opcode(Opcode::kStore, 1)
        .simpleAlternative("mem-port-0", mem0)
        .simpleAlternative("mem-port-1", mem1);
    b.opcode(Opcode::kPredSet, 2)
        .simpleAlternative("mem-port-0", mem0)
        .simpleAlternative("mem-port-1", mem1);
    b.opcode(Opcode::kPredClear, 2)
        .simpleAlternative("mem-port-0", mem0)
        .simpleAlternative("mem-port-1", mem1);
    b.opcode(Opcode::kAddrAdd, 3)
        .simpleAlternative("addr-alu-0", aalu0)
        .simpleAlternative("addr-alu-1", aalu1);
    b.opcode(Opcode::kAddrSub, 3)
        .simpleAlternative("addr-alu-0", aalu0)
        .simpleAlternative("addr-alu-1", aalu1);
    for (Opcode opcode : kAdderOps)
        b.opcode(opcode, 4).simpleAlternative("adder", adder);
    b.opcode(Opcode::kMul, 5).simpleAlternative("multiplier", mult);
    // Divide/sqrt remain unpipelined: block tables even on the clean model.
    b.opcode(Opcode::kDiv, 22).blockAlternative("multiplier", mult, 18);
    b.opcode(Opcode::kSqrt, 26).blockAlternative("multiplier", mult, 22);
    b.opcode(Opcode::kBranch, 1).simpleAlternative("instr-unit", instr);
    b.opcode(Opcode::kExitIf, 1).simpleAlternative("instr-unit", instr);
    return b.build();
}

MachineModel
wideVliw()
{
    MachineBuilder b("wide-vliw");
    ResourceId mem[4];
    ResourceId aalu[4];
    ResourceId adder[2];
    ResourceId mult[2];
    for (int i = 0; i < 4; ++i)
        mem[i] = b.addResource("mem-port-" + std::to_string(i));
    for (int i = 0; i < 4; ++i)
        aalu[i] = b.addResource("addr-alu-" + std::to_string(i));
    for (int i = 0; i < 2; ++i)
        adder[i] = b.addResource("adder-" + std::to_string(i));
    for (int i = 0; i < 2; ++i)
        mult[i] = b.addResource("mult-" + std::to_string(i));
    const ResourceId instr = b.addResource("instr-unit");

    auto all_mem = [&](Opcode opcode, int latency) {
        auto cfg = b.opcode(opcode, latency);
        for (int i = 0; i < 4; ++i)
            cfg.simpleAlternative("mem-port-" + std::to_string(i), mem[i]);
    };
    all_mem(Opcode::kLoad, 8);
    all_mem(Opcode::kStore, 1);
    all_mem(Opcode::kPredSet, 1);
    all_mem(Opcode::kPredClear, 1);

    for (Opcode opcode : {Opcode::kAddrAdd, Opcode::kAddrSub}) {
        auto cfg = b.opcode(opcode, 1);
        for (int i = 0; i < 4; ++i)
            cfg.simpleAlternative("addr-alu-" + std::to_string(i), aalu[i]);
    }
    for (Opcode opcode : kAdderOps) {
        b.opcode(opcode, 2)
            .simpleAlternative("adder-0", adder[0])
            .simpleAlternative("adder-1", adder[1]);
    }
    b.opcode(Opcode::kMul, 3)
        .simpleAlternative("mult-0", mult[0])
        .simpleAlternative("mult-1", mult[1]);
    b.opcode(Opcode::kDiv, 12)
        .blockAlternative("mult-0", mult[0], 10)
        .blockAlternative("mult-1", mult[1], 10);
    b.opcode(Opcode::kSqrt, 14)
        .blockAlternative("mult-0", mult[0], 12)
        .blockAlternative("mult-1", mult[1], 12);
    b.opcode(Opcode::kBranch, 1).simpleAlternative("instr-unit", instr);
    b.opcode(Opcode::kExitIf, 1).simpleAlternative("instr-unit", instr);
    return b.build();
}

MachineModel
scalarToy()
{
    MachineBuilder b("scalar-toy");
    const ResourceId mem = b.addResource("mem");
    const ResourceId alu = b.addResource("alu");
    const ResourceId instr = b.addResource("instr");

    for (Opcode opcode : {Opcode::kLoad, Opcode::kStore, Opcode::kPredSet,
                          Opcode::kPredClear}) {
        b.opcode(opcode, opcode == Opcode::kLoad ? 2 : 1)
            .simpleAlternative("mem", mem);
    }
    for (Opcode opcode : {Opcode::kAddrAdd, Opcode::kAddrSub})
        b.opcode(opcode, 1).simpleAlternative("alu", alu);
    for (Opcode opcode : kAdderOps)
        b.opcode(opcode, 1).simpleAlternative("alu", alu);
    for (Opcode opcode : {Opcode::kMul, Opcode::kDiv, Opcode::kSqrt})
        b.opcode(opcode, 3).simpleAlternative("alu", alu);
    b.opcode(Opcode::kBranch, 1).simpleAlternative("instr", instr);
    b.opcode(Opcode::kExitIf, 1).simpleAlternative("instr", instr);
    return b.build();
}

std::optional<MachineModel>
stockMachine(std::string_view name)
{
    if (name == "cydra5")
        return cydra5();
    if (name == "clean64")
        return clean64();
    if (name == "wide-vliw")
        return wideVliw();
    if (name == "scalar-toy")
        return scalarToy();
    return std::nullopt;
}

} // namespace ims::machine
