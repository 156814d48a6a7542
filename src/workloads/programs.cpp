#include "workloads/programs.hpp"

#include "frontend/region_builder.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace ims::workloads {

namespace {

using ir::Opcode;
using program::Block;
using program::Program;
using program::c;
using program::v;

Program
withLoop(const std::string& program_name, const std::string& kernel)
{
    return Program(program_name, kernelByName(kernel).loop);
}

/**
 * prog.daxpy — scale factor computed in the pre-loop, y += a*x, then a
 * checksum over the written vector plus the exported last sum. The post
 * block touches the loop's arrays and outputs, so the epilogue stays
 * uncompressed; the pre block's trailing statements are independent of
 * the marshal and may slide under the ramp-up.
 */
Program
progDaxpy()
{
    Program p = withLoop("prog.daxpy", "daxpy");
    Block setup("scale.setup");
    setup.assign(Opcode::kMul, "a", {v("alpha"), v("scale")},
                 "loop live-in");
    setup.assign(Opcode::kMul, "aux", {v("alpha"), v("alpha")});
    setup.store("R", 3, v("aux"), "independent of the loop marshal");
    p.preBlocks.push_back(std::move(setup));
    p.loop.outputs["y.last"] = "s";
    p.loop.itersVar = "iters";
    Block checksum("checksum");
    checksum.load("y0", "Y", 0);
    checksum.load("y1", "Y", 1);
    checksum.assign(Opcode::kAdd, "chk", {v("y0"), v("y1")});
    checksum.assign(Opcode::kAdd, "chk2", {v("chk"), v("y.last")});
    checksum.store("R", 0, v("chk2"));
    p.postBlocks.push_back(std::move(checksum));
    return p;
}

/** prog.dot — dot product with a normalization epilogue. */
Program
progDot()
{
    Program p = withLoop("prog.dot", "dot_raw");
    Block setup("norm.setup");
    setup.assign(Opcode::kDiv, "inv", {c(1.0), v("count")});
    p.preBlocks.push_back(std::move(setup));
    p.loop.outputs["sum"] = "s";
    p.loop.itersVar = "iters";
    Block norm("normalize");
    // Independent head (overlappable with the drain) ...
    norm.assign(Opcode::kMul, "inv2", {v("inv"), v("inv")});
    norm.assign(Opcode::kAdd, "t", {v("inv2"), v("bias")});
    norm.store("R", 1, v("t"));
    // ... then the output-dependent tail.
    norm.assign(Opcode::kMul, "mean", {v("sum"), v("inv")});
    norm.store("R", 0, v("mean"));
    p.postBlocks.push_back(std::move(norm));
    return p;
}

/** prog.tridiag — LFK5 with the recurrence seeded from memory. */
Program
progTridiag()
{
    Program p = withLoop("prog.tridiag", "tridiag");
    Block seed("seed.load");
    seed.load("x.prev", "X", -1, "x[i-1] for the first iteration");
    p.preBlocks.push_back(std::move(seed));
    p.loop.seedBindings["x"] = {"x.prev"};
    p.loop.outputs["x.last"] = "x";
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.load("x0", "X", 0);
    tail.assign(Opcode::kSub, "d", {v("x.last"), v("x0")});
    tail.store("R", 0, v("d"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

/**
 * prog.hydro — LFK1 with its three coefficients computed in the
 * pre-loop and an independent post-loop tail: the showcase for both
 * compression directions.
 */
Program
progHydro()
{
    Program p = withLoop("prog.hydro", "hydro_frag");
    Block coeff("coeff");
    coeff.assign(Opcode::kAdd, "q", {v("q0"), c(0.5)});
    coeff.assign(Opcode::kMul, "r", {v("r0"), v("r0")});
    coeff.assign(Opcode::kSub, "t", {v("t0"), v("q0")});
    coeff.assign(Opcode::kMul, "aux", {v("q0"), v("t0")},
                 "independent of the marshal: may slide under ramp-up");
    coeff.store("W", 0, v("aux"));
    p.preBlocks.push_back(std::move(coeff));
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.assign(Opcode::kMul, "u", {v("q"), v("r")},
                "independent of the drain: may slide under ramp-down");
    tail.store("W", 1, v("u"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

/** prog.stencil — 3-point stencil with boundary rewrite afterwards. */
Program
progStencil()
{
    Program p = withLoop("prog.stencil", "stencil3");
    Block setup("weight");
    setup.assign(Opcode::kDiv, "w", {c(1.0), c(3.0)});
    p.preBlocks.push_back(std::move(setup));
    p.loop.itersVar = "iters";
    Block boundary("boundary");
    boundary.load("e0", "X", 0);
    boundary.store("Y", 0, v("e0"), "boundary element is copied, not "
                                    "smoothed");
    p.postBlocks.push_back(std::move(boundary));
    return p;
}

/** prog.state — LFK7 state fragment, coefficients from the pre-loop. */
Program
progState()
{
    Program p = withLoop("prog.state", "state_frag");
    Block coeff("coeff");
    coeff.assign(Opcode::kAdd, "r", {v("r0"), c(1.0)});
    coeff.assign(Opcode::kMul, "t", {v("t0"), v("r0")});
    p.preBlocks.push_back(std::move(coeff));
    p.loop.itersVar = "iters";
    return p;
}

/** prog.init — initialization loop with a verification tail. */
Program
progInit()
{
    Program p = withLoop("prog.init", "init_store");
    Block setup("setup");
    setup.assign(Opcode::kMul, "c", {v("base"), v("base")});
    p.preBlocks.push_back(std::move(setup));
    p.loop.itersVar = "iters";
    Block verify("verify");
    verify.load("a0", "A", 0);
    verify.assign(Opcode::kSub, "err", {v("a0"), v("c")});
    verify.store("R", 0, v("err"));
    p.postBlocks.push_back(std::move(verify));
    return p;
}

/** prog.memrec — recurrence through memory, last value exported. */
Program
progMemRec()
{
    Program p = withLoop("prog.memrec", "mem_recurrence");
    Block setup("setup");
    setup.assign(Opcode::kMul, "r", {v("decay"), v("decay")});
    p.preBlocks.push_back(std::move(setup));
    p.loop.outputs["a.last"] = "v";
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.store("R", 0, v("a.last"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

/** prog.iccg — strided LFK2 flavour, no scalar marshaling at all. */
Program
progIccg()
{
    Program p = withLoop("prog.iccg", "iccg_like");
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.load("v0", "V", 0);
    tail.store("R", 0, v("v0"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

/** prog.cond_store — IF-converted guarded store. */
Program
progCondStore()
{
    Program p = withLoop("prog.cond_store", "cond_store");
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.load("y0", "Y", 0);
    tail.store("R", 0, v("y0"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

/** prog.clip — compare+select hyperblock with the bound precomputed. */
Program
progClip()
{
    Program p = withLoop("prog.clip", "clip_select");
    Block setup("bound");
    setup.assign(Opcode::kMin, "hi", {v("lo.bound"), v("hi.bound")});
    p.preBlocks.push_back(std::move(setup));
    p.loop.itersVar = "iters";
    return p;
}

/**
 * prog.search — WHILE-loop: sum until the first negative element. The
 * exit point flows out through the iteration-count variable; register
 * outputs are illegal for early-exit loops (post-exit state is
 * speculative), so the post block works from memory and the count.
 */
Program
progSearch()
{
    Program p = withLoop("prog.search", "search_sum");
    p.loop.itersVar = "found";
    Block tail("tail");
    tail.assign(Opcode::kMul, "found2", {v("found"), c(2.0)});
    tail.store("R", 0, v("found2"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

/**
 * prog.roots — the RegionBuilder IF-conversion example (§1): sum the
 * square roots of positive elements, built through the structured
 * frontend rather than a hand-predicated body.
 */
Program
progRoots()
{
    frontend::RegionBuilder r("sum_positive_roots");
    r.recurrence("s");
    r.recurrence("ax");
    r.assign(Opcode::kAddrAdd, "ax", {r.use("ax", 3), r.imm(24)});
    r.load("x", "X", 0, r.use("ax"));
    r.beginIf(r.use("x"));
    r.assign(Opcode::kSqrt, "rt", {r.use("x")});
    r.store("Y", 0, r.use("ax"), r.use("rt"));
    r.assign(Opcode::kAdd, "s", {r.use("s"), r.use("x")});
    r.endIf();

    Program p("prog.roots", r.finish());
    Block setup("setup");
    setup.assign(Opcode::kAdd, "bias", {v("b0"), c(1.0)});
    p.preBlocks.push_back(std::move(setup));
    p.loop.outputs["sum.pos"] = "s";
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.assign(Opcode::kAdd, "total", {v("sum.pos"), v("bias")});
    tail.store("R", 0, v("total"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

} // namespace

std::vector<ProgramWorkload>
programLibrary()
{
    std::vector<ProgramWorkload> programs;
    const auto add = [&programs](Program program,
                                 const std::string& description) {
        program.validate();
        programs.push_back(
            ProgramWorkload{std::move(program), description});
    };
    add(progDaxpy(), "daxpy with checksum epilogue");
    add(progDot(), "dot product, normalized afterwards");
    add(progTridiag(), "LFK5 tridiagonal, memory-seeded recurrence");
    add(progHydro(), "LFK1 hydro fragment, compression showcase");
    add(progStencil(), "3-point stencil with boundary rewrite");
    add(progState(), "LFK7 state fragment");
    add(progInit(), "initialization loop with verification tail");
    add(progMemRec(), "memory recurrence, last value exported");
    add(progIccg(), "LFK2 strided flavour");
    add(progCondStore(), "IF-converted conditional store");
    add(progClip(), "compare+select clip with precomputed bound");
    add(progSearch(), "WHILE-loop search & accumulate");
    add(progRoots(), "RegionBuilder IF-conversion example");
    return programs;
}

program::Program
programByName(const std::string& name)
{
    for (auto& entry : programLibrary()) {
        if (entry.program.name == name)
            return std::move(entry.program);
    }
    throw support::Error("unknown program '" + name + "'");
}

program::Program
wrapLoopAsProgram(ir::Loop loop, const std::string& name)
{
    Program p(name, std::move(loop));
    p.loop.itersVar = "wrap.iters";

    Block pre("wrap.pre");
    pre.assign(Opcode::kAdd, "wrap.bias", {v("wrap.seed"), c(1.0)});
    p.preBlocks.push_back(std::move(pre));

    Block post("wrap.post");
    post.store("wrap.out", 0, v("wrap.iters"));
    post.assign(Opcode::kMul, "wrap.chk", {v("wrap.bias"), c(2.0)});
    post.store("wrap.out", 1, v("wrap.chk"));
    if (!p.loop.body.hasEarlyExit()) {
        int index = 2;
        const ir::Loop& body = p.loop.body;
        for (ir::RegId reg = 0; reg < body.numRegisters(); ++reg) {
            if (body.definingOp(reg) < 0)
                continue;
            const std::string out = "out." + body.reg(reg).name;
            p.loop.outputs[out] = body.reg(reg).name;
            post.store("wrap.out", index++, v(out));
        }
    }
    p.postBlocks.push_back(std::move(post));
    p.validate();
    return p;
}

} // namespace ims::workloads
