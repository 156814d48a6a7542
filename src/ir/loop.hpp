#ifndef IMS_IR_LOOP_HPP
#define IMS_IR_LOOP_HPP

#include <string>
#include <vector>

#include "ir/operation.hpp"

namespace ims::ir {

/** Declaration of a virtual register of the loop. */
struct RegisterInfo
{
    std::string name;
    /** Predicate registers guard IF-converted operations. */
    bool isPredicate = false;
    /**
     * Live-in registers are defined before the loop (loop invariants or
     * initial values of recurrences) and have no defining operation inside
     * the body.
     */
    bool isLiveIn = false;
};

/** Declaration of an array symbol referenced by loads/stores. */
struct ArrayInfo
{
    std::string name;
};

/**
 * An innermost loop body after IF-conversion, in dynamic single assignment
 * form: a single basic block of operations plus register and array symbol
 * tables. This is the input to the software pipeliner, corresponding to
 * the intermediate representation the paper's research scheduler reads in
 * (§4.1).
 *
 * Structural invariants (checked by validate()):
 *  - every non-live-in register read (at distance 0) has a defining op;
 *  - registers are defined by at most one operation (single assignment);
 *  - reads with distance d > 0 are only legal for registers that are
 *    defined inside the loop or seeded as live-in recurrences;
 *  - operand counts match the opcode arity; memory ops carry a MemRef.
 */
class Loop
{
  public:
    explicit Loop(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }

    /** Declare a register; returns its id. */
    RegId addRegister(RegisterInfo info);

    /** Declare an array symbol; returns its id. */
    ArrayId addArray(ArrayInfo info);

    /** Append an operation; its `id` field is assigned. Returns the id. */
    OpId addOperation(Operation operation);

    const std::vector<Operation>& operations() const { return operations_; }
    const Operation& operation(OpId id) const { return operations_[id]; }
    int size() const { return static_cast<int>(operations_.size()); }

    const std::vector<RegisterInfo>& registers() const { return registers_; }
    const RegisterInfo& reg(RegId id) const { return registers_[id]; }
    int numRegisters() const { return static_cast<int>(registers_.size()); }

    const std::vector<ArrayInfo>& arrays() const { return arrays_; }
    int numArrays() const { return static_cast<int>(arrays_.size()); }

    /** The operation defining `reg`, or -1 for live-ins. */
    OpId definingOp(RegId reg) const;

    /** Largest operand distance appearing anywhere in the body. */
    int maxDistance() const;

    /** Largest memory stride of any access (1 when there is none). */
    int maxStride() const;

    /** True if the body contains a kExitIf (WHILE-loop / early exit). */
    bool hasEarlyExit() const;

    /** Throw support::Error describing the first structural violation. */
    void validate() const;

    /** Human-readable multi-line listing of the body. */
    std::string toString() const;

    /** Render one operation (with register names). */
    std::string operationToString(const Operation& operation) const;

  private:
    std::string name_;
    std::vector<RegisterInfo> registers_;
    std::vector<ArrayInfo> arrays_;
    std::vector<Operation> operations_;
    std::vector<OpId> defOf_; // per register: defining op or -1
};

} // namespace ims::ir

#endif // IMS_IR_LOOP_HPP
