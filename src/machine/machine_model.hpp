#ifndef IMS_MACHINE_MACHINE_MODEL_HPP
#define IMS_MACHINE_MACHINE_MODEL_HPP

#include <map>
#include <string>
#include <vector>

#include "ir/opcode.hpp"
#include "machine/reservation_table.hpp"

namespace ims::machine {

/**
 * One way of executing an opcode: a functional unit choice with its
 * reservation table (§2.1: "a particular operation may be executable on
 * multiple functional units, in which case it is said to have multiple
 * alternatives, with a different reservation table corresponding to each
 * one").
 */
struct Alternative
{
    /** Display name, e.g. "mem-port-0". */
    std::string name;
    ReservationTable table;
};

/** Execution properties of one opcode on a machine. */
struct OpcodeInfo
{
    /** Architectural latency: cycles from issue until the result is
     *  available to a consumer. */
    int latency = 1;
    /** At least one alternative; pseudo-ops have exactly one empty one. */
    std::vector<Alternative> alternatives;
};

/**
 * A machine description: the resource set and, per opcode, the latency and
 * execution alternatives. Immutable once built (see MachineBuilder).
 *
 * Opcode lookups sit on the scheduler's innermost loops (ResMII packing
 * probes every alternative of every operation; FindTimeSlot consults the
 * reservation tables per probe), so the info is stored densely indexed by
 * opcode and the unsupported-opcode diagnostic is only materialised on the
 * cold throw path.
 */
class MachineModel
{
  public:
    /**
     * @throws support::Error when an opcode has no alternatives or a
     *         negative latency, or a reservation table uses an undeclared
     *         resource or a negative time.
     */
    MachineModel(std::string name, std::vector<std::string> resource_names,
                 std::map<ir::Opcode, OpcodeInfo> opcodes);

    const std::string& name() const { return name_; }

    int
    numResources() const
    {
        return static_cast<int>(resourceNames_.size());
    }

    const std::string& resourceName(ResourceId id) const;

    /** True if the machine implements `opcode`. */
    bool
    supports(ir::Opcode opcode) const
    {
        const auto index = static_cast<std::size_t>(opcode);
        return index < infoByOpcode_.size() &&
               !infoByOpcode_[index].alternatives.empty();
    }

    /** Info for `opcode`; throws support::Error if unsupported. */
    const OpcodeInfo&
    info(ir::Opcode opcode) const
    {
        const auto index = static_cast<std::size_t>(opcode);
        if (index >= infoByOpcode_.size() ||
            infoByOpcode_[index].alternatives.empty())
            throwUnsupported(opcode);
        return infoByOpcode_[index];
    }

    /** Latency shortcut. Pseudo-ops (START/STOP) have latency 0. */
    int latency(ir::Opcode opcode) const;

    /** Number of alternatives for the opcode. */
    int numAlternatives(ir::Opcode opcode) const;

    /** Multi-line description of resources and opcode tables. */
    std::string toString() const;

  private:
    [[noreturn]] void throwUnsupported(ir::Opcode opcode) const;

    std::string name_;
    std::vector<std::string> resourceNames_;
    /** Dense per-opcode table; an entry with no alternatives means the
     *  opcode is unsupported (every supported opcode has at least one). */
    std::vector<OpcodeInfo> infoByOpcode_;
};

} // namespace ims::machine

#endif // IMS_MACHINE_MACHINE_MODEL_HPP
