#ifndef IMS_MACHINE_MACHINE_BUILDER_HPP
#define IMS_MACHINE_MACHINE_BUILDER_HPP

#include <map>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"

namespace ims::machine {

/**
 * Incremental construction of MachineModel descriptions.
 *
 * @code
 *   MachineBuilder b("toy");
 *   auto alu = b.addResource("alu");
 *   b.opcode(ir::Opcode::kAdd, 2).simpleAlternative("alu", alu);
 *   MachineModel m = b.build();
 * @endcode
 */
class MachineBuilder
{
  public:
    explicit MachineBuilder(std::string name);

    /** Declare a resource; returns its id. */
    ResourceId addResource(const std::string& name);

    /** Scoped helper returned by opcode() for attaching alternatives. */
    class OpcodeConfig
    {
      public:
        OpcodeConfig(MachineBuilder& builder, ir::Opcode opcode)
            : builder_(builder), opcode_(opcode)
        {}

        /** Add an alternative with an explicit reservation table. */
        OpcodeConfig& alternative(const std::string& name,
                                  ReservationTable table);

        /** Add a simple (one resource, one cycle at issue) alternative. */
        OpcodeConfig& simpleAlternative(const std::string& name,
                                        ResourceId resource);

        /** Add a block alternative occupying `resource` for `cycles`. */
        OpcodeConfig& blockAlternative(const std::string& name,
                                       ResourceId resource, int cycles);

      private:
        MachineBuilder& builder_;
        ir::Opcode opcode_;
    };

    /** Begin describing `opcode` with the given latency. */
    OpcodeConfig opcode(ir::Opcode opcode, int latency);

    /** Finalize into an immutable MachineModel; @throws support::Error
     *  for an invalid description (see MachineModel's constructor). */
    MachineModel build() const;

  private:
    std::string name_;
    std::vector<std::string> resourceNames_;
    std::map<ir::Opcode, OpcodeInfo> opcodes_;
};

} // namespace ims::machine

#endif // IMS_MACHINE_MACHINE_BUILDER_HPP
