#include "service/model_registry.hpp"

#include <utility>

#include "machine/machine_io.hpp"
#include "machine/machines.hpp"

namespace ims::service {

ModelRegistry::ModelRegistry()
{
    for (const std::string_view name : machine::kStockMachineNames)
        registerModel(std::string(name), *machine::stockMachine(name));
}

void
ModelRegistry::registerModel(const std::string& name,
                             machine::MachineModel model)
{
    std::string text = machine::printMachine(model);
    auto entry = std::make_shared<RegisteredModel>(
        RegisteredModel{std::move(model), std::move(text)});
    const std::lock_guard<std::mutex> lock(mutex_);
    models_[name] = std::move(entry);
}

void
ModelRegistry::registerText(const std::string& name, const std::string& text)
{
    registerModel(name, machine::parseMachine(text));
}

std::shared_ptr<const RegisteredModel>
ModelRegistry::lookup(const std::string& name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = models_.find(name);
    return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string>
ModelRegistry::names() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(models_.size());
    for (const auto& [name, model] : models_)
        out.push_back(name);
    return out;
}

} // namespace ims::service
