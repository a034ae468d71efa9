#include "spice/netlist.h"

#include <algorithm>
#include <atomic>

#include "common/contracts.h"
#include "common/strings.h"

namespace xysig::spice {

namespace {
/// See Netlist::clone_count(): the deep-copy probe for clone-budget tests.
std::atomic<std::uint64_t> g_clone_count{0};
} // namespace

Netlist::Netlist() {
    names_.push_back("0");
    ids_.emplace("0", kGround);
    ids_.emplace("gnd", kGround);
}

Netlist Netlist::clone() const {
    Netlist out;
    out.names_ = names_;
    out.ids_ = ids_;
    out.devices_.reserve(devices_.size());
    for (const auto& dev : devices_)
        out.devices_.push_back(dev->clone());
    out.device_index_ = device_index_;
    g_clone_count.fetch_add(1, std::memory_order_relaxed);
    return out;
}

std::string Netlist::fingerprint() const {
    std::string fp = "nodes{";
    for (const std::string& name : names_) {
        fp += std::to_string(name.size());
        fp += ':';
        fp += name;
        fp += ';';
    }
    fp += '}';
    for (const auto& dev : devices_) {
        const std::string dev_fp = dev->fingerprint();
        if (dev_fp.empty())
            return {};
        fp += dev_fp;
    }
    return fp;
}

std::uint64_t Netlist::clone_count() noexcept {
    return g_clone_count.load(std::memory_order_relaxed);
}

NodeId Netlist::node(const std::string& name) {
    XYSIG_EXPECTS(!name.empty());
    const std::string key = to_lower(name);
    const auto it = ids_.find(key);
    if (it != ids_.end())
        return it->second;
    const auto id = static_cast<NodeId>(names_.size());
    names_.push_back(name);
    ids_.emplace(key, id);
    return id;
}

NodeId Netlist::find_node(const std::string& name) const {
    const auto it = ids_.find(to_lower(name));
    if (it == ids_.end())
        throw InvalidInput("Netlist: unknown node '" + name + "'");
    return it->second;
}

const std::string& Netlist::node_name(NodeId id) const {
    XYSIG_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < names_.size());
    return names_[static_cast<std::size_t>(id)];
}

void Netlist::register_device(std::unique_ptr<Device> dev) {
    XYSIG_EXPECTS(dev != nullptr);
    for (const NodeId n : dev->nodes())
        XYSIG_EXPECTS(static_cast<std::size_t>(n) < names_.size());
    const auto [it, inserted] = device_index_.emplace(dev->name(), devices_.size());
    if (!inserted)
        throw InvalidInput("Netlist: duplicate device name '" + dev->name() + "'");
    devices_.push_back(std::move(dev));
}

void Netlist::remove_device(const std::string& name) {
    const auto it = device_index_.find(name);
    if (it == device_index_.end())
        throw InvalidInput("Netlist: no device named '" + name + "' to remove");
    const std::size_t index = it->second;
    device_index_.erase(it);
    devices_.erase(devices_.begin() + static_cast<std::ptrdiff_t>(index));
    // xylint: order-insensitive(pure per-entry index shift; no read depends on visit order and nothing is emitted)
    for (auto& [unused, idx] : device_index_) {
        if (idx > index)
            --idx;
    }
}

Device* Netlist::find_device(const std::string& name) const {
    const auto it = device_index_.find(name);
    if (it == device_index_.end())
        return nullptr;
    return devices_[it->second].get();
}

std::size_t Netlist::assign_unknowns() const {
    std::size_t next = node_count() - 1;
    for (const auto& dev : devices_) {
        const int extras = dev->extra_variable_count();
        XYSIG_ASSERT(extras >= 0);
        if (extras > 0)
            dev->set_extra_base(static_cast<int>(next));
        next += static_cast<std::size_t>(extras);
    }
    return next;
}

void Netlist::validate() const {
    std::vector<bool> touched(node_count(), false);
    touched[0] = true;
    for (const auto& dev : devices_)
        for (const NodeId n : dev->nodes())
            touched[static_cast<std::size_t>(n)] = true;
    for (std::size_t i = 0; i < touched.size(); ++i) {
        if (!touched[i])
            throw InvalidInput("Netlist: node '" + names_[i] +
                               "' is not connected to any device");
    }
    if (devices_.empty())
        throw InvalidInput("Netlist: empty circuit");
}

} // namespace xysig::spice
