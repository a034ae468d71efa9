#include "spice/device.h"

#include "common/contracts.h"
#include "common/strings.h"

namespace xysig::spice {

Device::Device(std::string name, std::vector<NodeId> nodes)
    : name_(std::move(name)), nodes_(std::move(nodes)) {
    XYSIG_EXPECTS(!name_.empty());
    for (const NodeId n : nodes_)
        XYSIG_EXPECTS(n >= 0);
}

std::string Device::spell_fingerprint(
    std::string_view type, std::initializer_list<double> values) const {
    std::string fp(type);
    fp += '{';
    fp += std::to_string(name_.size());
    fp += ':';
    fp += name_;
    fp += ';';
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (i > 0)
            fp += ',';
        fp += std::to_string(nodes_[i]);
    }
    for (const double v : values) {
        fp += ';';
        fp += format_double_exact(v);
    }
    fp += '}';
    return fp;
}

void Device::stamp_ac(AcStampContext&) const {}

void Device::begin_transient(std::span<const double>) {}

void Device::step_accepted(std::span<const double>, double, double, Integrator) {}

void Device::restore_state(std::span<const double> state) {
    XYSIG_EXPECTS(state.empty()); // devices with state override this
}

void Device::save_state_into(std::vector<double>& out) const {
    const std::vector<double> state = save_state();
    out.assign(state.begin(), state.end());
}

} // namespace xysig::spice
