#ifndef XYSIG_SPICE_NETLIST_H
#define XYSIG_SPICE_NETLIST_H

/// \file netlist.h
/// Circuit container: named nodes plus owned devices.
///
/// Typical use:
/// \code
///   spice::Netlist nl;
///   const auto in  = nl.node("in");
///   const auto out = nl.node("out");
///   nl.add<spice::VoltageSource>("Vin", in, spice::kGround,
///                                SineWaveform(0.5, 0.3, 5e3));
///   nl.add<spice::Resistor>("R1", in, out, 10e3);
///   nl.add<spice::Capacitor>("C1", out, spice::kGround, 1e-9);
///   auto tran = spice::run_transient(nl, {.t_stop = 1e-3, .dt = 1e-7});
/// \endcode

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "spice/device.h"

namespace xysig::spice {

/// Owns the devices and the node name table of one circuit.
///
/// Netlists are movable but not copyable; an explicit deep copy is provided
/// by clone(). Cloning is the re-entrancy primitive of the SPICE backend:
/// transient simulation mutates device state (companion-model history,
/// source waveforms), so concurrent workers must each own a clone instead
/// of sharing one netlist.
class Netlist {
public:
    Netlist();

    /// Deep copy: node table, every device (including waveforms and
    /// transient state) and the lookup indices. The clone shares no mutable
    /// state with the original — simulating one never affects the other.
    [[nodiscard]] Netlist clone() const;

    /// Exact fingerprint: the node table, then every device's
    /// Device::fingerprint() in insertion order (the order fixes the
    /// unknown numbering, so it is part of the key). Equal non-empty
    /// fingerprints mean bit-identical simulations; empty when any device
    /// has no fingerprint.
    [[nodiscard]] std::string fingerprint() const;

    /// Process-wide count of clone() calls since start-up. This is the
    /// clone-budget probe the sweep service's tests rely on: a sharded
    /// sweep must clone once per worker, not once per fault, and that
    /// invariant is only checkable against the true deep-copy count.
    [[nodiscard]] static std::uint64_t clone_count() noexcept;

    /// Returns the id for a named node, creating it on first use.
    /// The name "0" and "gnd" map to ground.
    NodeId node(const std::string& name);

    /// Looks up an existing node; throws InvalidInput if absent.
    [[nodiscard]] NodeId find_node(const std::string& name) const;

    /// Name of a node id (for reports); ids are dense, 0 = ground.
    [[nodiscard]] const std::string& node_name(NodeId id) const;

    /// Number of nodes including ground.
    [[nodiscard]] std::size_t node_count() const noexcept { return names_.size(); }

    /// Constructs a device in place and returns a reference to it.
    /// Device names must be unique within the netlist.
    template <typename T, typename... Args>
    T& add(Args&&... args) {
        auto dev = std::make_unique<T>(std::forward<Args>(args)...);
        T& ref = *dev;
        register_device(std::move(dev));
        return ref;
    }

    /// All devices in insertion order.
    [[nodiscard]] std::span<const std::unique_ptr<Device>> devices() const noexcept {
        return devices_;
    }

    /// Finds a device by name and downcasts it; throws InvalidInput when the
    /// name is unknown or the type does not match.
    template <typename T>
    [[nodiscard]] T& get(const std::string& name) const {
        Device* dev = find_device(name);
        if (dev == nullptr)
            throw InvalidInput("Netlist: no device named '" + name + "'");
        auto* typed = dynamic_cast<T*>(dev);
        if (typed == nullptr)
            throw InvalidInput("Netlist: device '" + name + "' has unexpected type");
        return *typed;
    }

    /// Non-throwing lookup: nullptr when the name is unknown or the type
    /// does not match (used by fault enumeration to probe device kinds).
    template <typename T>
    [[nodiscard]] T* try_get(const std::string& name) const {
        return dynamic_cast<T*>(find_device(name));
    }

    /// Removes a device by name (throws InvalidInput when absent). The
    /// repair half of transient fault injection: removing the injected
    /// bridge resistor restores the netlist to its pre-fault structure, so
    /// one worker clone can be reused across a whole fault universe.
    void remove_device(const std::string& name);

    /// Total unknowns: (node_count-1) node voltages + extra branch variables.
    /// Also (re)assigns each device's extra-variable base index; analyses
    /// call this before assembling.
    [[nodiscard]] std::size_t assign_unknowns() const;

    /// Sanity pass: every non-ground node must be reachable by at least one
    /// device terminal (catches typo'd node names early). Throws InvalidInput.
    void validate() const;

private:
    void register_device(std::unique_ptr<Device> dev);
    [[nodiscard]] Device* find_device(const std::string& name) const;

    std::vector<std::string> names_; // index = NodeId
    std::unordered_map<std::string, NodeId> ids_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unordered_map<std::string, std::size_t> device_index_;
};

} // namespace xysig::spice

#endif // XYSIG_SPICE_NETLIST_H
