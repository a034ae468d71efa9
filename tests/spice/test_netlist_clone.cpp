// Netlist::clone() deep-copy contract: structural equivalence, bit-identical
// transient behaviour, and complete isolation (no aliasing of devices,
// waveforms or node tables) — the re-entrancy primitive of the parallel
// SPICE backend.

#include "spice/netlist.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "filter/tow_thomas.h"
#include "signal/waveform.h"
#include "spice/elements.h"
#include "spice/transient.h"

namespace xysig::spice {
namespace {

/// RC low-pass driven by a sine — small but exercises sources, linear
/// elements and reactive transient state.
Netlist make_rc() {
    Netlist nl;
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<VoltageSource>("Vin", in, kGround, SineWaveform(0.0, 0.5, 10e3));
    nl.add<Resistor>("R1", in, out, 10e3);
    nl.add<Capacitor>("C1", out, kGround, 1.59e-9);
    return nl;
}

TransientResult run(const Netlist& nl) {
    TransientOptions opts;
    opts.t_stop = 3e-4;
    opts.dt = 1e-6;
    return run_transient(nl, opts);
}

TEST(NetlistClone, CopiesNodeTableAndDeviceRoster) {
    const Netlist original = make_rc();
    const Netlist copy = original.clone();

    ASSERT_EQ(copy.node_count(), original.node_count());
    for (NodeId id = 0; id < static_cast<NodeId>(original.node_count()); ++id)
        EXPECT_EQ(copy.node_name(id), original.node_name(id));
    EXPECT_EQ(copy.find_node("out"), original.find_node("out"));

    ASSERT_EQ(copy.devices().size(), original.devices().size());
    for (std::size_t i = 0; i < original.devices().size(); ++i) {
        EXPECT_EQ(copy.devices()[i]->name(), original.devices()[i]->name());
        // Deep copy: never the same object.
        EXPECT_NE(copy.devices()[i].get(), original.devices()[i].get());
    }
    EXPECT_DOUBLE_EQ(copy.get<Resistor>("R1").resistance(),
                     original.get<Resistor>("R1").resistance());
    EXPECT_DOUBLE_EQ(copy.get<Capacitor>("C1").capacitance(),
                     original.get<Capacitor>("C1").capacitance());
}

TEST(NetlistClone, TransientTraceIsBitIdentical) {
    const Netlist original = make_rc();
    const Netlist copy = original.clone();

    const auto ref = run(original);
    const auto dup = run(copy);
    ASSERT_EQ(dup.step_count(), ref.step_count());
    const NodeId out_o = original.find_node("out");
    const NodeId out_c = copy.find_node("out");
    for (std::size_t k = 0; k < ref.step_count(); ++k) {
        EXPECT_EQ(dup.time()[k], ref.time()[k]) << "step " << k;
        EXPECT_EQ(dup.voltage(out_c, k), ref.voltage(out_o, k)) << "step " << k;
    }
}

TEST(NetlistClone, TowThomasCloneMatchesOriginalExactly) {
    const filter::TowThomasCircuit ckt = filter::build_tow_thomas({});
    Netlist copy = ckt.netlist.clone();
    copy.get<VoltageSource>("Vin").set_waveform(SineWaveform(0.3, 0.2, 5e3));
    Netlist copy2 = copy.clone(); // clone of a clone, waveform included

    TransientOptions opts;
    opts.t_stop = 4e-4;
    opts.dt = 5e-7;
    const auto a = run_transient(copy, opts);
    const auto b = run_transient(copy2, opts);
    ASSERT_EQ(b.step_count(), a.step_count());
    const NodeId lp = copy.find_node("lp");
    for (std::size_t k = 0; k < a.step_count(); ++k)
        ASSERT_EQ(b.voltage(lp, k), a.voltage(lp, k)) << "step " << k;
}

TEST(NetlistClone, MutatingOriginalDoesNotAffectClone) {
    Netlist original = make_rc();
    const Netlist copy = original.clone();
    const auto before = run(copy);

    // Component change + drive change + a whole new device on the original.
    original.get<Resistor>("R1").set_resistance(1e3);
    original.get<VoltageSource>("Vin").set_waveform(DcWaveform(1.0));
    original.add<Resistor>("Rload", original.find_node("out"), kGround, 5e3);
    (void)run(original); // also advance the original's transient state

    const auto after = run(copy);
    ASSERT_EQ(after.step_count(), before.step_count());
    const NodeId out = copy.find_node("out");
    for (std::size_t k = 0; k < before.step_count(); ++k)
        ASSERT_EQ(after.voltage(out, k), before.voltage(out, k)) << "step " << k;
    // And the clone never grew the extra device.
    EXPECT_EQ(copy.devices().size(), 3u);
    EXPECT_EQ(copy.try_get<Resistor>("Rload"), nullptr);
}

TEST(NetlistClone, ClonePreservesMidRunTransientState) {
    // Clone taken after a run: device state (capacitor history) is copied,
    // but a fresh run re-initialises from the DC operating point, so both
    // circuits must still agree exactly.
    Netlist original = make_rc();
    (void)run(original);
    const Netlist copy = original.clone();
    const auto ref = run(original);
    const auto dup = run(copy);
    const NodeId out = original.find_node("out");
    ASSERT_EQ(dup.step_count(), ref.step_count());
    for (std::size_t k = 0; k < ref.step_count(); ++k)
        ASSERT_EQ(dup.voltage(out, k), ref.voltage(out, k));
}

TEST(NetlistFingerprint, CloneHasTheSameKey) {
    const filter::TowThomasCircuit ckt = filter::build_tow_thomas({});
    const std::string key = ckt.netlist.fingerprint();
    ASSERT_FALSE(key.empty()); // every Tow-Thomas device spells itself
    EXPECT_EQ(ckt.netlist.clone().fingerprint(), key);
    EXPECT_EQ(filter::build_tow_thomas({}).netlist.fingerprint(), key);
}

TEST(NetlistFingerprint, OneUlpResistorChangeChangesTheKey) {
    const filter::TowThomasCircuit ckt = filter::build_tow_thomas({});
    Netlist nudged = ckt.netlist.clone();
    auto& r = nudged.get<Resistor>("Rq");
    r.set_resistance(std::nextafter(r.resistance(), 2.0 * r.resistance()));
    EXPECT_NE(nudged.fingerprint(), ckt.netlist.fingerprint());
}

TEST(NetlistFingerprint, DeviceWithoutFingerprintEmptiesTheKey) {
    Netlist nl;
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    nl.add<Resistor>("R1", in, out, 1e3);
    ASSERT_FALSE(nl.fingerprint().empty());
    nl.add<Inductor>("L1", out, kGround, 1e-3);
    EXPECT_TRUE(nl.fingerprint().empty());
    // A source driven by anything but a DC level is not spelled either.
    EXPECT_TRUE(make_rc().fingerprint().empty());
}

TEST(RunTransientInto, ReusedResultIsBitIdenticalToFreshRuns) {
    const Netlist nl = make_rc();
    TransientOptions opts;
    opts.t_stop = 2e-4;
    opts.dt = 1e-6;

    const auto fresh = run_transient(nl, opts);
    TransientResult reused;
    run_transient_into(nl, opts, reused);
    const NodeId out = nl.find_node("out");
    ASSERT_EQ(reused.step_count(), fresh.step_count());
    for (std::size_t k = 0; k < fresh.step_count(); ++k)
        ASSERT_EQ(reused.voltage(out, k), fresh.voltage(out, k));

    // Second, shorter run into the same result: stale rows beyond the new
    // length must be invisible.
    opts.t_stop = 1e-4;
    run_transient_into(nl, opts, reused);
    const auto fresh_short = run_transient(nl, opts);
    ASSERT_EQ(reused.step_count(), fresh_short.step_count());
    for (std::size_t k = 0; k < fresh_short.step_count(); ++k)
        ASSERT_EQ(reused.voltage(out, k), fresh_short.voltage(out, k));
    EXPECT_EQ(reused.voltage_trace("out").size(), fresh_short.step_count());
}

} // namespace
} // namespace xysig::spice
