// LU factor reuse through detail::NewtonWorkspace. A Newton iteration whose
// stamped matrix has exactly the bits of the last factorised one solves with
// the held factors instead of factorising again; these tests pin that
//  * a linear circuit at a fixed step (the Tow-Thomas fault universe's
//    case) factorises only once per distinct step matrix;
//  * on a nonlinear circuit, where the reuse fires only in some iterations,
//    fixed and adaptive transients through one shared workspace are
//    bit-identical to a reference that gives every solve a fresh workspace;
//  * a singular factorisation leaves nothing behind to reuse.

#include "spice/transient.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/paper_setup.h"
#include "filter/tow_thomas.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/mosfet.h"

namespace xysig::spice {
namespace {

/// Level-1 NMOS common-source stage whose gate swings through threshold:
/// in cut-off the device stamps exact zeros, so the matrix repeats and the
/// factors are reused; in conduction it changes every iteration.
Netlist nmos_stage() {
    Netlist nl;
    const NodeId vdd = nl.node("vdd");
    const NodeId g = nl.node("g");
    const NodeId d = nl.node("d");
    nl.add<VoltageSource>("VDD", vdd, kGround, 1.2);
    nl.add<VoltageSource>("VG", g, kGround, SineWaveform(0.3, 0.5, 10e3));
    nl.add<Resistor>("RD", vdd, d, 10e3);
    nl.add<Capacitor>("CL", d, kGround, 1e-9);
    MosParams p;
    p.model = MosModel::level1;
    p.w = 1.8e-6;
    p.l = 180e-9;
    nl.add<Mosfet>("M1", d, g, kGround, p);
    return nl;
}

/// Every unknown at every accepted time point, with its time.
struct Trajectory {
    std::vector<double> time;
    std::vector<std::vector<double>> rows;
};

Trajectory trajectory_of(const TransientResult& res, std::size_t n) {
    Trajectory out;
    for (std::size_t s = 0; s < res.step_count(); ++s) {
        out.time.push_back(res.time()[s]);
        std::vector<double> row(n);
        for (std::size_t i = 0; i < n; ++i)
            row[i] = res.unknown(i, s);
        out.rows.push_back(std::move(row));
    }
    return out;
}

/// One implicit step through a workspace made for this solve alone, so no
/// factor can carry over from an earlier solve.
int fresh_solve(const Netlist& nl, std::vector<double>& x, const TransientOptions& opts,
                double t_new, double dt, Integrator integ) {
    detail::NewtonWorkspace fresh;
    return detail::newton_solve(nl, x, opts.dc.newton, AnalysisMode::transient, integ,
                                t_new, dt, opts.dc.gmin, 1.0, fresh);
}

void accept_all(const Netlist& nl, std::span<const double> x, double t, double dt,
                Integrator integ) {
    for (const auto& dev : nl.devices())
        dev->step_accepted(x, t, dt, integ);
}

/// The fixed-step and step-doubling schedules of run_transient, re-driven
/// with fresh_solve(): the reference the shared-workspace engine must match
/// bit for bit.
Trajectory fresh_workspace_reference(const Netlist& nl, const TransientOptions& opts) {
    const OperatingPoint op = dc_operating_point(nl, opts.dc, opts.t_start);
    for (const auto& dev : nl.devices())
        dev->begin_transient(op.unknowns());
    std::vector<double> x(op.unknowns().begin(), op.unknowns().end());
    Trajectory out;
    out.time.push_back(opts.t_start);
    out.rows.push_back(x);

    if (!opts.adaptive) {
        const auto steps = static_cast<std::size_t>(
            std::llround((opts.t_stop - opts.t_start) / opts.dt));
        for (std::size_t k = 1; k <= steps; ++k) {
            const double t_new = opts.t_start + static_cast<double>(k) * opts.dt;
            const Integrator integ =
                (k == 1) ? Integrator::backward_euler : opts.integrator;
            EXPECT_GE(fresh_solve(nl, x, opts, t_new, opts.dt, integ), 0);
            accept_all(nl, x, t_new, opts.dt, integ);
            out.time.push_back(t_new);
            out.rows.push_back(x);
        }
        return out;
    }

    double t = opts.t_start;
    double dt = opts.dt;
    const double dt_max = (opts.dt_max > 0.0) ? opts.dt_max : 10.0 * opts.dt;
    bool first = true;
    const std::size_t n_node_vars = nl.node_count() - 1;
    const double t_end_eps =
        1e-15 * std::max(std::abs(opts.t_stop), opts.t_stop - opts.t_start);
    std::vector<std::vector<double>> states(nl.devices().size());
    while (t < opts.t_stop - t_end_eps) {
        const double h = std::min(dt, opts.t_stop - t);
        const Integrator integ = first ? Integrator::backward_euler : opts.integrator;
        for (std::size_t i = 0; i < states.size(); ++i)
            nl.devices()[i]->save_state_into(states[i]);
        std::vector<double> x_full = x;
        std::vector<double> x_half = x;
        const int it_full = fresh_solve(nl, x_full, opts, t + h, h, integ);
        int it_half2 = -1;
        if (it_full >= 0 && fresh_solve(nl, x_half, opts, t + 0.5 * h, 0.5 * h, integ) >= 0) {
            accept_all(nl, x_half, t + 0.5 * h, 0.5 * h, integ);
            it_half2 = fresh_solve(nl, x_half, opts, t + h, 0.5 * h, integ);
        }
        double err = std::numeric_limits<double>::infinity();
        if (it_full >= 0 && it_half2 >= 0) {
            err = 0.0;
            for (std::size_t i = 0; i < n_node_vars; ++i)
                err = std::max(err, std::abs(x_full[i] - x_half[i]));
        }
        if (err <= opts.lte_tol) {
            accept_all(nl, x_half, t + h, 0.5 * h, integ);
            x = x_half;
            t += h;
            out.time.push_back(t);
            out.rows.push_back(x);
            first = false;
            if (err < 0.25 * opts.lte_tol)
                dt = std::min(dt * 2.0, dt_max);
        } else {
            for (std::size_t i = 0; i < states.size(); ++i)
                nl.devices()[i]->restore_state(states[i]);
            dt = 0.5 * h;
        }
    }
    return out;
}

void expect_same_bits(const Trajectory& got, const Trajectory& want) {
    ASSERT_EQ(got.time.size(), want.time.size());
    for (std::size_t s = 0; s < want.time.size(); ++s) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.time[s]),
                  std::bit_cast<std::uint64_t>(want.time[s]))
            << "time of step " << s;
        ASSERT_EQ(got.rows[s].size(), want.rows[s].size());
        for (std::size_t i = 0; i < want.rows[s].size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rows[s][i]),
                      std::bit_cast<std::uint64_t>(want.rows[s][i]))
                << "unknown " << i << " at step " << s;
    }
}

TEST(NewtonWorkspace, FixedStepTowThomasFactorisesOncePerDistinctStep) {
    filter::TowThomasCircuit ckt = filter::build_tow_thomas(
        filter::TowThomasDesign::from_biquad(core::paper_biquad().design(), 10e3));
    ckt.netlist.get<VoltageSource>("Vin").set_waveform(core::paper_stimulus());
    TransientOptions opts;
    opts.t_stop = 2 * 200e-6;
    opts.dt = 200e-6 / 1024;
    const TransientResult res = run_transient(ckt.netlist, opts);
    ASSERT_EQ(res.step_count(), 2049u);
    // The backward-Euler first step and the trapezoidal steps after it each
    // stamp one matrix that keeps its bits, so every later Newton iteration
    // reuses the held factors.
    EXPECT_LE(res.lu_factorisations(), 3u);
    EXPECT_GE(res.lu_factorisations(), 1u);
    EXPECT_GE(res.total_newton_iterations, 2048);
}

TEST(NewtonWorkspace, SharedFixedStepMatchesFreshWorkspaceReference) {
    TransientOptions opts;
    opts.t_stop = 200e-6; // two periods of the gate sine
    opts.dt = 0.5e-6;
    Netlist engine_nl = nmos_stage();
    const TransientResult res = run_transient(engine_nl, opts);
    const std::size_t n = engine_nl.assign_unknowns();

    // The circuit must exercise both paths: reuse in cut-off, fresh
    // factorisations in conduction.
    EXPECT_GT(res.lu_factorisations(), 10u);
    EXPECT_LT(res.lu_factorisations(),
              static_cast<std::uint64_t>(res.total_newton_iterations));

    Netlist ref_nl = nmos_stage();
    expect_same_bits(trajectory_of(res, n), fresh_workspace_reference(ref_nl, opts));
}

TEST(NewtonWorkspace, SharedAdaptiveMatchesFreshWorkspaceReference) {
    TransientOptions opts;
    opts.t_stop = 200e-6;
    opts.dt = 1e-6;
    opts.adaptive = true;
    opts.lte_tol = 1e-4;
    Netlist engine_nl = nmos_stage();
    const TransientResult res = run_transient(engine_nl, opts);
    const std::size_t n = engine_nl.assign_unknowns();
    EXPECT_GT(res.rejected_steps, 0);

    Netlist ref_nl = nmos_stage();
    expect_same_bits(trajectory_of(res, n), fresh_workspace_reference(ref_nl, opts));
}

TEST(NewtonWorkspace, SingularFactorisationLeavesNothingToReuse) {
    // Two ideal sources in parallel: 1 node + 2 branch currents, and the
    // two branch columns are equal, so the first pivot search past the
    // node row fails.
    Netlist bad;
    const NodeId a = bad.node("a");
    bad.add<VoltageSource>("V1", a, kGround, 1.0);
    bad.add<VoltageSource>("V2", a, kGround, 2.0);
    const std::size_t n_bad = bad.assign_unknowns();

    // A well-posed system of the same size: 2 nodes + 1 branch current.
    Netlist good;
    const NodeId in = good.node("in");
    const NodeId out = good.node("out");
    good.add<VoltageSource>("V1", in, kGround, 3.0);
    good.add<Resistor>("R1", in, out, 1e3);
    good.add<Resistor>("R2", out, kGround, 2e3);
    const std::size_t n_good = good.assign_unknowns();
    ASSERT_EQ(n_bad, n_good);

    const auto solve = [](const Netlist& nl, std::size_t n, detail::NewtonWorkspace& ws,
                          std::vector<double>& x) {
        x.assign(n, 0.0);
        return detail::newton_solve(nl, x, NewtonOptions{}, AnalysisMode::dc_op,
                                    Integrator::trapezoidal, 0.0, 0.0, 1e-12, 1.0, ws);
    };
    detail::NewtonWorkspace ws;
    std::vector<double> x_first;
    const int iters = solve(good, n_good, ws, x_first);
    ASSERT_GT(iters, 0);
    EXPECT_EQ(ws.factorisations, 1u); // later iterations reused the factors

    // The singular matrix throws part-way through factorising over the
    // held factors: the solve fails and nothing is left to reuse.
    std::vector<double> x;
    EXPECT_EQ(solve(bad, n_bad, ws, x), -1);
    EXPECT_FALSE(ws.lu.factored());
    EXPECT_EQ(ws.factorisations, 2u);
    // The same singular matrix again fails again.
    EXPECT_EQ(solve(bad, n_bad, ws, x), -1);
    EXPECT_EQ(ws.factorisations, 3u);

    // The well-posed matrix again matches the bits of the last successful
    // factorisation, but those factors were overwritten by the aborted
    // one: it must factorise afresh and give the first answer, to the bit
    // of a workspace that never failed.
    EXPECT_EQ(solve(good, n_good, ws, x), iters);
    EXPECT_EQ(ws.factorisations, 4u);
    EXPECT_NEAR(x[static_cast<std::size_t>(out) - 1], 2.0, 1e-8);
    detail::NewtonWorkspace fresh;
    std::vector<double> x_ref;
    ASSERT_EQ(solve(good, n_good, fresh, x_ref), iters);
    for (std::size_t i = 0; i < n_good; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]), std::bit_cast<std::uint64_t>(x_ref[i]));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]), std::bit_cast<std::uint64_t>(x_first[i]));
    }
}

} // namespace
} // namespace xysig::spice
