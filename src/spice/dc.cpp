#include "spice/dc.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "spice/elements.h"

namespace xysig::spice {

OperatingPoint::OperatingPoint(const Netlist& nl, std::vector<double> x)
    : netlist_(&nl), x_(std::move(x)) {}

double OperatingPoint::voltage(NodeId node) const {
    if (node == kGround)
        return 0.0;
    XYSIG_EXPECTS(static_cast<std::size_t>(node) <= x_.size());
    return x_[static_cast<std::size_t>(node) - 1];
}

double OperatingPoint::voltage(const std::string& node_name) const {
    return voltage(netlist_->find_node(node_name));
}

namespace detail {

int newton_solve(const Netlist& nl, std::vector<double>& x, const NewtonOptions& opts,
                 AnalysisMode mode, Integrator integrator, double time, double dt,
                 double gmin, double source_scale, NewtonWorkspace& ws) {
    const std::size_t n_unknowns = x.size();
    if (ws.a.rows() != n_unknowns)
        ws.a = Matrix<double>(n_unknowns, n_unknowns);
    ws.b.resize(n_unknowns);
    const std::size_t n_node_vars = nl.node_count() - 1;

    for (int iter = 1; iter <= opts.max_iterations; ++iter) {
        ws.a.fill(0.0);
        std::fill(ws.b.begin(), ws.b.end(), 0.0);
        RealAssembler mna(ws.a, ws.b, nl.node_count());

        StampContext ctx;
        ctx.mode = mode;
        ctx.integrator = integrator;
        ctx.time = time;
        ctx.dt = dt;
        ctx.source_scale = source_scale;
        ctx.gmin = gmin;
        ctx.x = x;
        ctx.mna = &mna;

        for (const auto& dev : nl.devices())
            dev->stamp(ctx);
        for (std::size_t i = 0; i < n_node_vars; ++i)
            ws.a(i, i) += gmin;

        // Reuse the held factors only for a bitwise-identical matrix; a
        // factorisation that throws leaves ws.lu without factors.
        if (!ws.lu.factored() || !ws.a.same_bits(ws.factored)) {
            ++ws.factorisations;
            try {
                ws.lu.factor(ws.a);
            } catch (const NumericError&) {
                return -1; // singular at this iterate; let the caller escalate
            }
            ws.factored = ws.a;
        }
        ws.lu.solve_into(ws.b, ws.x_new);
        const std::vector<double>& x_new = ws.x_new;

        // Damping: scale the update so no unknown moves more than max_step.
        double max_delta = 0.0;
        for (std::size_t i = 0; i < n_unknowns; ++i)
            max_delta = std::max(max_delta, std::abs(x_new[i] - x[i]));
        const double damp = (max_delta > opts.max_step) ? opts.max_step / max_delta : 1.0;

        bool converged = true;
        for (std::size_t i = 0; i < n_unknowns; ++i) {
            const double delta = x_new[i] - x[i];
            if (std::abs(delta) > opts.abstol + opts.reltol * std::abs(x[i]))
                converged = false;
            x[i] += damp * delta;
        }
        // xylint: exact-compare(damp is assigned the literal 1.0 when damping is off; exact state flag)
        if (converged && damp == 1.0)
            return iter;
    }
    return -1;
}

} // namespace detail

namespace {

/// The plain / gmin-stepping / source-stepping ladder; every rung solves
/// through the caller's workspace.
OperatingPoint solve_operating_point(const Netlist& nl, const DcOptions& opts,
                                     double time, detail::NewtonWorkspace& ws) {
    nl.validate();
    const std::size_t n = nl.assign_unknowns();
    std::vector<double> x(n, 0.0);

    // Ladder 1: plain Newton from a zero start.
    int iters = detail::newton_solve(nl, x, opts.newton, AnalysisMode::dc_op,
                                     Integrator::trapezoidal, time, 0.0, opts.gmin,
                                     1.0, ws);
    if (iters > 0) {
        OperatingPoint op(nl, std::move(x));
        op.newton_iterations = iters;
        return op;
    }

    // Ladder 2: gmin stepping — start heavily damped and relax.
    bool gmin_ok = true;
    std::fill(x.begin(), x.end(), 0.0);
    int total_iters = 0;
    for (double g = opts.gmin_stepping_start; g >= opts.gmin; g /= 10.0) {
        iters = detail::newton_solve(nl, x, opts.newton, AnalysisMode::dc_op,
                                     Integrator::trapezoidal, time, 0.0, g, 1.0, ws);
        if (iters < 0) {
            gmin_ok = false;
            break;
        }
        total_iters += iters;
    }
    if (gmin_ok) {
        // Final polish at the target gmin.
        iters = detail::newton_solve(nl, x, opts.newton, AnalysisMode::dc_op,
                                     Integrator::trapezoidal, time, 0.0, opts.gmin,
                                     1.0, ws);
        if (iters > 0) {
            OperatingPoint op(nl, std::move(x));
            op.newton_iterations = total_iters + iters;
            op.used_gmin_stepping = true;
            return op;
        }
    }

    // Ladder 3: source stepping — ramp all independent sources from zero.
    std::fill(x.begin(), x.end(), 0.0);
    total_iters = 0;
    bool source_ok = true;
    for (int s = 1; s <= opts.source_steps; ++s) {
        const double scale = static_cast<double>(s) / opts.source_steps;
        iters = detail::newton_solve(nl, x, opts.newton, AnalysisMode::dc_op,
                                     Integrator::trapezoidal, time, 0.0, opts.gmin,
                                     scale, ws);
        if (iters < 0) {
            source_ok = false;
            break;
        }
        total_iters += iters;
    }
    if (source_ok) {
        OperatingPoint op(nl, std::move(x));
        op.newton_iterations = total_iters;
        op.used_source_stepping = true;
        return op;
    }

    throw NumericError("dc_operating_point: no convergence (plain NR, gmin "
                       "stepping and source stepping all failed)");
}

} // namespace

OperatingPoint dc_operating_point(const Netlist& nl, const DcOptions& opts,
                                  double time) {
    detail::NewtonWorkspace ws;
    return solve_operating_point(nl, opts, time, ws);
}

std::vector<double> dc_sweep(Netlist& nl, const std::string& source_name,
                             std::span<const double> levels,
                             const std::string& probe_node, const DcOptions& opts) {
    auto& src = nl.get<VoltageSource>(source_name);
    const NodeId probe = nl.find_node(probe_node);
    std::vector<double> out;
    out.reserve(levels.size());

    const std::size_t n = nl.assign_unknowns();
    std::vector<double> x(n, 0.0);
    detail::NewtonWorkspace ws;
    bool have_previous = false;
    for (const double level : levels) {
        src.set_waveform(DcWaveform(level));
        if (have_previous) {
            // Warm start from the previous point; fall back to the full
            // ladder when the fast path fails.
            const int iters = detail::newton_solve(
                nl, x, opts.newton, AnalysisMode::dc_op, Integrator::trapezoidal,
                0.0, 0.0, opts.gmin, 1.0, ws);
            if (iters > 0) {
                out.push_back(probe == kGround
                                  ? 0.0
                                  : x[static_cast<std::size_t>(probe) - 1]);
                continue;
            }
        }
        OperatingPoint op = solve_operating_point(nl, opts, 0.0, ws);
        x.assign(op.unknowns().begin(), op.unknowns().end());
        have_previous = true;
        out.push_back(op.voltage(probe));
    }
    return out;
}

} // namespace xysig::spice
