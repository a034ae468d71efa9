#include "spice/transient.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.h"

namespace xysig::spice {

TransientResult::TransientResult(const Netlist& nl, bool fixed_step)
    : netlist_(&nl), fixed_step_(fixed_step) {}

void TransientResult::reset(const Netlist& nl, bool fixed_step) {
    netlist_ = &nl;
    fixed_step_ = fixed_step;
    time_.clear(); // rows_ keeps its storage; live length is time_.size()
    total_newton_iterations = 0;
    rejected_steps = 0;
    lu_factorisations_ = 0;
}

void TransientResult::append(double t, std::span<const double> x) {
    if (time_.size() < rows_.size())
        rows_[time_.size()].assign(x.begin(), x.end());
    else
        rows_.emplace_back(x.begin(), x.end());
    time_.push_back(t);
}

double TransientResult::voltage(NodeId node, std::size_t step) const {
    XYSIG_EXPECTS(step < time_.size());
    if (node == kGround)
        return 0.0;
    return rows_[step][static_cast<std::size_t>(node) - 1];
}

std::vector<double> TransientResult::voltage_trace(NodeId node) const {
    std::vector<double> out(time_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = voltage(node, i);
    return out;
}

std::vector<double> TransientResult::voltage_trace(const std::string& node) const {
    XYSIG_EXPECTS(netlist_ != nullptr); // default-constructed: run first
    return voltage_trace(netlist_->find_node(node));
}

double TransientResult::unknown(std::size_t index, std::size_t step) const {
    XYSIG_EXPECTS(step < time_.size());
    XYSIG_EXPECTS(index < rows_[step].size());
    return rows_[step][index];
}

SampledSignal TransientResult::sampled_voltage(NodeId node, double dt) const {
    XYSIG_EXPECTS(dt > 0.0);
    XYSIG_EXPECTS(time_.size() >= 2);
    const double t0 = time_.front();
    const double t1 = time_.back();
    const auto n = static_cast<std::size_t>(std::floor((t1 - t0) / dt));
    XYSIG_EXPECTS(n >= 2);
    std::vector<double> samples(n);
    std::size_t seg = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = t0 + static_cast<double>(i) * dt;
        while (seg + 2 < time_.size() && time_[seg + 1] <= t)
            ++seg;
        const double ta = time_[seg];
        const double tb = time_[seg + 1];
        const double va = voltage(node, seg);
        const double vb = voltage(node, seg + 1);
        const double frac = (tb > ta) ? (t - ta) / (tb - ta) : 0.0;
        samples[i] = va + frac * (vb - va);
    }
    return SampledSignal(t0, dt, std::move(samples));
}

SampledSignal TransientResult::sampled_voltage(const std::string& node,
                                               double dt) const {
    XYSIG_EXPECTS(netlist_ != nullptr); // default-constructed: run first
    return sampled_voltage(netlist_->find_node(node), dt);
}

SampledSignal TransientResult::signal(const std::string& node) const {
    XYSIG_EXPECTS(fixed_step_);
    XYSIG_EXPECTS(time_.size() >= 2);
    const double dt = time_[1] - time_[0];
    return SampledSignal(time_.front(), dt, voltage_trace(node));
}

namespace {

/// Snapshot of every device's reactive state into pooled buffers: the
/// adaptive engine calls this on every attempted step, so the outer vector
/// and each device's inner vector are reused across the whole run instead
/// of being reallocated per step (ROADMAP: adaptive-transient batching).
void save_all_states_into(const Netlist& nl,
                          std::vector<std::vector<double>>& states) {
    const auto devs = nl.devices();
    states.resize(devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i)
        devs[i]->save_state_into(states[i]);
}

void restore_all_states(const Netlist& nl,
                        const std::vector<std::vector<double>>& states) {
    const auto devs = nl.devices();
    XYSIG_ASSERT(states.size() == devs.size());
    for (std::size_t i = 0; i < devs.size(); ++i)
        devs[i]->restore_state(states[i]);
}

/// One converged implicit step from the current device states, through the
/// run's workspace. Returns Newton iterations, or -1 when not converged.
int advance(const Netlist& nl, std::vector<double>& x, const TransientOptions& opts,
            double t_new, double dt, Integrator integrator,
            detail::NewtonWorkspace& ws) {
    return detail::newton_solve(nl, x, opts.dc.newton, AnalysisMode::transient,
                                integrator, t_new, dt, opts.dc.gmin, 1.0, ws);
}

void accept(const Netlist& nl, std::span<const double> x, double t, double dt,
            Integrator integrator) {
    for (const auto& dev : nl.devices())
        dev->step_accepted(x, t, dt, integrator);
}

} // namespace

TransientResult run_transient(const Netlist& nl, const TransientOptions& opts) {
    TransientResult result;
    run_transient_into(nl, opts, result);
    return result;
}

void run_transient_into(const Netlist& nl, const TransientOptions& opts,
                        TransientResult& out) {
    XYSIG_EXPECTS(opts.t_stop > opts.t_start);
    XYSIG_EXPECTS(opts.dt > 0.0);

    const OperatingPoint op = dc_operating_point(nl, opts.dc, opts.t_start);
    for (const auto& dev : nl.devices())
        dev->begin_transient(op.unknowns());

    TransientResult& result = out;
    result.reset(nl, !opts.adaptive);
    result.append(opts.t_start, op.unknowns());

    std::vector<double> x(op.unknowns().begin(), op.unknowns().end());
    // One workspace for every step of the run: the Newton loop allocates
    // nothing after the first iteration, and a step whose matrix has the
    // bits of the last factorised one reuses its LU factors.
    detail::NewtonWorkspace ws;

    if (!opts.adaptive) {
        const auto steps = static_cast<std::size_t>(
            std::llround((opts.t_stop - opts.t_start) / opts.dt));
        XYSIG_EXPECTS(steps >= 1);
        for (std::size_t k = 1; k <= steps; ++k) {
            const double t_new = opts.t_start + static_cast<double>(k) * opts.dt;
            // First step with BE to damp the op-point discontinuity, then the
            // requested integrator.
            const Integrator integ =
                (k == 1) ? Integrator::backward_euler : opts.integrator;
            const int iters = advance(nl, x, opts, t_new, opts.dt, integ, ws);
            if (iters < 0)
                throw NumericError("run_transient: step did not converge at t = " +
                                   std::to_string(t_new));
            result.total_newton_iterations += iters;
            accept(nl, x, t_new, opts.dt, integ);
            result.append(t_new, x);
        }
        result.lu_factorisations_ = ws.factorisations;
        return;
    }

    // Adaptive: step doubling. Take one full step and two half steps from the
    // same state; accept the half-step solution when they agree within tol.
    //
    // `dt` is the step-size controller's (unclamped) step; each iteration
    // attempts h = min(dt, time remaining). Keeping the two separate matters
    // at the end of the run: the final attempt is clamped to the sliver of
    // time left, and a rejection there must not trip the dt_min underflow
    // abort — the controller's own step is still healthy, only the clamp
    // made the attempt tiny. A rejected clamped attempt still halves the
    // next attempt (progress stays guaranteed); once the retry is no longer
    // clamp-limited, the dt_min guard applies as usual.
    double t = opts.t_start;
    double dt = opts.dt;
    const double dt_max = (opts.dt_max > 0.0) ? opts.dt_max : 10.0 * opts.dt;
    bool first = true;
    const std::size_t n_node_vars = nl.node_count() - 1;
    // Termination epsilon relative to the span as well as the stop time:
    // with t_stop == 0 (runs ending at the time origin) a purely relative
    // 1e-15 * t_stop degenerates to an exact-equality bound that roundoff
    // in `t += h` may never satisfy.
    const double t_end_eps =
        1e-15 * std::max(std::abs(opts.t_stop), opts.t_stop - opts.t_start);

    // Snapshot / iterate buffers pooled across the whole run: the adaptive
    // loop used to allocate a state table and two solution vectors per
    // attempted step.
    std::vector<std::vector<double>> states;
    std::vector<double> x_full;
    std::vector<double> x_half;

    while (t < opts.t_stop - t_end_eps) {
        const double h = std::min(dt, opts.t_stop - t);
        const Integrator integ = first ? Integrator::backward_euler : opts.integrator;

        save_all_states_into(nl, states);
        x_full = x;
        const int it_full = advance(nl, x_full, opts, t + h, h, integ, ws);

        x_half = x;
        int it_half = -1;
        int it_half2 = -1;
        if (it_full >= 0) {
            it_half = advance(nl, x_half, opts, t + 0.5 * h, 0.5 * h, integ, ws);
            if (it_half >= 0) {
                accept(nl, x_half, t + 0.5 * h, 0.5 * h, integ);
                it_half2 = advance(nl, x_half, opts, t + h, 0.5 * h, integ, ws);
            }
        }

        double err = 0.0;
        if (it_full >= 0 && it_half2 >= 0) {
            for (std::size_t i = 0; i < n_node_vars; ++i)
                err = std::max(err, std::abs(x_full[i] - x_half[i]));
        } else {
            err = std::numeric_limits<double>::infinity();
        }

        if (err <= opts.lte_tol) {
            // Keep the more accurate half-step trajectory (device states are
            // already at t + h/2; advance them through the second half).
            accept(nl, x_half, t + h, 0.5 * h, integ);
            x = x_half;
            t += h;
            result.total_newton_iterations +=
                std::max(it_full, 0) + std::max(it_half, 0) + std::max(it_half2, 0);
            result.append(t, x);
            first = false;
            if (err < 0.25 * opts.lte_tol)
                dt = std::min(dt * 2.0, dt_max);
        } else {
            restore_all_states(nl, states);
            ++result.rejected_steps;
            const bool clamp_limited = h < dt;
            dt = 0.5 * h;
            if (!clamp_limited && dt < opts.dt_min)
                throw NumericError("run_transient: adaptive step underflow at t = " +
                                   std::to_string(t));
        }
    }
    result.lu_factorisations_ = ws.factorisations;
}

} // namespace xysig::spice
