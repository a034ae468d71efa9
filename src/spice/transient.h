#ifndef XYSIG_SPICE_TRANSIENT_H
#define XYSIG_SPICE_TRANSIENT_H

/// \file transient.h
/// Time-domain analysis: fixed-step trapezoidal/backward-Euler integration
/// with an optional step-doubling adaptive mode (Richardson local error
/// estimate on the node voltages).

#include <cstdint>
#include <vector>

#include "signal/sampled.h"
#include "spice/dc.h"
#include "spice/netlist.h"
#include "spice/types.h"

namespace xysig::spice {

/// Stored trajectory of every unknown at every accepted time point.
///
/// A TransientResult can be reused across runs via run_transient_into():
/// reset() rewinds the logical length while keeping the row storage, so a
/// driver that simulates thousands of circuits (the batch fault-universe
/// engine) stops reallocating one vector per time point per run.
class TransientResult {
public:
    /// Empty result awaiting run_transient_into(); any accessor that needs
    /// stored steps requires a run first.
    TransientResult() = default;

    TransientResult(const Netlist& nl, bool fixed_step);

    /// Rebinds to a netlist and rewinds to zero stored steps. Row buffers
    /// are kept and overwritten in place by subsequent append() calls.
    void reset(const Netlist& nl, bool fixed_step);

    [[nodiscard]] std::span<const double> time() const noexcept { return time_; }
    [[nodiscard]] std::size_t step_count() const noexcept { return time_.size(); }

    /// Voltage of a node at a stored step index.
    [[nodiscard]] double voltage(NodeId node, std::size_t step) const;

    /// Full voltage trajectory of one node.
    [[nodiscard]] std::vector<double> voltage_trace(NodeId node) const;
    [[nodiscard]] std::vector<double> voltage_trace(const std::string& node) const;

    /// Value of a raw unknown (e.g. a source branch current) at a step.
    [[nodiscard]] double unknown(std::size_t index, std::size_t step) const;

    /// Uniformly resampled node voltage (linear interpolation); works for
    /// both fixed and adaptive runs. t range is [t_first, t_last).
    [[nodiscard]] SampledSignal sampled_voltage(NodeId node, double dt) const;
    [[nodiscard]] SampledSignal sampled_voltage(const std::string& node,
                                                double dt) const;

    /// Fixed-step runs only: zero-copy-ish view as a SampledSignal with the
    /// run's own dt.
    [[nodiscard]] SampledSignal signal(const std::string& node) const;

    /// Total Newton iterations over the whole run (engine benchmark metric).
    int total_newton_iterations = 0;
    /// Steps rejected by the adaptive error control.
    int rejected_steps = 0;

    /// LU factorisations over the run's time steps (the initial operating
    /// point not included). Newton iterations whose stamped matrix had the
    /// bits of the last factorised one reused its factors instead, so a
    /// linear circuit at a fixed step factorises once per distinct step
    /// matrix (backward Euler first, then the requested integrator).
    [[nodiscard]] std::uint64_t lu_factorisations() const noexcept {
        return lu_factorisations_;
    }

    /// Called by the engine only.
    void append(double t, std::span<const double> x);

private:
    friend void run_transient_into(const Netlist& nl, const TransientOptions& opts,
                                   TransientResult& out);

    const Netlist* netlist_ = nullptr;
    bool fixed_step_ = false;
    std::uint64_t lu_factorisations_ = 0;
    std::vector<double> time_;
    /// Row storage; only the first time_.size() rows are live — reset()
    /// keeps the rest as capacity for the next run.
    std::vector<std::vector<double>> rows_;
};

/// Runs a transient analysis. The initial condition is the DC operating
/// point with sources evaluated at t_start. Throws NumericError when a step
/// fails to converge (fixed) or dt_min is reached (adaptive).
[[nodiscard]] TransientResult run_transient(const Netlist& nl,
                                            const TransientOptions& opts);

/// Buffer-reusing variant: resets `out` and runs the analysis into it,
/// reusing its row storage from previous runs. Numerically identical to
/// run_transient (same code path). The netlist's device state is mutated
/// during the run, so one netlist must never be simulated from two threads
/// at once — clone it per worker (Netlist::clone()).
void run_transient_into(const Netlist& nl, const TransientOptions& opts,
                        TransientResult& out);

} // namespace xysig::spice

#endif // XYSIG_SPICE_TRANSIENT_H
