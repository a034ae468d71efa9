#ifndef XYSIG_SPICE_DC_H
#define XYSIG_SPICE_DC_H

/// \file dc.h
/// Nonlinear DC solution: damped Newton-Raphson with gmin stepping and
/// source stepping fallbacks (the standard SPICE convergence ladder).

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "spice/netlist.h"
#include "spice/types.h"

namespace xysig::spice {

/// A solved operating point. Holds the full unknown vector; node voltages
/// are looked up through the originating netlist's node ids.
class OperatingPoint {
public:
    OperatingPoint(const Netlist& nl, std::vector<double> x);

    [[nodiscard]] double voltage(NodeId node) const;
    [[nodiscard]] double voltage(const std::string& node_name) const;
    [[nodiscard]] std::span<const double> unknowns() const noexcept { return x_; }

    /// Diagnostics filled in by dc_operating_point().
    int newton_iterations = 0;
    bool used_gmin_stepping = false;
    bool used_source_stepping = false;

private:
    const Netlist* netlist_;
    std::vector<double> x_;
};

/// Solves the DC operating point with sources evaluated at the given time.
/// Throws NumericError when all convergence aids fail.
[[nodiscard]] OperatingPoint dc_operating_point(const Netlist& nl,
                                                const DcOptions& opts = {},
                                                double time = 0.0);

/// DC transfer sweep: sets the named VoltageSource to each level in turn
/// (warm-starting Newton from the previous solution) and records the voltage
/// of the probe node.
[[nodiscard]] std::vector<double> dc_sweep(Netlist& nl, const std::string& source_name,
                                           std::span<const double> levels,
                                           const std::string& probe_node,
                                           const DcOptions& opts = {});

namespace detail {

/// Buffers one Newton solve reuses across its iterations, and a caller
/// reuses across solves: the stamped MNA system, the next iterate, and the
/// LU factors of the last matrix factorised. After the first iteration at a
/// given size nothing is allocated.
///
/// When a newly stamped matrix (gmin diagonal included) has exactly the
/// bits of `factored`, the held factors are reused and only the O(n^2)
/// solve runs. Equal bits give equal factors and equal solutions, so this
/// is exact for any circuit. On a nonlinear circuit it matches only while
/// no device's linearisation moves (a level-1 MOSFET in cut-off); a linear
/// circuit at a fixed transient step factorises once per distinct step
/// matrix.
///
/// One workspace serves one thread at a time; reuse across netlists of any
/// size is safe (the bit comparison covers the shape).
struct NewtonWorkspace {
    Matrix<double> a;              ///< MNA matrix being stamped
    std::vector<double> b;         ///< MNA right-hand side
    std::vector<double> x_new;     ///< undamped next iterate
    Matrix<double> factored;       ///< the matrix `lu` holds factors of
    LuSolver<double> lu;           ///< no factors after a singular pivot
    std::uint64_t factorisations = 0; ///< LU factorisations attempted
};

/// One damped-Newton solve at fixed gmin / source_scale; x is the initial
/// guess on entry and the solution on success (x.size() unknowns, from
/// Netlist::assign_unknowns()). Returns iterations used, or -1 when not
/// converged (including singular-matrix failures).
int newton_solve(const Netlist& nl, std::vector<double>& x, const NewtonOptions& opts,
                 AnalysisMode mode, Integrator integrator, double time, double dt,
                 double gmin, double source_scale, NewtonWorkspace& ws);

} // namespace detail

} // namespace xysig::spice

#endif // XYSIG_SPICE_DC_H
