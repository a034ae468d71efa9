#ifndef XYSIG_KERNELS_COMPILED_MONITOR_BANK_H
#define XYSIG_KERNELS_COMPILED_MONITOR_BANK_H

/// \file compiled_monitor_bank.h
/// Devirtualised zoning kernel.
///
/// MonitorBank::code pays one virtual Boundary::h per monitor per sample;
/// the MOS monitors additionally merge a MosParams struct per leg per call
/// and evaluate gm/gds they never use. CompiledMonitorBank lowers each
/// boundary once, at construction:
///  * LinearBoundary  -> the (a, b, c) coefficient triple,
///  * MosCurrentBoundary -> four flat terms; DC-driven legs are
///    constant-folded to their precomputed drain current, X/Y-driven legs
///    lower to the id-only drain-current model with per-leg constants
///    (ispec, clm, beta, ...) hoisted out of the sample loop, and legs that
///    are identical across monitors — the paper's Table I shares its X and
///    Y input devices between rows — are deduplicated so each unique leg
///    current is evaluated once per sample for the whole bank;
///  * anything else   -> a cloned fallback boundary kept on the virtual path.
///
/// The unique legs split by their gate input: x-driven legs come first in
/// the leg table, y-driven legs after them. codes_into evaluates every
/// unique leg over the whole trace into one spp-long lane (lane-major),
/// then runs one comparator loop that reads the lanes. The x-driven lanes
/// can be supplied by the caller: x_leg_lanes(xs, mode) computes them
/// once, and every trace with those same xs bits — each member of a job
/// whose x is the stimulus itself — zones from them, evaluating only its
/// own y-driven legs. A leg current is a pure function of (leg, vgs, vds)
/// and the comparator sums keep their association, so lane-fed codes are
/// the same bits as codes computed from scratch. Linear and fallback
/// monitors walk the trace once each (bit-plane OR). Codes are
/// bit-identical to MonitorBank::code at every sample, whatever the mix of
/// compiled and fallback monitors.
///
/// Under SampleMode::fast_math the EKV legs are evaluated with the batched
/// vecmath softplus kernel over the whole lane instead of libm's
/// exp+log1p. Codes may then differ from the exact path for samples
/// sitting within the softplus tolerance of a zone boundary — the same
/// opt-in contract as fast_math sampling. The fast pass falls back to the
/// exact lanes (deterministically, from the trace alone) when a trace
/// excursion would push a softplus argument outside the vecmath domain, so
/// out-of-contract inputs never reach the kernel. On that fallback the x
/// lanes are recomputed exactly: lanes supplied for fast_math are never
/// mixed into an exact pass.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "monitor/monitor_bank.h"
#include "signal/sample_mode.h"
#include "spice/mosfet.h"

namespace xysig::kernels {

class CompiledMonitorBank {
public:
    CompiledMonitorBank() = default;

    /// Lowers every monitor of the bank. Never fails: non-compilable
    /// boundaries are cloned into the fallback list, so the compiled bank is
    /// self-contained and does not reference `bank` afterwards.
    [[nodiscard]] static CompiledMonitorBank compile(const monitor::MonitorBank& bank);

    CompiledMonitorBank(const CompiledMonitorBank& other);
    CompiledMonitorBank& operator=(const CompiledMonitorBank& other);
    CompiledMonitorBank(CompiledMonitorBank&&) noexcept = default;
    CompiledMonitorBank& operator=(CompiledMonitorBank&&) noexcept = default;

    /// Total monitors / how many were lowered / how many stayed virtual.
    [[nodiscard]] std::size_t size() const noexcept { return n_monitors_; }
    [[nodiscard]] std::size_t fallback_count() const noexcept {
        return fallback_.size();
    }
    [[nodiscard]] std::size_t compiled_count() const noexcept {
        return n_monitors_ - fallback_.size();
    }
    /// Deduplicated dynamic MOS legs evaluated per sample (tests pin the
    /// Table I sharing: 12 legs collapse to 6, 3 driven by x and 3 by y).
    [[nodiscard]] std::size_t unique_leg_count() const noexcept {
        return legs_.size();
    }
    [[nodiscard]] std::size_t x_leg_count() const noexcept { return n_x_legs_; }
    [[nodiscard]] std::size_t y_leg_count() const noexcept {
        return legs_.size() - n_x_legs_;
    }

    /// The x-driven unique-leg currents of a trace, lane-major: lane k
    /// (k < x_leg_count()) holds leg k's current at every sample, at
    /// [k * xs.size(), (k + 1) * xs.size()). Exact mode evaluates each
    /// value exactly as codes_into does; fast_math evaluates the EKV legs
    /// through the batched softplus kernel, unless xs leaves the vecmath
    /// domain, in which case every lane is exact. Pass the result back to
    /// codes_into with the same xs and mode.
    [[nodiscard]] std::vector<double> x_leg_lanes(std::span<const double> xs,
                                                  SampleMode mode) const;

    /// Zone code of every (x, y) sample; codes is resized to xs.size(). In
    /// exact mode (the default) bit-identical to calling MonitorBank::code
    /// per sample. fast_math batches the EKV softplus pairs through
    /// vecmath (see the file comment); linear and fallback monitors always
    /// take the exact path. x_lanes is either empty — the x-driven lanes
    /// are then computed into per-thread scratch — or x_leg_lanes(xs,
    /// mode) for these very xs; the codes are the same bits either way.
    /// The bank must be non-empty.
    void codes_into(std::span<const double> xs, std::span<const double> ys,
                    std::vector<unsigned>& codes,
                    SampleMode mode = SampleMode::exact,
                    std::span<const double> x_lanes = {}) const;

    /// Single-point code (spot checks / tests): codes_into on one sample.
    [[nodiscard]] unsigned code(double x, double y) const;

private:
    /// Which evaluator a deduplicated dynamic leg lowers to. The common
    /// paper case — nMOS with the positive drain bias the boundary
    /// constructor enforces — inlines the id-only model with its per-leg
    /// constants hoisted; anything else (pMOS, ...) calls spice::mos_id,
    /// which is still bit-identical, just not flat.
    enum class LegKind { ekv, level1, generic };

    struct MosLeg {
        bool x_input = true; ///< gate driven by x (else y)
        LegKind kind = LegKind::generic;
        double vds = 0.0; ///< drain bias shared by the flat evaluators
        // EKV coefficients: id = (ispec * (sf^2 - sr^2)) * clm.
        double vt0 = 0.0;
        double n_slope = 1.0;
        double ispec = 0.0;
        double clm = 1.0;
        // Level-1 extras: beta, 0.5*beta and (0.5*vds)*vds, hoisted with
        // the same association the model uses.
        double beta = 0.0;
        double half_beta = 0.0;
        double half_vds2 = 0.0;
        spice::MosParams params{}; ///< per-leg merged device (generic kind)
    };

    /// One of the four summed currents of a comparator: either a folded DC
    /// constant or a reference into the unique-leg table.
    struct MosTerm {
        bool is_constant = true;
        double constant = 0.0;
        std::uint32_t leg = 0;
    };

    struct LinearMonitor {
        unsigned mask; ///< bit of this monitor in the zone code
        double a, b, c;
    };

    struct MosMonitor {
        unsigned mask;
        std::array<MosTerm, 4> terms;
        double offset_current;
        double orientation;
    };

    struct FallbackMonitor {
        unsigned mask;
        std::unique_ptr<monitor::Boundary> boundary;
    };

    /// Drain current of one leg at gate voltage vgs (x or y, per
    /// leg.x_input).
    [[nodiscard]] static double leg_value(const MosLeg& leg, double vgs);
    /// True when the fast_math pass may evaluate the EKV legs driven by
    /// this input channel (x when x_input, else y): every sample finite
    /// and within kMaxZoneInput, and every softplus argument within the
    /// vecmath domain. Deterministic in the trace alone, so every process
    /// takes the same path for the same job.
    [[nodiscard]] bool fast_domain(const double* v, std::size_t n,
                                   bool x_input) const;
    /// Fills the lanes of legs [first, last), all driven by v, into out
    /// (lane-major, lane u - first at out + (u - first) * n); fast selects
    /// the batched softplus for EKV legs.
    void fill_lanes(std::size_t first, std::size_t last, const double* v,
                    std::size_t n, bool fast, double* out) const;

    std::size_t n_monitors_ = 0;
    std::size_t n_x_legs_ = 0; ///< legs_[0, n_x_legs_) are driven by x
    bool any_ekv_ = false;     ///< some leg takes the softplus batch
    std::vector<LinearMonitor> linear_;
    std::vector<MosLeg> legs_; ///< deduplicated dynamic legs, x-driven first
    std::vector<MosMonitor> mos_;
    std::vector<FallbackMonitor> fallback_;
};

} // namespace xysig::kernels

#endif // XYSIG_KERNELS_COMPILED_MONITOR_BANK_H
