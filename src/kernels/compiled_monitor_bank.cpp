#include "kernels/compiled_monitor_bank.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/math_util.h"
#include "kernels/vecmath.h"
#include "monitor/mos_boundary.h"

namespace xysig::kernels {

namespace {
/// Overflow guard for the fast-zoning trace scan: excursions beyond this
/// (or NaN) are physically meaningless for a comparator input and force
/// the exact path.
constexpr double kMaxZoneInput = 1e300;
} // namespace

CompiledMonitorBank CompiledMonitorBank::compile(const monitor::MonitorBank& bank) {
    CompiledMonitorBank out;
    const std::size_t n = bank.size();
    out.n_monitors_ = n;

    // Dedup key: the full leg description. Identical legs across monitors
    // (Table I rows 3-6 share their X and Y input devices) evaluate once
    // per sample; reusing the value is bit-identical because the drain
    // current is a pure function of (params, vgs, vds).
    const auto intern_leg = [&out](const MosLeg& leg) -> std::uint32_t {
        for (std::size_t i = 0; i < out.legs_.size(); ++i) {
            const MosLeg& have = out.legs_[i];
            if (have.x_input == leg.x_input && have.kind == leg.kind &&
                // xylint: exact-compare(leg dedup must be bit-exact or two monitors would alias onto one slightly-different leg)
                have.vds == leg.vds && have.params == leg.params)
                return static_cast<std::uint32_t>(i);
        }
        out.legs_.push_back(leg);
        return static_cast<std::uint32_t>(out.legs_.size() - 1);
    };

    for (std::size_t i = 0; i < n; ++i) {
        const monitor::Boundary& b = bank.monitor(i);
        // Monitor 0 is the MSB (paper Fig. 6 order), as in MonitorBank::code.
        const unsigned mask = 1u << (n - 1 - i);

        if (const auto* lin = dynamic_cast<const monitor::LinearBoundary*>(&b)) {
            out.linear_.push_back({mask, lin->a(), lin->b(), lin->c()});
            continue;
        }
        if (const auto* mos = dynamic_cast<const monitor::MosCurrentBoundary*>(&b)) {
            const monitor::MonitorConfig& cfg = mos->config();
            MosMonitor m;
            m.mask = mask;
            m.offset_current = cfg.offset_current;
            m.orientation = mos->orientation();
            for (std::size_t leg_i = 0; leg_i < 4; ++leg_i) {
                const monitor::MonitorLeg& l = cfg.legs[leg_i];
                // Same per-leg merge MonitorConfig::leg_current performs on
                // every call, hoisted to compile time.
                spice::MosParams p = cfg.device;
                p.w = l.width;
                p.vt0 = cfg.device.vt0 + l.vt0_delta;
                p.kp = cfg.device.kp * l.kp_scale;

                MosTerm& term = m.terms[leg_i];
                if (l.input == monitor::MonitorInput::dc) {
                    term.is_constant = true;
                    term.constant = spice::mos_id(p, l.dc_level, cfg.vds_eval);
                    continue;
                }
                MosLeg leg;
                leg.x_input = l.input == monitor::MonitorInput::x_axis;
                leg.vds = cfg.vds_eval;
                leg.params = p;
                if (p.type == spice::MosType::nmos && cfg.vds_eval > 0.0) {
                    // Hoist the per-leg constants of the id-only model,
                    // using exactly the expressions (and association) the
                    // model evaluates per call, so the flat form stays
                    // bit-identical.
                    leg.vt0 = p.vt0;
                    leg.clm = 1.0 + p.lambda * cfg.vds_eval;
                    if (p.model == spice::MosModel::ekv) {
                        leg.kind = LegKind::ekv;
                        leg.n_slope = p.n_slope;
                        leg.ispec = 2.0 * p.n_slope * p.kp * p.aspect_ratio() *
                                    kThermalVoltage300K * kThermalVoltage300K;
                    } else {
                        leg.kind = LegKind::level1;
                        leg.beta = p.kp * p.aspect_ratio();
                        leg.half_beta = 0.5 * leg.beta;
                        leg.half_vds2 = 0.5 * cfg.vds_eval * cfg.vds_eval;
                    }
                } else {
                    leg.kind = LegKind::generic;
                }
                term.is_constant = false;
                term.leg = intern_leg(leg);
            }
            out.mos_.push_back(m);
            continue;
        }
        out.fallback_.push_back({mask, b.clone()});
    }

    // x-driven legs first, so the x lanes (which a caller may supply) and
    // the y lanes are two contiguous blocks of the lane table. Stable, so
    // the order within each block is first-use order.
    std::vector<std::uint32_t> remap(out.legs_.size());
    std::vector<MosLeg> ordered;
    ordered.reserve(out.legs_.size());
    for (const bool x_block : {true, false}) {
        for (std::size_t u = 0; u < out.legs_.size(); ++u) {
            if (out.legs_[u].x_input != x_block)
                continue;
            remap[u] = static_cast<std::uint32_t>(ordered.size());
            ordered.push_back(out.legs_[u]);
        }
        if (x_block)
            out.n_x_legs_ = ordered.size();
    }
    out.legs_ = std::move(ordered);
    for (MosMonitor& m : out.mos_)
        for (MosTerm& t : m.terms)
            if (!t.is_constant)
                t.leg = remap[t.leg];
    for (const MosLeg& leg : out.legs_)
        out.any_ekv_ = out.any_ekv_ || leg.kind == LegKind::ekv;
    return out;
}

CompiledMonitorBank::CompiledMonitorBank(const CompiledMonitorBank& other)
    : n_monitors_(other.n_monitors_), n_x_legs_(other.n_x_legs_),
      any_ekv_(other.any_ekv_), linear_(other.linear_), legs_(other.legs_),
      mos_(other.mos_) {
    fallback_.reserve(other.fallback_.size());
    for (const FallbackMonitor& f : other.fallback_)
        fallback_.push_back({f.mask, f.boundary->clone()});
}

CompiledMonitorBank& CompiledMonitorBank::operator=(const CompiledMonitorBank& other) {
    if (this != &other) {
        CompiledMonitorBank tmp(other);
        *this = std::move(tmp);
    }
    return *this;
}

double CompiledMonitorBank::leg_value(const MosLeg& leg, double vgs) {
    switch (leg.kind) {
    case LegKind::ekv: {
        // Same expressions (and rounding) as the id-only EKV model, with
        // the vp normalisation constants already in registers. SYNC
        // CONTRACT: third copy of the drain-current arithmetic — see the
        // note above ekv_id_nmos in spice/mosfet.cpp.
        const double vp = (vgs - leg.vt0) / leg.n_slope;
        const double sf = softplus(0.5 * (vp / kThermalVoltage300K));
        const double sr =
            softplus(0.5 * ((vp - leg.vds) / kThermalVoltage300K));
        return (leg.ispec * (sf * sf - sr * sr)) * leg.clm;
    }
    case LegKind::level1: {
        const double vov = vgs - leg.vt0;
        if (vov <= 0.0)
            return 0.0;
        if (leg.vds < vov)
            return leg.beta * (vov * leg.vds - leg.half_vds2) * leg.clm;
        return ((leg.half_beta * vov) * vov) * leg.clm;
    }
    case LegKind::generic:
        return spice::mos_id(leg.params, vgs, leg.vds);
    }
    return 0.0; // unreachable
}

bool CompiledMonitorBank::fast_domain(const double* v, std::size_t n,
                                      bool x_input) const {
    // One pass over the trace: the softplus arguments are bounded by the
    // peak |vgs|, so a single max-excursion scan (NaN-rejecting: the
    // negated comparison is false for NaN) proves the whole batch stays
    // inside the vecmath domain.
    double max_v = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double a = std::fabs(v[i]);
        if (!(a <= kMaxZoneInput))
            return false;
        max_v = a > max_v ? a : max_v;
    }
    for (const MosLeg& leg : legs_) {
        if (leg.kind != LegKind::ekv || leg.x_input != x_input)
            continue;
        const double vp_max =
            (max_v + std::fabs(leg.vt0)) / std::fabs(leg.n_slope);
        const double arg_bound =
            0.5 * ((vp_max + std::fabs(leg.vds)) / kThermalVoltage300K);
        if (!(arg_bound <= vecmath::kMaxExpArgument))
            return false;
    }
    return true;
}

void CompiledMonitorBank::fill_lanes(std::size_t first, std::size_t last,
                                     const double* v, std::size_t n,
                                     bool fast, double* out) const {
    // Per-thread scratch for the packed (forward | reverse) softplus
    // argument pair of an EKV leg.
    thread_local std::vector<double> args;
    thread_local std::vector<double> sp;
    for (std::size_t u = first; u < last; ++u) {
        const MosLeg& leg = legs_[u];
        double* const lane = out + (u - first) * n;
        if (!fast || leg.kind != LegKind::ekv) {
            for (std::size_t i = 0; i < n; ++i)
                lane[i] = leg_value(leg, v[i]);
            continue;
        }
        // Same argument expressions (and association) as leg_value's EKV
        // case; only the softplus evaluation changes.
        args.resize(2 * n);
        sp.resize(2 * n);
        for (std::size_t i = 0; i < n; ++i) {
            const double vp = (v[i] - leg.vt0) / leg.n_slope;
            args[i] = 0.5 * (vp / kThermalVoltage300K);
            args[n + i] = 0.5 * ((vp - leg.vds) / kThermalVoltage300K);
        }
        vecmath::softplus_batch(args.data(), sp.data(), 2 * n);
        for (std::size_t i = 0; i < n; ++i) {
            const double sf = sp[i];
            const double sr = sp[n + i];
            lane[i] = (leg.ispec * (sf * sf - sr * sr)) * leg.clm;
        }
    }
}

std::vector<double> CompiledMonitorBank::x_leg_lanes(std::span<const double> xs,
                                                     SampleMode mode) const {
    const std::size_t n = xs.size();
    // The x half of codes_into's domain check: when codes_into takes the
    // fast pass, this check passed too, so the lanes it reads are fast.
    const bool fast =
        mode == SampleMode::fast_math && fast_domain(xs.data(), n, true);
    std::vector<double> lanes(n_x_legs_ * n);
    fill_lanes(0, n_x_legs_, xs.data(), n, fast, lanes.data());
    return lanes;
}

void CompiledMonitorBank::codes_into(std::span<const double> xs,
                                     std::span<const double> ys,
                                     std::vector<unsigned>& codes,
                                     SampleMode mode,
                                     std::span<const double> x_lanes) const {
    XYSIG_EXPECTS(xs.size() == ys.size());
    XYSIG_EXPECTS(n_monitors_ > 0);
    const std::size_t n = xs.size();
    XYSIG_EXPECTS(x_lanes.empty() || x_lanes.size() == n_x_legs_ * n);
    codes.assign(n, 0u);
    unsigned* const out = codes.data();
    const double* const px = xs.data();
    const double* const py = ys.data();

    for (const LinearMonitor& m : linear_) {
        const double a = m.a;
        const double b = m.b;
        const double c = m.c;
        const unsigned mask = m.mask;
#pragma omp simd
        for (std::size_t i = 0; i < n; ++i)
            out[i] |= (a * px[i] + b * py[i] + c > 0.0) ? mask : 0u;
    }

    if (!mos_.empty()) {
        const bool fast = mode == SampleMode::fast_math && any_ekv_ &&
                          fast_domain(px, n, true) && fast_domain(py, n, false);
        // Lanes supplied for fast_math hold fast x currents; the exact
        // fallback recomputes exact ones rather than mixing modes.
        const bool supplied =
            !x_lanes.empty() && (mode == SampleMode::exact || fast);
        const std::size_t n_legs = legs_.size();
        const std::size_t x_values = supplied ? 0 : n_x_legs_ * n;
        thread_local std::vector<double> values;
        values.resize(x_values + (n_legs - n_x_legs_) * n);
        double* const y_base = values.data() + x_values;
        if (!supplied)
            fill_lanes(0, n_x_legs_, px, n, fast, values.data());
        fill_lanes(n_x_legs_, n_legs, py, n, fast, y_base);

        thread_local std::vector<const double*> lanes;
        lanes.resize(n_legs);
        const double* const x_base = supplied ? x_lanes.data() : values.data();
        for (std::size_t u = 0; u < n_legs; ++u)
            lanes[u] = u < n_x_legs_ ? x_base + u * n
                                     : y_base + (u - n_x_legs_) * n;

        // The one comparator loop: every unique leg current is read from
        // its lane. Same association as MosCurrentBoundary::
        // current_difference: (((I1 + I2) - I3) - I4) + offset, then the
        // orientation sign.
        const double* const* const lane = lanes.data();
        for (std::size_t i = 0; i < n; ++i) {
            unsigned bits = 0;
            for (const MosMonitor& m : mos_) {
                const auto term = [&](const MosTerm& t) {
                    return t.is_constant ? t.constant : lane[t.leg][i];
                };
                const double diff = term(m.terms[0]) + term(m.terms[1]) -
                                    term(m.terms[2]) - term(m.terms[3]) +
                                    m.offset_current;
                bits |= (m.orientation * diff > 0.0) ? m.mask : 0u;
            }
            out[i] |= bits;
        }
    }

    for (const FallbackMonitor& f : fallback_) {
        const monitor::Boundary& b = *f.boundary;
        const unsigned mask = f.mask;
        for (std::size_t i = 0; i < n; ++i)
            out[i] |= b.side(px[i], py[i]) ? mask : 0u;
    }
}

unsigned CompiledMonitorBank::code(double x, double y) const {
    std::vector<unsigned> codes;
    codes_into(std::span<const double>(&x, 1), std::span<const double>(&y, 1),
               codes);
    return codes[0];
}

} // namespace xysig::kernels
