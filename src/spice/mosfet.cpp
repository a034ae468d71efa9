#include "spice/mosfet.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_util.h"

namespace xysig::spice {

namespace {

/// EKV normalised current F(u) = ln^2(1 + exp(u/2)) and its derivative
/// F'(u) = ln(1+exp(u/2)) * logistic(u/2).
struct FEval {
    double f;
    double df;
};

FEval ekv_f(double u) noexcept {
    const double sp = softplus(0.5 * u);
    return {sp * sp, sp * logistic(0.5 * u)};
}

/// nMOS-referenced EKV evaluation; vgs/vds in the nMOS sense.
///
/// The model is source-referenced (vp = (VGS-VT0)/n), so exact drain/source
/// antisymmetry is restored by an explicit terminal swap for vds < 0:
/// id(vgs, vds) = -id(vgs - vds, -vds). At vds = 0 both branches give id = 0
/// with matching gm, so Newton never sees a discontinuity at the crossover.
MosEval ekv_nmos(const MosParams& p, double vgs, double vds) {
    if (vds < 0.0) {
        const MosEval sw = ekv_nmos(p, vgs - vds, -vds);
        MosEval e;
        e.id = -sw.id;
        // id(vgs,vds) = -id_sw(vgs - vds, -vds):
        // d/dvgs = -gm_sw ; d/dvds = gm_sw + gds_sw.
        e.gm = -sw.gm;
        e.gds = sw.gm + sw.gds;
        return e;
    }
    const double phi_t = kThermalVoltage300K;
    const double n = p.n_slope;
    const double vp = (vgs - p.vt0) / n;
    const double ispec = 2.0 * n * p.kp * p.aspect_ratio() * phi_t * phi_t;

    const FEval ff = ekv_f(vp / phi_t);
    const FEval fr = ekv_f((vp - vds) / phi_t);

    const double id0 = ispec * (ff.f - fr.f);
    const double clm = 1.0 + p.lambda * vds;

    MosEval e;
    e.id = id0 * clm;
    e.gm = ispec * (ff.df - fr.df) / (n * phi_t) * clm;
    e.gds = ispec * fr.df / phi_t * clm + id0 * p.lambda;
    return e;
}

/// Classic Shichman-Hodges level-1; piecewise, zero below threshold.
/// Handles vds < 0 by the source/drain swap symmetry.
MosEval level1_nmos(const MosParams& p, double vgs, double vds) {
    if (vds < 0.0) {
        // Swap roles: terminal currents negate, gate referenced to the new
        // source (the original drain).
        const MosEval sw = level1_nmos(p, vgs - vds, -vds);
        MosEval e;
        e.id = -sw.id;
        // id(vgs,vds) = -id_sw(vgs-vds, -vds):
        // d/dvgs = -gm_sw ; d/dvds = -(gm_sw*(-1) + gds_sw*(-1)) = gm_sw+gds_sw
        e.gm = -sw.gm;
        e.gds = sw.gm + sw.gds;
        return e;
    }
    const double vov = vgs - p.vt0;
    const double beta = p.kp * p.aspect_ratio();
    MosEval e;
    if (vov <= 0.0)
        return e; // cut-off: ideal level-1 carries no current
    const double clm = 1.0 + p.lambda * vds;
    if (vds < vov) { // triode
        e.id = beta * (vov * vds - 0.5 * vds * vds) * clm;
        e.gm = beta * vds * clm;
        e.gds = beta * (vov - vds) * clm + beta * (vov * vds - 0.5 * vds * vds) * p.lambda;
    } else { // saturation
        e.id = 0.5 * beta * vov * vov * clm;
        e.gm = beta * vov * clm;
        e.gds = 0.5 * beta * vov * vov * p.lambda;
    }
    return e;
}

/// id-only twin of ekv_nmos: the same expressions in the same order minus
/// the gm/gds terms, so the result is bit-identical while evaluating one
/// softplus per ekv_f instead of a softplus + logistic pair.
///
/// SYNC CONTRACT: the drain-current arithmetic exists in three places that
/// must stay bitwise-aligned — ekv_nmos/level1_nmos above, these id-only
/// twins, and the hoisted-constant form in
/// kernels::CompiledMonitorBank::leg_value. Any model change must be
/// replicated with identical association in all three;
/// the tests/kernels suite pins the equality over a dense
/// (model x type x bias) grid and fails on any drift.
double ekv_id_nmos(const MosParams& p, double vgs, double vds) {
    if (vds < 0.0)
        return -ekv_id_nmos(p, vgs - vds, -vds);
    const double phi_t = kThermalVoltage300K;
    const double n = p.n_slope;
    const double vp = (vgs - p.vt0) / n;
    const double ispec = 2.0 * n * p.kp * p.aspect_ratio() * phi_t * phi_t;
    const double sf = softplus(0.5 * (vp / phi_t));
    const double sr = softplus(0.5 * ((vp - vds) / phi_t));
    const double id0 = ispec * (sf * sf - sr * sr);
    return id0 * (1.0 + p.lambda * vds);
}

/// id-only twin of level1_nmos (same expressions, same order).
double level1_id_nmos(const MosParams& p, double vgs, double vds) {
    if (vds < 0.0)
        return -level1_id_nmos(p, vgs - vds, -vds);
    const double vov = vgs - p.vt0;
    const double beta = p.kp * p.aspect_ratio();
    if (vov <= 0.0)
        return 0.0;
    const double clm = 1.0 + p.lambda * vds;
    if (vds < vov)
        return beta * (vov * vds - 0.5 * vds * vds) * clm;
    return 0.5 * beta * vov * vov * clm;
}

} // namespace

MosEval mos_evaluate(const MosParams& p, double vgs, double vds) {
    XYSIG_EXPECTS(p.w > 0.0 && p.l > 0.0);
    XYSIG_EXPECTS(p.kp > 0.0 && p.n_slope >= 1.0 && p.lambda >= 0.0);

    const auto eval_n = (p.model == MosModel::ekv) ? ekv_nmos : level1_nmos;
    if (p.type == MosType::nmos)
        return eval_n(p, vgs, vds);

    // pMOS: mirror voltages into the nMOS frame (vsg, vsd) and negate the
    // terminal current. id_p(vgs,vds) = -id_n(-vgs,-vds) gives
    // d/dvgs = +gm_n, d/dvds = +gds_n evaluated at the mirrored point.
    const MosEval n = eval_n(p, -vgs, -vds);
    MosEval e;
    e.id = -n.id;
    e.gm = n.gm;
    e.gds = n.gds;
    return e;
}

double mos_id(const MosParams& p, double vgs, double vds) {
    XYSIG_EXPECTS(p.w > 0.0 && p.l > 0.0);
    XYSIG_EXPECTS(p.kp > 0.0 && p.n_slope >= 1.0 && p.lambda >= 0.0);

    const auto id_n = (p.model == MosModel::ekv) ? ekv_id_nmos : level1_id_nmos;
    if (p.type == MosType::nmos)
        return id_n(p, vgs, vds);
    return -id_n(p, -vgs, -vds);
}

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               MosParams params)
    : Device(std::move(name), {drain, gate, source}), params_(params) {}

void Mosfet::stamp(StampContext& ctx) const {
    const NodeId d = nodes()[0];
    const NodeId g = nodes()[1];
    const NodeId s = nodes()[2];
    const double vgs = ctx.v(g) - ctx.v(s);
    const double vds = ctx.v(d) - ctx.v(s);
    const MosEval e = mos_evaluate(params_, vgs, vds);

    // Linearised drain current: id = gds*vds + gm*vgs + ieq,
    // flowing d -> s through the device.
    const double ieq = e.id - e.gm * vgs - e.gds * vds;
    ctx.mna->conductance(d, s, e.gds);
    ctx.mna->transconductance(d, s, g, s, e.gm);
    ctx.mna->current_into(d, -ieq);
    ctx.mna->current_into(s, ieq);
}

void Mosfet::stamp_ac(AcStampContext& ctx) const {
    const NodeId d = nodes()[0];
    const NodeId g = nodes()[1];
    const NodeId s = nodes()[2];
    const double vgs = ctx.op_v(g) - ctx.op_v(s);
    const double vds = ctx.op_v(d) - ctx.op_v(s);
    const MosEval e = mos_evaluate(params_, vgs, vds);
    ctx.mna->conductance(d, s, {e.gds, 0.0});
    ctx.mna->transconductance(d, s, g, s, {e.gm, 0.0});
}

double Mosfet::drain_current(std::span<const double> x) const {
    const double vgs = node_v(x, 1) - node_v(x, 2);
    const double vds = node_v(x, 0) - node_v(x, 2);
    return mos_evaluate(params_, vgs, vds).id;
}

} // namespace xysig::spice
