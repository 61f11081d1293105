"""Monitored norms, energy budgets, and inequality-ratio diagnostics.

L^2-type quantities are evaluated spectrally (Parseval); L^p for p != 2
and sup norms are evaluated on the physical grid refined by
`spectral.OVERSAMPLE`, because the collocation max of a band-limited field
underestimates its true sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import spectral as sp
from .spectral import TWO_PI, NonFiniteFieldError, SpectralField


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One time sample of every monitored norm and budget term."""

    t: float
    energy_u: float
    energy_b: float
    X: float
    diss_u: float
    diff_b: float
    hbeta_b: float
    h2beta_b: float
    lp2_w: float
    lp4_w: float
    lp8_w: float
    linf_w: float
    linf_grad_u: float
    int_diss_u: float
    int_diff_b: float
    int_hbeta_j: float

    def as_row(self):
        return tuple(getattr(self, name) for name in RECORD_COLUMNS)


RECORD_COLUMNS = tuple(f.name for f in dc_fields(DiagnosticsRecord))


def _curl_sobolev_sq(F: SpectralField, s: float) -> float:
    """||Lambda^s v||_{L^2}^2 for the divergence-free v with curl v = F.

    On the lattice ||Lambda^s v|| = ||Lambda^(s-1) curl v|| exactly, so the
    weight is |xi|^(2s-2) on the curl coefficients.
    """
    g = F.grid
    return sp.weighted_l2_norm_sq(F, sp.symbol_power(g, s - 1.0))


def budget_integrand(state, config):
    """(||Lambda^alpha u||^2, ||Lambda^beta b||^2, ||Lambda^beta j||^2),
    the three dissipation rates accumulated in time by the run loop."""
    diss_u = _curl_sobolev_sq(state.w, config.alpha)
    diff_b = _curl_sobolev_sq(state.j, config.beta)
    hbeta_j = sp.weighted_l2_norm_sq(state.j, sp.symbol_power(state.j.grid, config.beta))
    return diss_u, diff_b, hbeta_j


def compute_record(state, config, integrals=(0.0, 0.0, 0.0)) -> DiagnosticsRecord:
    """All monitored norms of one state; `integrals` carries the cumulative
    time integrals maintained by the run loop."""
    w, j = state.w, state.j
    g = w.grid
    energy_u = sp.weighted_l2_norm_sq(w, g.inv_ksq)
    energy_b = sp.weighted_l2_norm_sq(j, g.inv_ksq)
    lp2_w_sq = sp.l2_norm_sq(w)
    x_val = lp2_w_sq + sp.l2_norm_sq(j)
    diss_u, diff_b, hbeta_j = budget_integrand(state, config)
    h2beta_b = _curl_sobolev_sq(j, 2.0 * config.beta)

    # The power sums are those of `sp.lp_of_samples`, so lp4_w and lp8_w
    # equal `sp.lp_norm` bit for bit.  np.maximum keeps a NaN for the
    # check below.
    top_w = top_grad_sq = 0.0
    sum4 = sum8 = 0.0
    count = 0
    for v, grad_sq in sp.vorticity_gradient_rows(w):
        top_w = np.maximum(top_w, np.abs(v, out=v).max())
        top_grad_sq = np.maximum(top_grad_sq, grad_sq.max())
        sum4 += sp.power_sum(v, 4)
        sum8 += sp.power_sum(v, 2)  # v holds |w|^4
        count += v.size
    lp4_w = sp.lp_of_power_mean(sum4 / count, 4)
    lp8_w = sp.lp_of_power_mean(sum8 / count, 8)

    rec = DiagnosticsRecord(
        t=float(state.t),
        energy_u=energy_u,
        energy_b=energy_b,
        X=x_val,
        diss_u=diss_u,
        diff_b=diff_b,
        hbeta_b=diff_b,
        h2beta_b=h2beta_b,
        lp2_w=math.sqrt(lp2_w_sq),
        lp4_w=lp4_w,
        lp8_w=lp8_w,
        linf_w=float(top_w),
        linf_grad_u=float(np.sqrt(top_grad_sq)),
        int_diss_u=float(integrals[0]),
        int_diff_b=float(integrals[1]),
        int_hbeta_j=float(integrals[2]),
    )
    values = rec.as_row()
    if not all(math.isfinite(v) for v in values) or any(v < 0 for v in values[1:]):
        raise NonFiniteFieldError(f"diagnostics blew up at t={state.t}")
    return rec


def energy_budget_residual(records, config) -> float:
    """Max over samples of |E(t) + 2 nu int||Lambda^a u||^2 +
    2 eta int||Lambda^b b||^2 - E(0)| / E(0)."""
    if len(records) < 2:
        raise ValueError("need at least two records to evaluate the budget")
    e0 = records[0].energy_u + records[0].energy_b
    if e0 == 0.0:
        raise ValueError("zero initial energy: the relative budget residual is undefined")
    worst = 0.0
    for r in records:
        e = r.energy_u + r.energy_b
        resid = abs(e + 2.0 * config.nu * r.int_diss_u + 2.0 * config.eta * r.int_diff_b - e0)
        worst = max(worst, resid)
    return worst / e0


# --- inequality ratios -------------------------------------------------------


def gn_ratio(f: SpectralField, beta: float) -> float:
    """||f||_inf / (||f||_2^((beta-1)/beta) ||Lambda^beta f||_2^(1/beta)),
    the sup-norm interpolation ratio; requires beta > 1, zero-mean f."""
    if beta <= 1.0:
        raise ValueError(f"interpolation exponent must exceed 1, got beta={beta}")
    l2 = sp.l2_norm(f)
    if l2 == 0.0:
        raise ValueError("zero input")
    if not f.is_zero_mean():
        raise sp.MeanModeError("ratio requires a zero-mean field")
    linf = sp.lp_norm(f, np.inf)
    hbeta = math.sqrt(sp.weighted_l2_norm_sq(f, sp.symbol_power(f.grid, beta)))
    return linf / (l2 ** ((beta - 1.0) / beta) * hbeta ** (1.0 / beta))


def commutator_ratio(f: SpectralField, g: SpectralField, s: float, exponents) -> float:
    """||Lambda^s(fg) - f Lambda^s g||_p over the product bound
    ||grad f||_p1 ||Lambda^(s-1) g||_p2 + ||Lambda^s f||_p3 ||g||_p4.

    `exponents` is (p1, p2, p3, p4) with 1/p1 + 1/p2 == 1/p3 + 1/p4
    defining p by Hoelder; implemented exponents come from {2, 4, inf}.
    Returns 0 when the commutator vanishes identically.
    """
    if s <= 0:
        raise ValueError(f"order s must be positive, got {s}")
    if s < 1.0 and not g.is_zero_mean():
        raise sp.MeanModeError("Lambda^(s-1) with s < 1 needs zero-mean g")
    p1, p2, p3, p4 = (float(q) for q in exponents)
    allowed = {2.0, 4.0, float("inf")}
    if not {p1, p2, p3, p4} <= allowed:
        raise ValueError(f"exponents must come from {{2, 4, inf}}, got {exponents}")
    if abs((1.0 / p1 + 1.0 / p2) - (1.0 / p3 + 1.0 / p4)) > 1e-12:
        raise ValueError("Hoelder exponents inconsistent: 1/p1+1/p2 != 1/p3+1/p4")
    ip = 1.0 / p1 + 1.0 / p2
    if ip == 0.0:
        p = float("inf")
    else:
        p = 1.0 / ip
    sp._check_same_grid(f, g)
    n = f.grid.n
    bf, bg = sp.active_band(f), sp.active_band(g)
    if bf + bg > n // 2 - 1:
        raise ValueError("combined bands exceed the alias-free product range")

    factor = sp._oversample_factor_for(bf, bg, n=n, margin=3)
    fine = sp.TorusGrid(factor * n)
    fv = sp.oversampled_values(f, factor)
    gv = sp.oversampled_values(g, factor)
    prod = sp.forward(sp.RealField(fine, fv * gv))
    lam_s_prod = sp.fractional_laplacian(prod, s / 2.0)
    lam_s_g = sp.oversampled_values(sp.fractional_laplacian(g, s / 2.0), factor)
    left_vals = sp.inverse(lam_s_prod).values - fv * lam_s_g
    left = sp.lp_of_samples([left_vals], p)
    if left == 0.0:
        return 0.0

    grad_f = np.sqrt(
        sp.oversampled_values(sp.partial_derivative(f, 1), factor) ** 2
        + sp.oversampled_values(sp.partial_derivative(f, 2), factor) ** 2
    )
    term1 = sp.lp_of_samples([grad_f], p1) * sp.lp_of_samples(
        [sp.oversampled_values(sp.fractional_laplacian(g, (s - 1.0) / 2.0), factor)], p2
    )
    term2 = sp.lp_of_samples(
        [sp.oversampled_values(sp.fractional_laplacian(f, s / 2.0), factor)], p3
    ) * sp.lp_of_samples([gv], p4)
    if term1 + term2 == 0.0:
        # grad f == 0 and Lambda^s f == 0 force f constant, where the
        # commutator vanishes identically.
        return 0.0
    return left / (term1 + term2)


def positivity_check(f: SpectralField, p: int, alpha: float):
    """Both sides of 2 int |Lambda^alpha(f^(p/2))|^2 <= p int f^(p-1) Lambda^(2 alpha) f
    for even p (f >= 0 required when p > 2); returns (lhs, rhs)."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    n = f.grid.n
    band = sp.active_band(f)
    if band == 0:
        return 0.0, 0.0
    factor = sp._oversample_factor_for(band, n=n, margin=p)
    fine = sp.TorusGrid(factor * n)
    fv = sp.oversampled_values(f, factor)
    if p > 2 and fv.min() < -1e-12 * np.abs(fv).max():
        raise ValueError("p > 2 requires a pointwise nonnegative field")

    half_power = sp.forward(sp.RealField(fine, fv ** (p // 2)))
    lhs = 2.0 * sp.weighted_l2_norm_sq(half_power, sp.symbol_power(fine, alpha))
    lam2a = sp.oversampled_values(sp.fractional_laplacian(f, alpha), factor)
    rhs = p * TWO_PI**2 * float(np.mean(fv ** (p - 1) * lam2a))
    return lhs, rhs


def cz_ratio(w: SpectralField, p: float) -> float:
    """||grad u||_p / ||w||_p for u recovered from the vorticity w; the
    curl-controls-gradient ratio.  Exactly 1 at p = 2 by Parseval."""
    if p not in (2, 4, 8):
        raise ValueError(f"p must be one of 2, 4, 8, got {p}")
    if sp.l2_norm(w) == 0.0:
        raise ValueError("zero input")
    if p == 2:
        grad_sq = sum(sp.l2_norm_sq(c) for c in sp.velocity_gradient(w))
        return math.sqrt(grad_sq / sp.l2_norm_sq(w))
    sum_grad = sum_w = 0.0
    count = 0
    for v, grad_sq in sp.vorticity_gradient_rows(w):
        sum_grad += sp.power_sum(grad_sq, p // 2)
        sum_w += sp.power_sum(v, p)
        count += v.size
    return sp.lp_of_power_mean(sum_grad / count, p) / sp.lp_of_power_mean(sum_w / count, p)


def classify_growth(times, values) -> str:
    """Crude bounded/growing call: 'growing' when the max over the second
    half of the run exceeds twice the max over the first half."""
    times = np.asarray(times)
    values = np.asarray(values)
    mid = 0.5 * (times[0] + times[-1])
    first = values[times <= mid]
    last = values[times >= mid]
    if first.size == 0 or last.size == 0:
        return "bounded"
    top = first.max()
    if top == 0.0:
        return "growing" if last.max() > 0 else "bounded"
    return "growing" if last.max() > 2.0 * top else "bounded"


def hgamma_b_norm(state, gamma: float) -> float:
    """||Lambda^gamma b|| from the current (curl) state."""
    return math.sqrt(_curl_sobolev_sq(state.j, gamma))
