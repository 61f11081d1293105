"""Monitored norms, energy budgets, and inequality-ratio diagnostics.

L^2-type quantities are evaluated spectrally: the records' squares
||Lambda^s f||^2 by `spectral.lambda_norm_sq`, every norm, L^2 among
them, by `spectral.lambda_norm`, which scales with the field.  L^p for
p != 2 and sup norms are evaluated on a physical grid refined by a
factor up to `spectral.OVERSAMPLE`, chosen from the field's band (12
samples per shortest wavelength, never coarser than the collocation
grid), because the collocation max of a band-limited field
underestimates its true sup.  The sampled norms of w and of grad u
(curl u = w) come from one `spectral.vorticity_gradient_norms` call: a
record's linf_w, lp4_w, lp8_w and linf_grad_u, and both norms of the
Calderon-Zygmund ratio, which samples p = 2 like 4 and 8 and reads 1
there to round-off.  A record of a state whose band exceeds n/6 samples
on the OVERSAMPLE grid.  The commutator and positivity diagnostics take
their products from `spectral.product` and their norms from
`spectral.lp_norm`.
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


def budget_integrand(state, config):
    """(||Lambda^alpha u||^2, ||Lambda^beta b||^2, ||Lambda^beta j||^2),
    the three dissipation rates accumulated in time by the run loop.

    On the lattice ||Lambda^s v|| = ||Lambda^(s-1) curl v|| exactly for a
    divergence-free v, so the rates of u and b are those of w = curl u and
    j = curl b one order lower.
    """
    return (
        sp.lambda_norm_sq(state.w, config.alpha - 1.0),
        sp.lambda_norm_sq(state.j, config.beta - 1.0),
        sp.lambda_norm_sq(state.j, config.beta),
    )


def compute_record(state, config, integrals=(0.0, 0.0, 0.0)) -> DiagnosticsRecord:
    """All monitored norms of one state; `integrals` carries the cumulative
    time integrals maintained by the run loop."""
    w, j = state.w, state.j
    energy_u = sp.lambda_norm_sq(w, -1.0)
    energy_b = sp.lambda_norm_sq(j, -1.0)
    lp2_w_sq = sp.lambda_norm_sq(w, 0.0)
    x_val = lp2_w_sq + sp.lambda_norm_sq(j, 0.0)
    diss_u, diff_b, hbeta_j = budget_integrand(state, config)
    h2beta_b = sp.lambda_norm_sq(j, 2.0 * config.beta - 1.0)

    (linf_w, lp4_w, lp8_w), (linf_grad_u,) = sp.vorticity_gradient_norms(
        w, (np.inf, 4, 8), (np.inf,)
    )

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
        linf_w=linf_w,
        linf_grad_u=linf_grad_u,
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
    sp.check_finite("interpolation exponent beta", beta)
    if not beta > 1.0:
        raise ValueError(f"interpolation exponent must exceed 1, got beta={beta}")
    l2 = sp.lambda_norm(f)
    if l2 == 0.0:
        raise ValueError("zero input")
    sp.check_zero_mean(f=f)
    linf = sp.lp_norm(f, np.inf)
    hbeta = sp.lambda_norm(f, beta)
    return linf / (l2 ** ((beta - 1.0) / beta) * hbeta ** (1.0 / beta))


def commutator_ratio(f: SpectralField, g: SpectralField, s: float, exponents) -> float:
    """||Lambda^s(fg) - f Lambda^s g||_p over the product bound
    ||grad f||_p1 ||Lambda^(s-1) g||_p2 + ||Lambda^s f||_p3 ||g||_p4.

    `exponents` is (p1, p2, p3, p4) with 1/p1 + 1/p2 == 1/p3 + 1/p4
    defining p by Hoelder; implemented exponents come from {2, 4, inf}.
    Returns 0 when the commutator vanishes identically.  Of degree 0 in f
    and in g, it takes both at unit scale (`spectral._binary_order`).
    Each sum has its terms on one grid: fg and f Lambda^s g have equal
    bands, and so do f^2 and f Lambda^2 f in |grad f|^2 = f Lambda^2 f -
    Lambda^2(f^2)/2, the carre du champ of the Laplacian (Bakry and
    Emery, Sem. Probab. XIX, 1985).
    """
    sp.check_finite("order s", s)
    if not s > 0:
        raise ValueError(f"order s must be positive, got {s}")
    p1, p2, p3, p4 = (float(q) for q in exponents)
    allowed = {2.0, 4.0, float("inf")}
    if not {p1, p2, p3, p4} <= allowed:
        raise ValueError(f"exponents must come from {{2, 4, inf}}, got {exponents}")
    if abs((1.0 / p1 + 1.0 / p2) - (1.0 / p3 + 1.0 / p4)) > 1e-12:
        raise ValueError("Hoelder exponents inconsistent: 1/p1+1/p2 != 1/p3+1/p4")
    ip = 1.0 / p1 + 1.0 / p2
    p = math.inf if ip == 0.0 else 1.0 / ip
    sp._check_same_grid(f, g)
    f, g = (sp._ldexp(F, -sp._binary_order(F)) for F in (f, g))
    lam_s_g = sp.fractional_laplacian(g, s / 2.0)
    lam_s1_g = sp.fractional_laplacian(g, (s - 1.0) / 2.0)  # MeanModeError for s < 1
    commutator = sp.fractional_laplacian(sp.product(f, g), s / 2.0) - sp.product(f, lam_s_g)
    left = sp.lp_norm(commutator, p)
    if left == 0.0:
        return 0.0

    # Lambda^2 as the grid's ksq: `sp.symbol_power` would cache a copy.
    f_lap_f = sp.product(f, SpectralField(f.grid, f.grid.ksq * f.coef))
    f_sq = sp.product(f, f)
    grad_sq = f_lap_f - SpectralField(f_sq.grid, 0.5 * f_sq.grid.ksq * f_sq.coef)
    term1 = math.sqrt(sp.lp_norm(grad_sq, p1 / 2.0)) * sp.lp_norm(lam_s1_g, p2)
    term2 = sp.lp_norm(sp.fractional_laplacian(f, s / 2.0), p3) * sp.lp_norm(g, p4)
    if term1 + term2 == 0.0:
        # grad f == 0 and Lambda^s f == 0 force f constant, where the
        # commutator vanishes identically.
        return 0.0
    return left / (term1 + term2)


def positivity_check(f: SpectralField, p: int, alpha: float):
    """Both sides of 2 int |Lambda^alpha(f^(p/2))|^2 <= p int f^(p-1) Lambda^(2 alpha) f
    for even p (f >= 0 required when p > 2); returns (lhs, rhs).  The rhs
    integral is (2 pi)^2 m^-2 times the zero mode of `sp.product(f, ..,
    f, Lambda^(2 alpha) f)` on its m-grid, where the sign guard samples f
    (on the 2n grid if m = n)."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not isinstance(p, (int, np.integer)) or p < 2 or p % 2 != 0:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    n = f.grid.n
    integrand = sp.product(*[f] * (p - 1), sp.fractional_laplacian(f, alpha))
    m = integrand.grid.n
    if p > 2:
        fv = sp.oversampled_values(f, max(2, m // n))
        if fv.min() < -1e-12 * np.abs(fv).max():
            raise ValueError("p > 2 requires a pointwise nonnegative field")

    half_power = sp.product(*[f] * (p // 2))
    lhs = 2.0 * sp.lambda_norm_sq(half_power, alpha)
    rhs = p * TWO_PI**2 * integrand.coef[0, 0].real / m**2
    return lhs, rhs


def cz_ratio(w: SpectralField, p: float) -> float:
    """||grad u||_p / ||w||_p for u recovered from the vorticity w; the
    curl-controls-gradient ratio.  Every p is sampled alike, by one
    `spectral.vorticity_gradient_norms` call on the grid w's band needs,
    where the grid means of |f|^p are exact integrals; at p = 2 the ratio
    is 1 to round-off, at any scale of w."""
    if p not in (2, 4, 8):
        raise ValueError(f"p must be one of 2, 4, 8, got {p}")
    if not w.coef.any():
        raise ValueError("zero input")
    (lp_w,), (lp_grad,) = sp.vorticity_gradient_norms(w, (p,), (p,))
    return lp_grad / lp_w
