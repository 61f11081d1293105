"""Test oracles: the momentum/induction and flux forms of the tendency, the
dilation `rescale`, and the `inverse`, `partial_derivative`, `curl`,
`divergence` and `dealias` they need; the plain Parseval sums `l2_norm_sq`,
`l2_norm` and `weighted_l2_norm_sq`, references for the package's one sum
`spectral.lambda_norm_sq` and its root `lambda_norm`; the velocity field
`biot_savart` and its four gradient components `velocity_gradient` for a
vorticity w, which the package reads off w's spectrum without forming them;
fields sampled from a function (`coordinates`, `from_function`); the
traced peak of a call (`traced_peak`).
The solver evolves only the vorticity-current form; no package module
imports this file.  `classify_growth` and `hgamma_b_norm` wait here for
the run summary of ROADMAP D4, their first caller."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from mhd2d import spectral as sp
from mhd2d.dynamics import MHDState, SimulationAbort, SolverConfig
from mhd2d.spectral import SpectralField


def traced_peak(fn):
    """Peak bytes allocated (tracemalloc) while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def coordinates(grid):
    """Meshgrid (X1, X2) of the collocation points of `grid`."""
    x = np.arange(grid.n) * (sp.TWO_PI / grid.n)
    return np.meshgrid(x, x, indexing="ij")


def from_function(grid, fn) -> sp.RealField:
    """fn(X1, X2) sampled on the collocation points of `grid`."""
    return sp.RealField(grid, fn(*coordinates(grid)))


def inverse(F: SpectralField) -> sp.RealField:
    """Spectral coefficients -> physical samples (1/n^2 normalization)."""
    return sp.RealField(F.grid, sp.oversampled_values(F, 1))


def partial_derivative(F: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis via the multiplier i*xi_axis (axis is 1 or 2)."""
    if axis == 1:
        k = F.grid.kd[:, None]
    elif axis == 2:
        k = F.grid.kd
    else:
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return SpectralField(F.grid, 1j * k * F.coef)


def curl(v1: SpectralField, v2: SpectralField) -> SpectralField:
    """Scalar curl d1 v2 - d2 v1."""
    sp._check_same_grid(v1, v2)
    g = v1.grid
    coef = 1j * (g.kd[:, None] * v2.coef - g.kd * v1.coef)
    return SpectralField(g, coef)


def divergence(v1: SpectralField, v2: SpectralField) -> SpectralField:
    sp._check_same_grid(v1, v2)
    g = v1.grid
    coef = 1j * (g.kd[:, None] * v1.coef + g.kd * v2.coef)
    return SpectralField(g, coef)


def l2_norm_sq(F: SpectralField) -> float:
    """||f||_{L^2([0,2pi)^2)}^2 by Parseval."""
    n = F.grid.n
    return float(sp.TWO_PI**2 / n**4 * np.sum(np.abs(F.coef) ** 2))


def l2_norm(F: SpectralField) -> float:
    return float(np.sqrt(l2_norm_sq(F)))


def weighted_l2_norm_sq(F: SpectralField, weight: np.ndarray) -> float:
    """sum weight(xi)*|coef(xi)|^2 scaled to an L^2 integral."""
    n = F.grid.n
    return float(sp.TWO_PI**2 / n**4 * np.sum(weight * np.abs(F.coef) ** 2))


def biot_savart(w: SpectralField):
    """Divergence-free velocity with curl u = w and zero mean.

    u_hat(xi) = (i xi_2, -i xi_1) w_hat(xi)/|xi|^2, u_hat(0) = 0.
    """
    if not w.is_zero_mean():
        raise sp.MeanModeError("curl fields have zero mean; got a nonzero xi=0 mode")
    return tuple(SpectralField(w.grid, m * w.coef) for m in sp._biot_savart_symbols(w.grid))


def velocity_gradient(w: SpectralField):
    """The four components (d1u1, d2u1, d1u2, d2u2) of grad u for the
    divergence-free u with curl u = w, straight from the vorticity."""
    d11, d21, d12 = sp._gradient_coefs(w.grid, w.coef)
    return tuple(SpectralField(w.grid, c) for c in (d11, d21, d12, -d11))


def dealias(F: SpectralField) -> SpectralField:
    """Zero every mode with max(|xi_1|, |xi_2|) > n/3 (the 2/3 rule)."""
    keep = np.abs(F.grid.k) <= F.grid.dealias_cutoff
    return SpectralField(F.grid, np.where(keep[:, None] & keep, F.coef, 0.0))


def flux_form_rhs(state):
    """Coefficients of the ideal tendency in flux form:
    dw = -i xi . P[FT(u w - b j)], dj = |xi|^2 P[FT(u1 b2 - u2 b1)]."""
    g = state.grid
    u1, u2 = (inverse(f).values for f in biot_savart(state.w))
    b1, b2 = (inverse(f).values for f in biot_savart(state.j))
    w, j = inverse(state.w).values, inverse(state.j).values

    def product(v):
        return dealias(sp.forward(sp.RealField(g, v))).coef

    dw = -1j * (g.k[:, None] * product(u1 * w - b1 * j) + g.k * product(u2 * w - b2 * j))
    return dw, g.ksq * product(u1 * b2 - u2 * b1)


@dataclass(frozen=True)
class PrimitiveState:
    """Divergence-free (u, b) as spectral components, at time t."""

    u1: SpectralField
    u2: SpectralField
    b1: SpectralField
    b2: SpectralField
    t: float

    def __post_init__(self):
        sp._check_same_grid(self.u1, self.u2, self.b1, self.b2)

    def divergence_defect(self) -> float:
        top = max(np.max(np.abs(f.coef)) for f in (self.u1, self.u2, self.b1, self.b2))
        if top == 0.0:
            return 0.0
        pairs = ((self.u1, self.u2), (self.b1, self.b2))
        return max(np.max(np.abs(divergence(*v).coef)) for v in pairs) / top


def primitive_from_state(state: MHDState) -> PrimitiveState:
    u1, u2 = biot_savart(state.w)
    b1, b2 = biot_savart(state.j)
    return PrimitiveState(u1, u2, b1, b2, state.t)


def leray_project(v1: SpectralField, v2: SpectralField):
    """Remove the gradient part: v - xi (xi.v)/|xi|^2; the mean is kept."""
    sp._check_same_grid(v1, v2)
    g = v1.grid
    k1, k2 = g.k[:, None], g.k
    d = (k1 * v1.coef + k2 * v2.coef) * sp.symbol_power(g, -1.0)
    return SpectralField(g, v1.coef - k1 * d), SpectralField(g, v2.coef - k2 * d)


def primitive_rhs(pstate: PrimitiveState, config: SolverConfig) -> PrimitiveState:
    """Tendency of the momentum/induction form:

    du = P[-(u.grad)u + (b.grad)b] - nu Lambda^(2a) u
    db = P[-(u.grad)b + (b.grad)u] - eta Lambda^(2b) b

    P is the Leray projection (analytically redundant on db; applied as a
    numerical safeguard).  Products are dealiased like the curl form.
    """
    g = pstate.u1.grid

    def ir(F):
        return inverse(F).values

    u1, u2, b1, b2 = ir(pstate.u1), ir(pstate.u2), ir(pstate.b1), ir(pstate.b2)
    d = {}
    for name, F in (("u1", pstate.u1), ("u2", pstate.u2), ("b1", pstate.b1), ("b2", pstate.b2)):
        for ax in (1, 2):
            d[name, ax] = ir(partial_derivative(F, ax))

    def advect(a1, a2, name):
        return a1 * d[name, 1] + a2 * d[name, 2]

    terms = {
        "u1": -advect(u1, u2, "u1") + advect(b1, b2, "b1"),
        "u2": -advect(u1, u2, "u2") + advect(b1, b2, "b2"),
        "b1": -advect(u1, u2, "b1") + advect(b1, b2, "u1"),
        "b2": -advect(u1, u2, "b2") + advect(b1, b2, "u2"),
    }
    out = {}
    for name, phys in terms.items():
        if not np.isfinite(phys).all():
            raise SimulationAbort(pstate.t, f"non-finite value in a nonlinear product ({name})")
        out[name] = sp.zero_mean(dealias(sp.forward(sp.RealField(g, phys))))

    du1, du2 = leray_project(out["u1"], out["u2"])
    db1, db2 = leray_project(out["b1"], out["b2"])
    visc = config.nu * sp.symbol_power(g, config.alpha)
    diff = config.eta * sp.symbol_power(g, config.beta)
    return PrimitiveState(
        u1=SpectralField(g, du1.coef - visc * pstate.u1.coef),
        u2=SpectralField(g, du2.coef - visc * pstate.u2.coef),
        b1=SpectralField(g, db1.coef - diff * pstate.b1.coef),
        b2=SpectralField(g, db2.coef - diff * pstate.b2.coef),
        t=pstate.t,
    )


def rescale(state: MHDState, lam: int, gamma: float, tail_tol: float = 0.0) -> MHDState:
    """Dilation xi -> lam*xi with amplitude factor lam^(2*gamma) on (w, j)
    and time label t -> t / lam^(2*gamma); the lattice image of
    u_lam(x, t) = lam^(2*gamma - 1) u(lam x, lam^(2*gamma) t).

    lam must be a positive integer so the dilation preserves periodicity.
    Modes whose dilated image leaves the dealiased band must carry at most
    a `tail_tol` fraction of the spectral mass (0 = strict) or the
    rescaling errors out.
    """
    if lam != int(lam) or lam < 1:
        raise ValueError(f"lambda must be a positive integer, got {lam}")
    lam = int(lam)
    factor = float(lam) ** (2.0 * gamma)
    if lam == 1:
        return state
    g = state.grid
    n = g.n
    cutoff = g.dealias_cutoff
    k = g.k.astype(int)
    inside = np.abs(k) * lam <= cutoff
    keep = np.flatnonzero(inside)
    target = (k[keep] * lam) % n
    beyond = ~(inside[:, None] & inside[None, :])

    def dilate(F: SpectralField) -> SpectralField:
        mass = np.abs(F.coef) ** 2
        total = float(mass.sum())
        box = F.coef[np.ix_(keep, keep)]
        if total > 0.0:
            # The mass beyond the box is summed directly: total minus the
            # box sum rounds to a nonzero fraction when nothing lies beyond.
            dropped = np.sqrt(float(mass[beyond].sum()) / total)
            if dropped > tail_tol:
                raise ValueError(
                    f"dilated spectrum exceeds resolution: {dropped:.3e} of the "
                    f"spectral mass lies beyond max|xi| = {cutoff}/{lam}"
                )
        out = np.zeros((n, n), dtype=np.complex128)
        out[np.ix_(target, target)] = factor * box
        return SpectralField(g, out)

    return MHDState(t=state.t / factor, w=dilate(state.w), j=dilate(state.j))


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


def hgamma_b_norm(state: MHDState, gamma: float) -> float:
    """||Lambda^gamma b|| from the current j = curl b: on the lattice it is
    ||Lambda^(gamma-1) j||, the weight |xi|^(2 gamma - 2)."""
    j = state.j
    return math.sqrt(weighted_l2_norm_sq(j, sp.symbol_power(j.grid, gamma - 1.0)))


def band(F: SpectralField) -> int:
    """Largest |xi_1| or |xi_2| of a nonzero coefficient of F (0 for the
    zero field), from the whole lattice."""
    comp = np.maximum(np.abs(F.grid.k[:, None]), np.abs(F.grid.k))
    return int(np.max(comp, where=F.coef != 0, initial=0))


def sampling_factor(F: SpectralField) -> int:
    """The factor of the grid a sup or L^p norm of F samples on: the
    smallest power of two f >= 1 with f n >= 12 B, at most 4."""
    factor = 1
    while factor < 4 and factor * F.grid.n < 12 * band(F):
        factor *= 2
    return factor
