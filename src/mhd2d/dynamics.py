"""2D MHD dynamics with fractional dissipation, in vorticity-current form.

The evolved state is the pair (w, j) = (curl u, curl b); velocities are
recovered through Biot-Savart, which eliminates the pressure and keeps
both fields divergence-free by construction.  The momentum/induction form,
a cross-check oracle for the curl system, lives in tests/oracles.py.

Time stepping is integrating-factor RK4: the stiff linear terms
nu*Lambda^(2a) w and eta*Lambda^(2b) j are integrated exactly by
exp(-nu|xi|^(2a) dt) / exp(-eta|xi|^(2b) dt), the nonlinear terms by the
classical 4-stage rule.  The vorticity tendency is taken in Basdevant's
form (J. Comput. Phys. 50:209, 1983), from u and b alone:

    dw = -(d1^2 - d2^2)(u1 u2 - b1 b2) - d1 d2 ((u2^2 - u1^2) - (b2^2 - b1^2)),
    dj = -Lap(u1 b2 - u2 b1),

from 4 inverse transforms (u1, u2, b1, b2) and 3 forward ones (the three
products), with products formed pointwise in physical space and
2/3-dealiased afterwards.  A product of two fields with |xi_i| <= n/3 has
|xi_i| <= 2n/3, so its collocation aliases land at |xi_i| >= n - 2n/3,
outside the band, where the mask drops them: the dealiased product is the exact Galerkin
truncation (Orszag, J. Atmos. Sci. 28:1074, 1971).  So this is the same
truncated system as the flux form dw = -div(u w - b j), which needs w and
j on the grid too, and the two agree to round-off.

Inside a step (w, j) is one stacked array of shape (2, n, c + 1), c the
dealias cutoff: the compact blocks of the c + 1 leading half-spectrum
columns (|xi_2| <= n/3) of each field.  The state is dealiased (MHDState
checks it) and every tendency is multiplied by the 2/3 mask, so the
dropped columns are exactly zero at every stage; the transforms skip them
(spectral's compact-column convention), one per field, and the step gives
the same bits as full-width transforms.  The integrating factors are
stacked alike, so each RK stage and the update are written once for the
pair.  The blocks become the full n x n layout only when `step` and
`vorticity_rhs` return.

Each RK stage makes its own workspace (`_workspace`).  Every product and
transform of the stage writes into it with `out=`; the cross product
u1 b2 - u2 b1 is held while the squares are taken in place in the
velocity arrays, so two real arrays beyond the velocities serve all
three products.  The workspace is not cached, so no n x n scratch
outlives a stage.  `step` forms the stage inputs and the update as the
plain IF-RK4 expressions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from . import spectral as sp
from .spectral import SpectralField, TorusGrid

INIT_KINDS = ("orszag-tang", "random-band")


class SimulationAbort(RuntimeError):
    """Raised when a run must stop: instability, NaN/Inf, or a violated
    step-size bound.  Carries the time and the last valid state."""

    def __init__(self, t, reason, state=None):
        super().__init__(f"simulation aborted at t={t:.6g}: {reason}")
        self.t = t
        self.reason = reason
        self.state = state


@dataclass(frozen=True)
class SolverConfig:
    """Exponents, coefficients, resolution, and stepping parameters: what
    `step` and `run` read.  Initial data is `make_initial`'s."""

    alpha: float
    beta: float
    nu: float
    eta: float
    n: int = 256
    dt: float = 2.5e-4
    t_end: float = 1.0
    output_every: int = 40

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "eta", "dt", "t_end"):
            sp.check_finite(name, getattr(self, name))
        if self.nu < 0 or self.eta < 0:
            raise ValueError("coefficients nu, eta must be nonnegative")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("exponents alpha, beta must be nonnegative")
        if self.nu == 0.0 and self.alpha != 0.0:
            raise ValueError("nu = 0 requires alpha recorded as 0")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if not isinstance(self.output_every, (int, np.integer)) or self.output_every < 1:
            raise ValueError("output_every must be a positive integer")
        sp.check_grid_size(self.n)


@dataclass(frozen=True)
class MHDState:
    """(vorticity, current) pair at a finite time t; both zero-mean and
    dealiased (no coefficient with max(|xi_1|, |xi_2|) > n//3, the grid's
    `dealias_cutoff`)."""

    t: float
    w: SpectralField
    j: SpectralField

    def __post_init__(self):
        sp.check_finite("time", self.t)
        sp._check_same_grid(self.w, self.j)
        for name, f in (("w", self.w), ("j", self.j)):
            if f.coef[0, 0] != 0.0:
                raise sp.MeanModeError(f"{name} must have an exactly zero mean mode")
            if not f.dealiased:
                raise sp.DealiasError(f"{name} has coefficients outside the 2/3 dealias band")

    @property
    def grid(self) -> TorusGrid:
        return self.w.grid


def _block(grid: TorusGrid, arr):
    """The compact block: the leading dealias_cutoff + 1 half-spectrum columns."""
    return arr[..., : grid.dealias_cutoff + 1]


def _pair(state: MHDState):
    """The compact blocks of (w, j), stacked into one array."""
    return np.stack([_block(state.grid, f.coef) for f in (state.w, state.j)])


@functools.cache
def _half_multipliers(g: TorusGrid):
    """Compact-block Biot-Savart multipliers and the 2/3-masked symbols of
    -(d1^2 - d2^2), -d1 d2 and -Lap: k1^2 - k2^2, k1 k2 and |xi|^2.  All
    vanish at xi = 0, so means stay exactly 0; the last three are real and
    even in xi, so they keep a half spectrum Hermitian."""
    k1, k2, ksq = g.k[:, None], _block(g, g.k), _block(g, g.ksq)
    mask = np.abs(k1) <= g.dealias_cutoff
    bs = (_block(g, m) for m in sp._biot_savart_symbols(g))
    even = ((k1 * k1 - k2 * k2) * mask, k1 * k2 * mask, ksq * mask)
    return tuple(sp._frozen(m) for m in (*bs, *even))


def _workspace(n: int):
    """Scratch for one RK stage: 6 n x n real arrays (u1, u2, b1, b2, one
    product, one temporary) and a zero-tailed n x (n/2 + 1) half spectrum."""
    return np.empty((6, n, n)), np.zeros((n, n // 2 + 1), dtype=np.complex128)


def _velocities(grid: TorusGrid, wj, ws, coef):
    """Physical (u1, u2, b1, b2) from the stacked blocks wj by Biot-Savart,
    into the first four arrays of the workspace ws; `coef` is a scratch
    block shaped like wj[0]."""
    real, half = ws
    bs = _half_multipliers(grid)[:2]
    for c, pair in zip(wj, (real[:2], real[2:4])):
        for m, out in zip(bs, pair):
            sp._inverse_columns(np.multiply(m, c, out=coef), grid.n, out=out, half=half)


def _dt_bound(grid: TorusGrid, ws) -> float:
    """0.5*spacing/max(|u|, |b|) from the velocities in the workspace ws."""
    u1, u2, b1, b2, prod, tmp = ws[0]
    sq_tops = []
    for a1, a2 in ((u1, u2), (b1, b2)):
        np.multiply(a1, a1, out=prod)
        prod += np.multiply(a2, a2, out=tmp)
        sq_tops.append(prod.max())
    vmax = np.sqrt(max(sq_tops))
    return np.inf if vmax == 0.0 else 0.5 * grid.spacing / vmax


def _nonlinear_half(grid: TorusGrid, wj, t: float, h: float | None = None):
    """Non-stiff right-hand side of the curl system at time t, on the
    stacked compact blocks wj of (w, j); returns (dw, dj) stacked alike.
    Every transform runs in a workspace of the call's own, freed on return.

    dw_hat = (k1^2 - k2^2) P[FT(u1 u2 - b1 b2)]
             + k1 k2 P[FT((u2^2 - u1^2) - (b2^2 - b1^2))]
    dj_hat = |xi|^2 P[FT(u1 b2 - u2 b1)]

    P is the 2/3 mask.  Transforms: 4 inverse (u1, u2, b1, b2) and 3
    forward (the three products).  dw_hat is Basdevant's
    -curl div(u u - b b), equal to the flux form -i xi . P[FT(u w - b j)]
    up to round-off (module docstring); dj_hat is curl curl(u x b).

    If h is given, the advective step bound h <= 0.5*spacing/max(|u|,|b|)
    is checked on the physical u and b before the products are formed.
    """
    _, _, k11_22, k12, lap = _half_multipliers(grid)
    ws = _workspace(grid.n)
    u1, u2, b1, b2, prod, tmp = ws[0]
    dwj = np.empty_like(wj)
    d0, d1 = dwj  # also the Biot-Savart and transform scratch, until the tendencies land
    _velocities(grid, wj, ws, d0)
    if h is not None and h > (bound := _dt_bound(grid, ws)):
        raise SimulationAbort(t, f"advective step bound violated: dt={h:g} > {bound:g}")
    np.multiply(u1, u2, out=prod)
    prod -= np.multiply(b1, b2, out=tmp)
    sp._forward_columns(prod, d0.shape[1], out=d0, half=ws[1])
    d0 *= k11_22
    np.multiply(u1, b2, out=prod)  # held until the squares are transformed
    prod -= np.multiply(u2, b1, out=tmp)
    for a in (u1, u2, b1, b2):
        a *= a
    u2 -= u1
    b2 -= b1
    u2 -= b2
    sp._forward_columns(u2, d1.shape[1], out=d1, half=ws[1])
    d0 += np.multiply(k12, d1, out=d1)
    sp._forward_columns(prod, d1.shape[1], out=d1, half=ws[1])
    d1 *= lap
    if not np.isfinite(dwj).all():
        raise SimulationAbort(t, "non-finite value in a nonlinear product")
    return dwj


def vorticity_rhs(state: MHDState):
    """Non-stiff part of the curl-system tendency as spectral fields."""
    g = state.grid
    dwj = _nonlinear_half(g, _pair(state), state.t)
    return tuple(SpectralField(g, sp._hermitian_extend(d, g.n)) for d in dwj)


@functools.lru_cache(maxsize=16)
def _integrating_factors(g, dt, nu, alpha, eta, beta):
    """Read-only exp(-L dt/2) and exp(-L dt), L = (nu|xi|^(2a), eta|xi|^(2b))
    stacked like (w, j): exact linear flow over a half step and a step."""
    lam = np.stack([c * _block(g, sp.symbol_power(g, e)) for c, e in ((nu, alpha), (eta, beta))])
    return sp._frozen(np.exp(-0.5 * dt * lam)), sp._frozen(np.exp(-dt * lam))


def step(state: MHDState, config: SolverConfig, dt: float | None = None) -> MHDState:
    """Advance one step of integrating-factor RK4 on the stacked (w, j), each
    stage at its own time; the stage inputs and the update are the IF-RK4
    expressions.  The advective step bound is checked on the stage-1
    velocities, at no extra transforms; an abort carries the input, also
    when the update is not finite.  A `dt` override must be finite and
    positive (ValueError)."""
    g = state.grid
    if g.n != config.n:
        raise sp.GridMismatchError(f"state grid n={g.n} != config n={config.n}")
    h = float(config.dt if dt is None else dt)
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    eh, ef = _integrating_factors(
        g, h, float(config.nu), float(config.alpha), float(config.eta), float(config.beta)
    )
    wj, t = _pair(state), state.t
    th = t + 0.5 * h
    try:
        k1 = _nonlinear_half(g, wj, t, h)
        k2 = _nonlinear_half(g, eh * (wj + 0.5 * h * k1), th)
        k3 = _nonlinear_half(g, eh * wj + 0.5 * h * k2, th)
        k4 = _nonlinear_half(g, ef * wj + (h * eh) * k3, t + h)
    except SimulationAbort as err:
        err.state = state
        raise
    x = ef * wj + (h / 6.0) * (ef * k1 + (2.0 * eh) * (k2 + k3) + k4)
    if not np.isfinite(x).all():
        raise SimulationAbort(t, "non-finite value in the update", state)
    out = MHDState(t + h, *(SpectralField(g, sp._hermitian_extend(c, g.n)) for c in x))
    old_sq = sp.lambda_norm_sq(state.w, 0.0)
    if old_sq > 0.0 and sp.lambda_norm_sq(out.w, 0.0) > 100.0 * old_sq:
        raise SimulationAbort(t, "vorticity L2 norm grew more than 10x in one step", state)
    return out


def advective_dt_bound(state: MHDState) -> float:
    """0.5 * (grid spacing) / max(||u||_inf, ||b||_inf) on the collocation
    grid, the bound `step` checks; inf when the state is at rest."""
    g, wj = state.grid, _pair(state)
    ws = _workspace(g.n)
    _velocities(g, wj, ws, np.empty_like(wj[0]))
    return _dt_bound(g, ws)


def run(config: SolverConfig, init: MHDState):
    """Generator of (state snapshot, DiagnosticsRecord) every
    config.output_every steps (plus the initial and final samples).

    The advective step bound is checked inside every step.  The cumulative
    dissipation integrals are accumulated by the trapezoid rule at every
    step, regardless of the output cadence, so the energy budget residual
    is O(dt^2), not of the stepper's fourth order.  Deterministic given
    (config, init).  Step aborts propagate with the last valid state
    attached.
    """
    if init.grid.n != config.n:
        raise sp.GridMismatchError(f"initial state n={init.grid.n} != config n={config.n}")
    state = init
    integrals = np.zeros(3)
    g_prev = np.array(diagnostics.budget_integrand(state, config))
    yield state, diagnostics.compute_record(state, config, integrals)

    eps = 1e-9 * config.dt
    step_idx = 0
    while config.t_end - state.t > eps:
        h = min(config.dt, config.t_end - state.t)
        state = step(state, config, h)
        g_new = np.array(diagnostics.budget_integrand(state, config))
        integrals += 0.5 * h * (g_prev + g_new)
        g_prev = g_new
        step_idx += 1
        if step_idx % config.output_every == 0 or config.t_end - state.t <= eps:
            yield state, diagnostics.compute_record(state, config, integrals)


# --- initial data ------------------------------------------------------------


def make_initial(
    grid: TorusGrid,
    kind: str,
    seed: int = 0,
    amplitude: float = 1.0,
    band: int = 8,
) -> MHDState:
    """Zero-mean, dealiased initial (w, j), reproducible from the seed.

    orszag-tang: u = a(-sin x2, sin x1), b = a(-sin x2, sin 2x1), i.e.
    w = a(cos x1 + cos x2) and j = a(2 cos 2x1 + cos x2).
    random-band: independent noise for w and j confined to 1 <= |xi| <= band,
    each normalized to ||.||_L2 = amplitude.
    """
    if kind not in INIT_KINDS:
        raise ValueError(f"kind must be one of {INIT_KINDS}, got {kind!r}")
    sp.check_finite("amplitude", amplitude)
    if not amplitude >= 0:
        raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
    n = grid.n
    if kind == "orszag-tang":
        wc = np.zeros((n, n), dtype=np.complex128)
        jc = np.zeros((n, n), dtype=np.complex128)
        half_amp = 0.5 * amplitude * n**2
        wc[1, 0] = wc[-1, 0] = half_amp
        wc[0, 1] = wc[0, -1] = half_amp
        jc[2, 0] = jc[-2, 0] = amplitude * n**2
        jc[0, 1] = jc[0, -1] = half_amp
        w = SpectralField(grid, wc)
        j = SpectralField(grid, jc)
    else:
        sp.check_finite("band", band)
        if not band <= grid.dealias_cutoff:
            raise ValueError(f"band {band} exceeds the dealias cutoff {grid.dealias_cutoff}")
        rng = np.random.default_rng(seed)
        w = sp.random_band_field(grid, rng, band, amplitude)
        j = sp.random_band_field(grid, rng, band, amplitude)
    return MHDState(t=0.0, w=w, j=j)
